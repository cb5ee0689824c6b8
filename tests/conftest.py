import bisect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def bisections(monkeypatch):
    """The merges the engine places by bisection: a list that gains one
    entry per bisect_right call made through the bisect module epc.huffman
    reads, for as long as the test runs."""
    calls = []
    real = bisect.bisect_right

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(bisect, "bisect_right", counting)
    return calls
