import math

import pytest

from epc import golomb_exp_penalty, optimal_k_dth
from epc.cli import run


def test_optimize_geometric(capsys):
    assert run(["optimize", "--geometric", "0.9", "--penalty", "exp:1.1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Golomb k=7"
    assert out[1].startswith("penalty ")


def test_optimize_fractional_dth_order(capsys):
    assert run(["optimize", "--geometric", "0.8", "--penalty", "dth:1.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"Golomb k={optimal_k_dth(0.8, 1.5)}"
    # a non-finite order stays a usage error
    assert run(["optimize", "--geometric", "0.8", "--penalty", "dth:inf"]) == 2
    capsys.readouterr()


def test_optimize_linear_alias(capsys):
    # exp:1.0 must take the plain mean-length route, identical to linear
    assert run(["optimize", "--geometric", "0.5", "--penalty", "exp:1.0"]) == 0
    first = capsys.readouterr().out
    assert run(["optimize", "--geometric", "0.5", "--penalty", "linear"]) == 0
    assert capsys.readouterr().out == first
    assert "penalty 2" in first
    assert float(first.splitlines()[1].split()[1]) == pytest.approx(
        golomb_exp_penalty(0.5, 1.0, 1))


def test_optimize_poisson_unary(capsys):
    assert run(["optimize", "--poisson", "1", "--penalty", "exp:2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "lengths 2,2,2,3 +unary@3"


def test_optimize_weights_file(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("0.1 0.2 0.3 0.4\n")
    assert run(["optimize", "--weights", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "lengths 3,3,2,1"
    assert float(out[1].split()[1]) == pytest.approx(1.9)


def test_huffman_raw_weights(tmp_path, capsys):
    f = tmp_path / "w.txt"
    f.write_text("3 1 2 2\n")
    assert run(["huffman", "--weights", str(f), "--penalty", "mmr"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("lengths ")
    assert out[1].startswith("objective ")


def test_encode_decode_roundtrip(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("5 0 17 3 3 99\n")
    box = tmp_path / "out.epc"
    assert run(["encode", "--golomb", "3", "--input", str(src),
                "--output", str(box)]) == 0
    capsys.readouterr()
    assert run(["decode", "--input", str(box)]) == 0
    out = capsys.readouterr().out.split()
    assert [int(x) for x in out] == [5, 0, 17, 3, 3, 99]


def test_encode_from_model(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text(" ".join(str(i % 7) for i in range(50)))
    box = tmp_path / "out.epc"
    assert run(["encode", "--poisson", "1", "--penalty", "exp:2",
                "--input", str(src), "--output", str(box)]) == 0
    capsys.readouterr()
    assert run(["decode", "--input", str(box)]) == 0
    out = capsys.readouterr().out.split()
    assert [int(x) for x in out] == [i % 7 for i in range(50)]


def test_overflow_command(capsys):
    assert run(["overflow", "--geometric", "0.5", "--deterministic", "3",
                "--trace", "--buffer-size", "64"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert any(line.startswith("iter 1:") for line in lines)
    assert "Golomb k=3" in lines
    rate_line = next(l for l in lines if l.startswith("decay rate"))
    assert float(rate_line.split()[2]) == pytest.approx(math.log(4.0), abs=1e-8)
    assert any(l.startswith("overflow estimate") for l in lines)


def test_overflow_boundary_note(capsys):
    assert run(["overflow", "--geometric", "0.9", "--deterministic", "2"]) == 0
    out = capsys.readouterr().out
    assert "at stability boundary" in out
    assert "decay rate 0" in out


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "fig4.csv"
    assert run(["sweep", "--figure", "4", "--output", str(target)]) == 0
    text = target.read_text()
    assert text.splitlines()[0] == "a,g"
    # byte-identical across runs, and stdout variant matches the file
    assert run(["sweep", "--figure", "4"]) == 0
    assert capsys.readouterr().out == text


def test_domain_errors_exit_one(capsys):
    assert run(["optimize", "--poisson", "1", "--penalty", "dth:2"]) == 1
    assert "geometric" in capsys.readouterr().err
    assert run(["huffman", "--weights", "/no/such/file"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert run(["optimize", "--geometric", "1.5"]) == 1


def test_usage_errors_exit_two(capsys):
    assert run([]) == 2
    assert run(["optimize"]) == 2                       # no model given
    assert run(["optimize", "--geometric", "0.5",
                "--penalty", "nope"]) == 2
    assert run(["sweep", "--figure", "9"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "optimize" in capsys.readouterr().out
