"""Value semantics of the library's value classes: fields in order with their
defaults, construction by position or keyword through the class's checks,
equality and hash by class and fields, the constructor-call repr, and no
assignment or deletion."""
import pickle

import pytest

from epc import (CodeTree, Deterministic, DthRedundancy, ExplicitFinite,
                 ExplicitTailed, Exponential, ExponentialArrivals,
                 GammaArrivals, Geometric, LengthSeq, Linear, MaxRedundancy,
                 OverflowResult, Poisson, SweepSpec, TableTransform,
                 UnaryTail)

_SPEC = ("SweepSpec(figure=3, ratio_start=None, ratio_stop=None, "
         "ratio_step=None, bases=(0.75, 0.9, 1.1, 1.25, 1.5, 2.0), "
         "base_start=0.5, base_stop=4.0, base_step=0.01, "
         "orders=(1, 2, 4, 16, 256, 65536))")

# one value of each class, made by position, with the repr the dataclasses
# gave it, and a value of the same class with other fields
_VALUES = [
    (Geometric(0.5), "Geometric(ratio=0.5)", Geometric(0.25)),
    (Poisson(4.0), "Poisson(mean=4.0)", Poisson(5.0)),
    (ExplicitFinite((0.5, 0.25, 0.25)),
     "ExplicitFinite(probs=(0.5, 0.25, 0.25))",
     ExplicitFinite((0.25, 0.5, 0.25))),
    (ExplicitTailed((0.5, 0.25), 0.5),
     "ExplicitTailed(head=(0.5, 0.25), tail_ratio=0.5)",
     ExplicitTailed((0.5, 0.25), 0.25)),
    (Exponential(2.0), "Exponential(base=2.0)", Exponential(1.5)),
    (DthRedundancy(2.0), "DthRedundancy(order=2.0)", DthRedundancy(1.0)),
    (MaxRedundancy(), "MaxRedundancy()", None),
    (Linear(), "Linear()", None),
    (UnaryTail(3, k=2), "UnaryTail(spine=3, k=2)", UnaryTail(3)),
    (LengthSeq((1, 2, 2)), "LengthSeq(head=(1, 2, 2), tail=None)",
     LengthSeq((1, 2, 3))),
    (LengthSeq((1,), UnaryTail(1)),
     "LengthSeq(head=(1,), tail=UnaryTail(spine=1, k=1))",
     LengthSeq((1,), UnaryTail(2))),
    (CodeTree((1, 1), 1.0, 1.0, ((0,), (1,))),
     "CodeTree(lengths=(1, 1), root_weight=1.0, objective=1.0)",
     CodeTree((1, 1), 1.0, 1.0, ((1,), (0,)))),
    (Deterministic(3.0), "Deterministic(gap=3.0)", Deterministic(4.0)),
    (ExponentialArrivals(0.5), "ExponentialArrivals(rate=0.5)",
     ExponentialArrivals(0.25)),
    (GammaArrivals(4.0, 2.0), "GammaArrivals(shape=4.0, rate=2.0)",
     GammaArrivals(2.0, 4.0)),
    (TableTransform(((0.0, 1.0), (1.0, 0.5))),
     "TableTransform(samples=((0.0, 1.0), (1.0, 0.5)))",
     TableTransform(((0.0, 1.0), (2.0, 0.5)))),
    (OverflowResult(LengthSeq((1, 1)), 0.25, False, ()),
     "OverflowResult(code=LengthSeq(head=(1, 1), tail=None), "
     "decay_rate=0.25, at_boundary=False, trace=())",
     OverflowResult(LengthSeq((1, 1)), 0.25, True, ())),
    (SweepSpec(3), _SPEC, SweepSpec(2)),
]
_IDS = [f"{type(v).__name__}-{i}" for i, (v, _, _) in enumerate(_VALUES)]
_NAMES = {name: globals()[name] for name in (
    "Geometric", "Poisson", "ExplicitFinite", "ExplicitTailed", "Exponential",
    "DthRedundancy", "MaxRedundancy", "Linear", "UnaryTail", "LengthSeq",
    "Deterministic", "ExponentialArrivals", "GammaArrivals",
    "TableTransform", "OverflowResult", "SweepSpec")}


def test_the_table_holds_every_value_class():
    assert {type(v) for v, _, _ in _VALUES} == set(_NAMES.values()) | {
        CodeTree}
    assert len({type(v) for v, _, _ in _VALUES}) == 17


@pytest.mark.parametrize("value, text, other", _VALUES, ids=_IDS)
def test_a_value_prints_as_its_keyword_call(value, text, other):
    assert repr(value) == text


@pytest.mark.parametrize("value, text, other", _VALUES, ids=_IDS)
def test_a_value_made_by_keyword_equals_it_made_by_position(value, text,
                                                            other):
    if isinstance(value, CodeTree):     # its repr leaves out _merges
        again = CodeTree(lengths=(1, 1), root_weight=1.0, objective=1.0,
                         _merges=((0,), (1,)))
    else:
        again = eval(text, _NAMES)
    assert type(again) is type(value)
    assert again == value and hash(again) == hash(value)
    assert again._values() == value._values()


@pytest.mark.parametrize("value, text, other", _VALUES, ids=_IDS)
def test_values_are_equal_and_hash_by_class_and_fields(value, text, other):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and not copy != value and hash(copy) == hash(value)
    assert hash(value) == hash(value._values())
    if other is not None:
        assert other != value and not other == value
    for twin, _, _ in _VALUES:
        if type(twin) is not type(value) and not (
                isinstance(twin, LengthSeq) and isinstance(value, LengthSeq)):
            assert twin != value
    assert value != value._values()


def test_a_subclass_value_is_not_its_parents():
    # a LengthSeq compares by head and tail with any code class; every other
    # value by class first, though the fields and hashes agree
    class Tilted(Exponential):
        pass

    assert Tilted(2.0) != Exponential(2.0)
    assert hash(Tilted(2.0)) == hash(Exponential(2.0))
    assert DthRedundancy(2.0) != Exponential(2.0)
    assert MaxRedundancy() != Linear()


@pytest.mark.parametrize("value, text, other", _VALUES, ids=_IDS)
def test_a_value_refuses_assignment_and_deletion(value, text, other):
    for name in (*type(value)._fields(), "extra"):
        with pytest.raises(AttributeError, match=f"assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=f"delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


def test_defaults_fill_the_fields_left_out():
    assert SweepSpec._fields() == (
        "figure", "ratio_start", "ratio_stop", "ratio_step", "bases",
        "base_start", "base_stop", "base_step", "orders")
    assert SweepSpec(3) == SweepSpec(figure=3) == SweepSpec(
        3, None, None, None, (0.75, 0.9, 1.1, 1.25, 1.5, 2.0), 0.5, 4.0,
        0.01, (1, 2, 4, 16, 256, 65536))
    assert SweepSpec(5, 0.9, orders=(1,)).orders == (1,)
    # k is keyword-only
    assert UnaryTail._fields() == ("spine", "k")
    assert UnaryTail(2) == UnaryTail(2, k=1) == UnaryTail(spine=2, k=1)
    with pytest.raises(TypeError):
        UnaryTail(2, 3)
    assert LengthSeq._fields() == ("head", "tail")
    assert LengthSeq((1, 2, 2)) == LengthSeq((1, 2, 2), None) == LengthSeq(
        head=[1, 2, 2], tail=None)
    assert MaxRedundancy._fields() == Linear._fields() == ()
    with pytest.raises(TypeError):
        Exponential()
    with pytest.raises(TypeError):
        Exponential(2.0, base=2.0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: Exponential(base=-1.0), ValueError,
     "base must be positive, got -1.0"),
    (lambda: Geometric(ratio=1.0), ValueError,
     "ratio must lie in (0, 1), got 1.0"),
    (lambda: SweepSpec(figure=1), ValueError, "figure must be 2, 3, 4 or 5"),
    (lambda: SweepSpec(2, ratio_step=0.0), ValueError,
     "the ratio step must be positive, got 0.0"),
    (lambda: UnaryTail(spine=-1), ValueError, "bad tail record"),
    (lambda: LengthSeq(head=(1, 1, 1)), ValueError,
     "lengths violate the Kraft inequality"),
    (lambda: ExplicitFinite(probs=(0.5, 0.25)), ValueError,
     "probabilities must sum to 1 within 1e-9"),
    (lambda: TableTransform(samples=((0.0, 1.0),)), ValueError,
     "need at least two samples"),
], ids=["exponential", "geometric", "figure", "ratio-step", "tail",
        "kraft", "probs", "samples"])
def test_keyword_construction_runs_the_class_checks(make, error, message):
    with pytest.raises(error) as refused:
        make()
    assert str(refused.value) == message


def test_what_a_value_keeps_leaves_its_fields_alone():
    # cached_property values and object.__setattr__ writes go to the
    # instance dict; equality, hash and repr read the fields alone
    tree = CodeTree((1, 1), 1.0, 1.0, ((0,), (1,)))
    assert tree.codewords == ("0", "1") and "codewords" in vars(tree)
    source = ExplicitFinite((0.25, 0.5, 0.25))
    assert source._order == [0, 2, 1] and source.ln_masses(0, 3)
    assert "_order" in vars(source) and "_ln_kept" in vars(source)
    code = LengthSeq((1, 2, 2))
    assert code._canonical and "_canonical" in vars(code)
    for kept, fresh in ((tree, CodeTree((1, 1), 1.0, 1.0, ((0,), (1,)))),
                        (source, ExplicitFinite((0.25, 0.5, 0.25))),
                        (code, LengthSeq((1, 2, 2)))):
        assert kept == fresh and hash(kept) == hash(fresh)
        assert repr(kept) == repr(fresh)
