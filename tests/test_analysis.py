import math

import pytest

from epc import (DthRedundancy, Exponential, Geometric, GolombCode, LengthSeq,
                 Linear, MaxRedundancy, SweepSpec, UnaryTail, avg_redundancy,
                 avg_redundancy_asymptotic, evaluate_penalty, mmr_asymptotic,
                 mmr_optimal_redundancy, optimal_k, optimal_k_exponential,
                 optimal_k_mmr, renyi_entropy, shannon_entropy, sweep)
from epc.analysis import _grid_size

LOG2LOG2E = math.log2(math.log2(math.e))
# extremes of mmr_asymptotic: the ratio -> 1 limits of the oscillation
MMR_LIM_MIN = 1.0 - LOG2LOG2E
MMR_LIM_MAX = 2.0 - math.log2(math.e)


def _mmr(th, k):
    return evaluate_penalty(Geometric(th), GolombCode(k), MaxRedundancy())


def test_closed_form_matches_direct_evaluation():
    th = 0.5
    while th < 0.995:
        got = mmr_optimal_redundancy(th)
        want = _mmr(th, optimal_k_mmr(th))
        assert got == pytest.approx(want, abs=1e-12)
        th += 0.00703
    # exact power-of-two boundary ratios included
    for k in (2, 3, 5, 10):
        th = 2.0 ** (-1.0 / k)
        assert mmr_optimal_redundancy(th) == \
            pytest.approx(_mmr(th, optimal_k_mmr(th)), abs=1e-12)
    # the range of acceptance criterion 7: 1 - ratio over [1e-6, 1e-2],
    # where also no Golomb parameter near the chosen one does better
    lo, hi, n = 1e-6, 1e-2, 2000
    for i in range(n):
        th = 1.0 - lo * (hi / lo) ** (i / (n - 1))
        k = optimal_k_mmr(th)
        want = _mmr(th, k)
        assert mmr_optimal_redundancy(th) == pytest.approx(want, abs=1e-12)
        for j in range(max(1, k - 3), k + 4):
            assert _mmr(th, j) >= want, (th, k, j)
    with pytest.raises(ValueError):
        mmr_optimal_redundancy(0.4)


def test_asymptotic_extremes():
    # the closed forms agree with the constants to the last digit
    assert MMR_LIM_MIN == pytest.approx(0.4712336270551024, abs=1e-15)
    assert MMR_LIM_MAX == pytest.approx(0.5573049591110366, abs=1e-15)
    assert mmr_asymptotic(0.0) == pytest.approx(MMR_LIM_MIN, abs=1e-15)
    x_top = 1.0 - LOG2LOG2E
    assert mmr_asymptotic(x_top) == pytest.approx(MMR_LIM_MAX, abs=1e-15)
    # grid minimum/maximum agree with those two stationary points
    vals = [mmr_asymptotic(i / 5000.0) for i in range(5000)]
    assert min(vals) == pytest.approx(MMR_LIM_MIN, abs=1e-7)
    assert max(vals) == pytest.approx(MMR_LIM_MAX, abs=1e-7)
    # both curves are 1-periodic in the oscillation coordinate
    for x in (0.21, 0.68):
        assert mmr_asymptotic(x) == pytest.approx(mmr_asymptotic(x + 1.0))
        assert avg_redundancy_asymptotic(x) == \
            pytest.approx(avg_redundancy_asymptotic(x + 3.0))


def test_mmr_closed_form_near_one_approaches_asymptotic():
    for eps in (1e-5, 1e-6, 1e-7):
        th = 1.0 - eps
        x = math.log2(-1.0 / math.log2(th))
        assert mmr_optimal_redundancy(th) == \
            pytest.approx(mmr_asymptotic(x), abs=5e-5)


def test_avg_redundancy_near_one_approaches_asymptotic():
    for eps in (1e-5, 1e-6):
        th = 1.0 - eps
        k = optimal_k_exponential(th, 1.0)
        red = evaluate_penalty(Geometric(th), GolombCode(k),
                               Exponential(1.0)) - \
            (-(th * math.log2(th) + eps * math.log2(eps)) / eps)
        x = math.log2(-1.0 / math.log2(th))
        assert red == pytest.approx(avg_redundancy_asymptotic(x), abs=1e-3)


def test_avg_redundancy_function():
    g = Geometric(0.6)
    seq = LengthSeq((1, 2), UnaryTail(2))
    got = avg_redundancy(g, seq, 1.2)
    import epc
    want = epc.evaluate_penalty(g, seq, epc.Exponential(1.2)) - \
        renyi_entropy(g, 1.2)
    assert got == pytest.approx(want, rel=1e-12)


def _rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_sweep_figure2():
    spec = SweepSpec(figure=2, ratio_start=0.2, ratio_stop=0.4,
                     ratio_step=0.1, bases=(1.5, 2.0))
    header, rows = _rows(sweep(spec))
    assert header == ["a", "theta", "k", "penalty", "entropy", "redundancy"]
    assert len(rows) == 2 * 3
    a, th = float(rows[0][0]), float(rows[0][1])
    k = int(rows[0][2])
    assert k == optimal_k_exponential(th, a)
    pen = evaluate_penalty(Geometric(th), GolombCode(k), Exponential(a))
    assert float(rows[0][3]) == pytest.approx(pen)
    assert float(rows[0][5]) == pytest.approx(
        pen - renyi_entropy(Geometric(th), a), abs=1e-9)
    with pytest.raises(ValueError):
        sweep(SweepSpec(figure=2, bases=(0.4,)))


def test_sweep_figure3():
    spec = SweepSpec(figure=3, ratio_start=0.5, ratio_stop=0.5, ratio_step=0.1)
    header, rows = _rows(sweep(spec))
    assert header == ["theta", "k", "mean_length", "entropy", "redundancy"]
    assert len(rows) == 1
    assert int(rows[0][1]) == 1
    assert float(rows[0][2]) == pytest.approx(2.0)
    assert float(rows[0][3]) == pytest.approx(2.0)
    assert float(rows[0][4]) == pytest.approx(0.0, abs=1e-12)


def test_sweep_figure4():
    header, rows = _rows(sweep(SweepSpec(figure=4)))
    assert header == ["a", "g"]
    assert len(rows) == 351
    by_a = {row[0]: float(row[1]) for row in rows}
    assert by_a["1"] == pytest.approx(0.6180339887498949, abs=1e-12)
    assert by_a["4"] == pytest.approx((math.sqrt(2.0) - 1.0) / 2.0, abs=1e-12)


def test_sweep_figure5():
    spec = SweepSpec(figure=5, ratio_start=0.9, ratio_stop=0.91,
                     ratio_step=0.005, orders=(1, 65536))
    header, rows = _rows(sweep(spec))
    assert header == ["theta", "x", "curve", "k", "value"]
    assert len(rows) == 3 * 3      # mmr curve plus two orders per ratio
    curves = {row[2] for row in rows}
    assert curves == {"mmr", "d=1", "d=65536"}
    first = rows[0]
    assert first[2] == "mmr"
    assert float(first[1]) == pytest.approx(math.log2(-1 / math.log2(0.9)))
    assert float(first[4]) == pytest.approx(_mmr(0.9, optimal_k_mmr(0.9)))


def test_every_sweep_row_is_the_golomb_value():
    # each row of figures 2, 3 and 5 is, as printed, the optimal Golomb
    # parameter at its (theta, penalty) and evaluate_penalty there
    fmt = "%.12g".__mod__
    grid = dict(ratio_start=0.5, ratio_stop=0.9, ratio_step=0.1)

    def best(th, penalty):
        k = optimal_k(th, penalty)
        return k, evaluate_penalty(Geometric(th), GolombCode(k), penalty)

    spec = SweepSpec(figure=2, bases=(0.75, 1.5), **grid)
    want = []
    for a in spec.bases:
        for th in spec.ratios():
            k, pen = best(th, Exponential(a))
            ent = renyi_entropy(Geometric(th), a)
            want.append([fmt(a), fmt(th), str(k), fmt(pen), fmt(ent),
                         fmt(pen - ent)])
    assert _rows(sweep(spec))[1] == want
    spec = SweepSpec(figure=3, **grid)
    want = []
    for th in spec.ratios():
        k, mean = best(th, Linear())
        ent = shannon_entropy(Geometric(th))
        want.append([fmt(th), str(k), fmt(mean), fmt(ent), fmt(mean - ent)])
    assert _rows(sweep(spec))[1] == want
    spec = SweepSpec(figure=5, **grid)
    want = []
    for th in spec.ratios():
        x = fmt(math.log2(-1.0 / math.log2(th)))
        for curve, penalty in [("mmr", MaxRedundancy()),
                               *(("d=%d" % d, DthRedundancy(d))
                                 for d in spec.orders)]:
            k, value = best(th, penalty)
            want.append([fmt(th), x, curve, str(k), fmt(value)])
    assert len(want) == 5 * 7
    assert _rows(sweep(spec))[1] == want


def test_sweep_deterministic():
    spec = SweepSpec(figure=5, ratio_start=0.6, ratio_stop=0.8,
                     ratio_step=0.01)
    assert sweep(spec) == sweep(spec)
    with pytest.raises(ValueError):
        SweepSpec(figure=7)


def test_sweep_grids_are_checked_when_built():
    # a step that is not positive and finite, a stop below its start, and
    # a grid of more than 10^6 points are refused before any point is made
    bad = [dict(ratio_step=0.0), dict(ratio_step=-0.01),
           dict(ratio_step=math.nan), dict(ratio_step=math.inf),
           dict(ratio_start=0.9, ratio_stop=0.1),
           dict(ratio_stop=math.inf), dict(base_step=0.0),
           dict(base_start=4.0, base_stop=0.5)]
    for kwargs in bad:
        with pytest.raises(ValueError, match="grid|step"):
            SweepSpec(figure=2, **kwargs)
    # about 2 * 10^6 points: a list of them would take megabytes
    with pytest.raises(ValueError, match="more than 1000000 points"):
        SweepSpec(figure=2, ratio_step=4.5e-7)
    with pytest.raises(ValueError, match="more than 1000000 points"):
        SweepSpec(figure=4, base_step=1e-300)
    # a one-point grid, and a grid at the cap, stand
    assert SweepSpec(figure=3, ratio_start=0.5, ratio_stop=0.5).ratios() == [0.5]
    assert _grid_size("ratio", 0.0, 1.0, 1e-6 + 1e-18) == 10 ** 6


def test_asymptotes_name_a_nonfinite_axis_value():
    for f in (avg_redundancy_asymptotic, mmr_asymptotic):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                f(bad)
