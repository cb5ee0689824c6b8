import io
import math

import pytest

from epc import (DthRedundancy, EpcError, ExplicitCode, ExplicitFinite,
                 Exponential, ExponentialArrivals, GammaArrivals, Geometric,
                 GolombCode, Poisson, SweepSpec, TableTransform, encode,
                 evaluate_penalty, optimal_code, optimal_k, optimize_overflow,
                 read_container, sweep)
from epc.cli import run


def test_optimize_geometric(capsys):
    assert run(["optimize", "--geometric", "0.9", "--penalty", "exp:1.1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Golomb k=7"
    assert out[1].startswith("penalty ")


def test_optimize_fractional_dth_order(capsys):
    assert run(["optimize", "--geometric", "0.8", "--penalty", "dth:1.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"Golomb k={optimal_k(0.8, DthRedundancy(1.5))}"
    # a non-finite order stays a usage error
    assert run(["optimize", "--geometric", "0.8", "--penalty", "dth:inf"]) == 2
    capsys.readouterr()


def test_optimize_geometric_dth_tiny_order(capsys):
    # the order-d closed form reads d itself: at 1e-300 it gives the d -> 0
    # limit, the mean length less the entropy, 0.027482037943334
    argv = ["optimize", "--geometric", "0.999999", "--penalty", "dth:1e-300"]
    assert run(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Golomb k=693147"
    assert out[1].startswith("penalty 0.02748203794")


def test_optimize_refused_value_prints_no_code(monkeypatch, capsys):
    # the code is printed only once its value is in hand
    def refused(model, code, penalty):
        raise EpcError("penalty sum diverges")

    monkeypatch.setattr("epc.cli.evaluate_penalty", refused)
    assert run(["optimize", "--geometric", "0.5", "--penalty", "dth:2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: penalty sum diverges"]


def test_optimize_linear_alias(capsys):
    # exp:1.0 must take the plain mean-length route, identical to linear
    assert run(["optimize", "--geometric", "0.5", "--penalty", "exp:1.0"]) == 0
    first = capsys.readouterr().out
    assert run(["optimize", "--geometric", "0.5", "--penalty", "linear"]) == 0
    assert capsys.readouterr().out == first
    assert "penalty 2" in first
    assert float(first.splitlines()[1].split()[1]) == pytest.approx(
        evaluate_penalty(Geometric(0.5), GolombCode(1), Exponential(1.0)))


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


def test_decode_output_lines(tmp_path, capsys):
    box = tmp_path / "out.epc"
    box.write_bytes(encode([], GolombCode(2)))
    assert run(["decode", "--input", str(box)]) == 0
    assert capsys.readouterr().out == ""      # an empty container prints nothing
    box.write_bytes(encode([4, 0, 12], GolombCode(2)))
    assert run(["decode", "--input", str(box)]) == 0
    assert capsys.readouterr().out == "4\n0\n12\n"


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


def test_encode_from_weights(tmp_path, capsys):
    # the weights, normalized, build a finite code stored canonically
    weights = tmp_path / "w.txt"
    weights.write_text("4 2 1 1\n")
    src = tmp_path / "in.txt"
    src.write_text("0 1 2 3 0 0 1\n")
    box = tmp_path / "out.epc"
    assert run(["encode", "--weights", str(weights), "--input", str(src),
                "--output", str(box)]) == 0
    assert capsys.readouterr().out == (
        "explicit code on 4 symbols: 7 symbols -> 21 bytes\n")
    assert read_container(box.read_bytes()) == (
        ExplicitCode.from_lengths((1, 2, 3, 3)), [0, 1, 2, 3, 0, 0, 1])


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


def test_domain_errors_exit_one(tmp_path, capsys):
    assert run(["optimize", "--poisson", "1", "--penalty", "dth:2"]) == 1
    assert "geometric" in capsys.readouterr().err
    # two negatives would normalize to the masses (0.25, 0.75)
    negative = tmp_path / "w.txt"
    negative.write_text("-1 -3\n")
    assert run(["optimize", "--weights", str(negative)]) == 1
    assert capsys.readouterr().err == (
        "error: weights must have positive total\n")
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


# Exact stdout, pinned to the output the code gave before the code-choice
# dispatch was unified; the only intended change since is the lengths line
# of `overflow --weights`.

def _stdout(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == 0
    return capsys.readouterr().out


def test_readme_examples_exact(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _stdout(capsys, ["optimize", "--geometric", "0.8"]) == (
        "Golomb k=3\npenalty 3.6393442623\n")
    assert _stdout(capsys, ["optimize", "--poisson", "1", "--penalty",
                            "mmr"]) == (
        "lengths 2,2,2,3 +unary@3\npenalty 0.557304959111\n")
    assert _stdout(capsys, ["encode", "--golomb", "3", "--output", "demo.epc"],
                   stdin="1 3 9 2 0 5\n", monkeypatch=monkeypatch) == (
        "Golomb k=3: 6 symbols -> 18 bytes\n")
    assert (tmp_path / "demo.epc").read_bytes() == bytes.fromhex(
        "455043310101030600000000000000538cb0")
    assert _stdout(capsys, ["decode", "--input", "demo.epc"]) == (
        "1\n3\n9\n2\n0\n5\n")
    assert _stdout(capsys, ["overflow", "--geometric", "0.5",
                            "--deterministic", "3", "--buffer-size", "64"]) == (
        "Golomb k=3\ndecay rate 1.3862943611\n"
        "overflow estimate at 64 bits: 2.93874e-39\n")


@pytest.mark.parametrize("penalty, expected", [
    ("linear", "lengths 2,5,3,3,2,5,4,3\npenalty 2.68\n"),
    ("exp:1.5", "lengths 2,4,3,4,2,4,4,3\npenalty 2.81216297175\n"),
    ("dth:2", "lengths 2,5,3,3,2,5,4,3\npenalty 0.134665017857\n"),
    ("dth:100", "lengths 2,4,3,4,2,4,4,3\npenalty 0.347778797548\n"),
    ("mmr", "lengths 2,5,3,3,2,5,4,3\npenalty 0.356143810225\n"),
])
def test_optimize_weights_exact(tmp_path, capsys, penalty, expected):
    f = tmp_path / "w.txt"
    f.write_text("5 1 3 2 8 1 1 4\n")
    assert _stdout(capsys, ["optimize", "--weights", str(f),
                            "--penalty", penalty]) == expected


def test_overflow_weights_prints_lengths(tmp_path, capsys):
    # the finite code prints as a lengths line, not as its repr
    f = tmp_path / "w.txt"
    f.write_text("5 1 3 2 8 1 1 4\n")
    assert _stdout(capsys, ["overflow", "--weights", str(f), "--exponential",
                            "0.2", "--trace", "--buffer-size", "32"]) == (
        "iter 1: decay rate 0.379473342618  lengths 2,4,3,4,2,4,4,3\n"
        "lengths 2,4,3,4,2,4,4,3\n"
        "decay rate 0.379473342618\n"
        "overflow estimate at 32 bits: 5.32474e-06\n")


def test_single_weight_prints_zero_length(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("1\n")
    assert _stdout(capsys, ["optimize", "--weights", str(f)]) == (
        "lengths 0\npenalty 0\n")
    assert _stdout(capsys, ["huffman", "--weights", str(f)]) == (
        "lengths 0\nobjective 0\n")


def test_huge_poisson_mean_is_refused_fast(capsys):
    # the split would be about e * 1e300 symbols; the cap refuses it up front
    assert run(["optimize", "--poisson", "1e300"]) == 1
    assert capsys.readouterr().err == (
        "error: no split found at or below 10000\n")


def test_poisson_single_shot_base(capsys):
    # base 1/2: the tail weight past the split is summed directly, so the
    # reduced weights stay positive
    assert run(["optimize", "--poisson", "15", "--penalty", "exp:0.5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("lengths ") and out[1].startswith("penalty ")
    # at mean 1000 the head masses underflow: the build merges their logs,
    # and the printed penalty is the code's own evaluation
    for base in (0.5, 1.5):
        assert run(["optimize", "--poisson", "1000",
                    "--penalty", f"exp:{base}"]) == 0
        lengths, penalty = capsys.readouterr().out.splitlines()
        assert lengths.startswith("lengths ")
        model = Poisson(1000.0)
        value = evaluate_penalty(model, optimal_code(model, Exponential(base)),
                                 Exponential(base))
        assert penalty == "penalty %.12g" % value


def test_dth_huge_raw_weight(tmp_path, capsys):
    # 1e10**41 overflows a float; the build merges in logs instead
    f = tmp_path / "w.txt"
    f.write_text("1e10 1 2 2\n")
    assert _stdout(capsys, ["huffman", "--weights", str(f),
                            "--penalty", "dth:40"]) == (
        "lengths 1,3,3,2\nobjective 35.0497629726\n")


def test_exp_huge_base_takes_logs(tmp_path, capsys):
    # 0.1 * 1e200**3 overflows a float; the build merges in logs instead,
    # and the objective is 3 + log(0.8) / log(1e200)
    f = tmp_path / "w.txt"
    f.write_text("0.1\n" * 8)
    assert _stdout(capsys, ["huffman", "--weights", str(f),
                            "--penalty", "exp:1e200"]) == (
        "lengths 3,3,3,3,3,3,3,3\nobjective 2.99951544993\n")


def test_linear_overflowing_length_is_an_error(tmp_path, capsys):
    # the merge is fine, but the expected length is past the float range
    f = tmp_path / "w.txt"
    f.write_text("1e308 1e308\n")
    assert run(["huffman", "--weights", str(f), "--penalty", "linear"]) == 1
    assert capsys.readouterr().err == (
        "error: the expected length overflows a float\n")


def test_overflow_code_base_past_the_float_range_is_an_error(capsys):
    for ratio, gap, power in (("0.995", "18.2", "1040.46"),
                              ("0.999", "23", "5810.49")):
        assert run(["overflow", "--geometric", ratio,
                    "--deterministic", gap]) == 1
        assert capsys.readouterr().err == (
            f"error: the code's base is e**{power}, past the float range\n")


def test_overflow_one_symbol_is_refused(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("1\n")
    for arrivals in (["--exponential", "0.5"], ["--deterministic", "2"]):
        assert run(["overflow", "--weights", str(f)] + arrivals) == 1
        assert capsys.readouterr().err == (
            "error: a one-symbol source needs zero bits per symbol, so its "
            "decay rate is unbounded\n")


def _solve_lines(result):
    """The lines `epc overflow` prints for an optimize_overflow result."""
    lines = [str(result.code), "decay rate %.12g" % result.decay_rate]
    return lines + ["at stability boundary"] * result.at_boundary


def test_overflow_gamma_arrivals_match_the_library(capsys):
    assert run(["overflow", "--poisson", "2", "--gamma", "4", "1"]) == 0
    want = optimize_overflow(Poisson(2.0), GammaArrivals(4.0, 1.0))
    assert capsys.readouterr().out.splitlines() == _solve_lines(want)


def test_overflow_table_rows_match_the_library(tmp_path, capsys):
    # rows split by a comma or by spaces, around a blank line, read as the
    # samples of one TableTransform
    law = GammaArrivals(2.0, 0.5)
    rows = [(0.0, 1.0)] + [(s, law.transform(s))
                           for s in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)]
    text = "".join(f"{s!r},{v!r}\n" if i % 2 else f"  {s!r}   {v!r}\n\n"
                   for i, (s, v) in enumerate(rows))
    table = tmp_path / "t.txt"
    table.write_text(text)
    assert run(["overflow", "--geometric", "0.5", "--table", str(table)]) == 0
    want = optimize_overflow(Geometric(0.5), TableTransform(tuple(rows)))
    assert capsys.readouterr().out.splitlines() == _solve_lines(want)


def _one_error(capsys, argv, *words):
    """argv ends in exit status 1, nothing on stdout, and one `error:` line
    on stderr holding every word."""
    assert run(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1, captured
    assert err[0].startswith("error: ") and all(w in err[0] for w in words)


def test_table_rows_need_two_numbers(tmp_path, capsys):
    table = tmp_path / "t.txt"
    for bad, line in (("0 1\n\n0.5\n", 3), ("0,1\n1 0.5 7\n", 2)):
        table.write_text(bad)
        _one_error(capsys, ["overflow", "--geometric", "0.5",
                            "--table", str(table)], f"line {line}")


def test_buffer_size_must_be_finite_and_nonnegative(capsys):
    for bad in ("-1e300", "nan", "inf", "-1"):
        _one_error(capsys, ["overflow", "--geometric", "0.5",
                            "--deterministic", "3", f"--buffer-size={bad}"],
                   "buffer size")


def test_non_finite_intermission_is_refused(capsys):
    for source, law in ((["--geometric", "0.5"], ["--exponential", "nan"]),
                        (["--geometric", "0.5"], ["--deterministic", "nan"]),
                        (["--poisson", "3"], ["--gamma", "nan", "1"])):
        _one_error(capsys, ["overflow", *source, *law], "must be finite")


def test_integer_past_the_float_range_is_refused_by_name(capsys):
    # 10**400 has no float; math.isfinite raises OverflowError on it
    _one_error(capsys, ["sweep", "--figure", "5", "--orders",
                        "1" + "0" * 400], "order must be finite")


def test_weights_whose_sum_overflows_are_scaled(tmp_path, capsys):
    # 1e308 + 1e308 overflows a float, so the weights are first divided by
    # the largest; they then normalize to (0.5, 0.5)
    weights = tmp_path / "huge.txt"
    weights.write_text("1e308 1e308\n")
    assert _stdout(capsys, ["optimize", "--weights", str(weights)]) == (
        "lengths 1,1\npenalty 1\n")
    src, box = tmp_path / "in.txt", tmp_path / "out.epc"
    src.write_text("0 1 1 0\n")
    assert run(["encode", "--weights", str(weights), "--input", str(src),
                "--output", str(box)]) == 0
    assert read_container(box.read_bytes()) == (
        ExplicitCode.from_lengths((1, 1)), [0, 1, 1, 0])
    capsys.readouterr()
    want = optimize_overflow(ExplicitFinite((0.5, 0.5)),
                             ExponentialArrivals(0.5))
    assert _stdout(capsys, ["overflow", "--weights", str(weights),
                            "--exponential", "0.5"]).splitlines() == (
        _solve_lines(want))


def test_sweep_grid_options_match_the_library(capsys):
    cases = [
        (["--figure", "2", "--bases", "0.75,1.5", "--ratio-start", "0.1",
          "--ratio-stop", "0.5", "--ratio-step", "0.05"],
         dict(figure=2, bases=(0.75, 1.5), ratio_start=0.1, ratio_stop=0.5,
              ratio_step=0.05), 1 + 2 * 9),
        (["--figure", "4", "--base-start", "1", "--base-stop", "2",
          "--base-step", "0.25"],
         dict(figure=4, base_start=1.0, base_stop=2.0, base_step=0.25), 1 + 5),
        (["--figure", "5", "--orders", "1,3", "--ratio-start", "0.6",
          "--ratio-stop", "0.7", "--ratio-step", "0.02"],
         dict(figure=5, orders=(1, 3), ratio_start=0.6, ratio_stop=0.7,
              ratio_step=0.02), 1 + 3 * 6),
    ]
    for argv, spec, rows in cases:
        assert run(["sweep", *argv]) == 0
        out = capsys.readouterr().out
        assert out == sweep(SweepSpec(**spec))
        assert len(out.splitlines()) == rows


def test_sweep_refuses_a_bad_grid(capsys):
    for grid in (["--ratio-step", "0"], ["--ratio-step", "-0.01"],
                 ["--ratio-start", "0.9", "--ratio-stop", "0.1"],
                 ["--ratio-step", "4.5e-7"]):
        _one_error(capsys, ["sweep", "--figure", "2", *grid], "ratio")
