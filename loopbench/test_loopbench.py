"""Self-tests for the benchmark's reference, checker and span arithmetic.

Run from the root of the repository:  python3 -m pytest -q loopbench
None of these import loopinv.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import layers
import spans
from reference import (
    COUNTDOWN, POWERSUM5, Expected, check_run, faulhaber, is_scalar_multiple,
    powersum_numeric, powersum_symbolic,
)
from workloads import WHY, WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# --- Faulhaber reference -------------------------------------------------

def test_faulhaber_matches_hand_values():
    assert faulhaber(1) == {2: F(1, 2), 1: F(-1, 2)}
    assert faulhaber(2) == {3: F(1, 3), 2: F(-1, 2), 1: F(1, 6)}
    assert faulhaber(3) == {4: F(1, 4), 3: F(-1, 2), 2: F(1, 4)}


@pytest.mark.parametrize("k", [1, 2, 3, 5, 12, 22, 25])
def test_faulhaber_matches_direct_sums(k):
    coeffs = faulhaber(k)
    for y in range(12):
        assert sum(c * y ** e for e, c in coeffs.items()) == sum(i ** k for i in range(y))


def test_readme_powersum_golden_is_faulhaber():
    assert is_scalar_multiple(POWERSUM5, powersum_numeric(5))


def test_symbolic_row_vanishes_on_trajectory():
    # x - a - (S_2(y) - S_2(b)) from (a, b) = (7/3, 5), stepping the loop
    poly = powersum_symbolic(2)
    x, y, a, b = F(7, 3), F(5), F(7, 3), F(5)
    for _ in range(6):
        value = sum(c * x ** m[0] * y ** m[1] * a ** m[2] * b ** m[3]
                    for m, c in poly.items())
        assert value == 0
        x, y = x + y ** 2, y + 1


# --- the checker ---------------------------------------------------------

def _report(poly, seed=0, min_degree=2):
    terms = [{"exponents": list(m), "coefficient": f"{c.numerator}/{c.denominator}"}
             for m, c in sorted(poly.items(), reverse=True)]
    invariants = [{"poly": {"text": "unused", "terms": terms}}] if poly else []
    return json.dumps({"invariants": invariants, "min_degree": min_degree,
                       "seed": seed})


def test_checker_accepts_scaled_invariant():
    scaled = {m: F(-7, 3) * c for m, c in COUNTDOWN.items()}
    assert check_run(Expected(0, COUNTDOWN), 0, _report(scaled), 0) is None


@pytest.mark.parametrize("change", ["coefficient", "extra term", "dropped term"])
def test_checker_rejects_perturbed_invariant(change):
    poly = dict(COUNTDOWN)
    if change == "coefficient":
        poly[(0, 1, 0)] += 1
    elif change == "extra term":
        poly[(0, 0, 2)] = F(1)
    else:
        del poly[(0, 0, 1)]
    assert check_run(Expected(0, COUNTDOWN), 0, _report(poly), 0) is not None


def test_checker_rejects_zero_coefficient_report():
    # a zero coefficient never appears in a canonical report
    poly = {m: F(0) for m in COUNTDOWN}
    reason = check_run(Expected(0, COUNTDOWN), 0, _report(poly), 0)
    assert reason is not None and "unreadable" in reason


def test_checker_rejects_wrong_exit_code_and_seed():
    report = _report(COUNTDOWN, seed=3)
    assert check_run(Expected(0, COUNTDOWN), 1, report, 3) is not None
    assert check_run(Expected(0, COUNTDOWN), 0, report, 4) is not None
    assert check_run(Expected(0, COUNTDOWN), 0, report, 3) is None


def test_checker_nonexistence_row():
    expected = Expected(1, None, min_degree=26)
    assert check_run(expected, 1, _report({}, min_degree=26), 0) is None
    assert check_run(expected, 1, _report({}, min_degree=25), 0) is not None
    assert check_run(expected, 1, _report(COUNTDOWN, min_degree=26), 0) is not None


# --- span arithmetic -----------------------------------------------------

def test_self_times_on_nested_spans():
    synthetic = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b", 8.5, 9.5, 0),       # overlaps b and sticks out of nothing
        ("late", 9.8, 11.0, 0),   # clipped at the parent's end
    ]
    selfs = spans.self_times(synthetic)
    # root: 10 - |[1,4] u [5,9.5] u [9.8,10]| = 10 - (3 + 4.5 + 0.2)
    assert selfs == pytest.approx([2.3, 2.0, 1.0, 4.0, 1.0, 1.2])
    rows = spans.per_name(synthetic)
    assert rows["b"]["calls"] == 2
    assert rows["b"]["s"] == pytest.approx(5.0)


def test_recorder_spans_and_self_times_add_up():
    ticks = iter(range(1000))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = rec.wrap("leaf", leaf, after=lambda a, k, r: rec.counts.update(["x"]))

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = rec.wrap("middle", middle)
    with rec.span("root"):
        assert wrapped_middle() == 2
    done = rec.finished()
    assert [s[0] for s in done] == ["root", "middle", "leaf", spans.TRACE_HOOKS,
                                    "leaf", spans.TRACE_HOOKS]
    assert [s[3] for s in done] == [None, 0, 1, 1, 1, 1]
    assert rec.counts["x"] == 2
    root_time = done[0][2] - done[0][1]
    assert sum(spans.self_times(done)) == pytest.approx(root_time)


# --- BENCHMARK.json agrees with the code ---------------------------------

def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert [m["name"] for m in spec["per_layer"]] == list(layers.LAYER_METRICS)
    for m in spec["per_layer"]:
        unit, better = layers.LAYER_METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better), m["name"]
    assert [m["name"] for m in spec["end_to_end"]] == ["verdict_s", "setup_s",
                                                       "peak_rss_mb"]
