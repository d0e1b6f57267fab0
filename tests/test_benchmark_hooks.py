"""The benchmark's tracer still finds every loopinv function it wraps.

loopbench/layers.py replaces pipeline functions by module attribute, so
renaming one, changing what filter_and_verify takes or returns, or
passing a stack of matrices through vanishing.rref_mod_p (whose wrapper
reads rows, cols = M.shape) breaks only traced benchmark passes unless
a test traces a run.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

from loopinv import cli

ROOT = Path(__file__).resolve().parent.parent
COUNTDOWN = str(ROOT / "programs" / "countdown.loop")
POWERSUM = str(ROOT / "programs" / "powersum.loop")
GCD_PAIR = str(ROOT / "programs" / "gcd_pair.loop")
FAMILY8 = str(ROOT / "loopbench" / "programs" / "family8.loop")


def _run(span, program, degree=2, interp_bounds=None):
    """(exit code, stdout) of a JSON run, inside span."""
    config = cli.CliConfig(program_path=program, degree_bound=degree,
                           interp_bounds=interp_bounds, output_format="json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), span:
        code = cli.run(config)
    return code, buf.getvalue()


def _traced_metrics(monkeypatch, program, **run):
    """The tracer's metrics of one traced run, after checking that the run
    prints what the untraced run prints and that every wrapper is removed."""
    monkeypatch.syspath_prepend(str(ROOT / "loopbench"))
    layers = importlib.import_module("layers")
    tracer = layers.LoopinvTracer()   # raises if a wrapped attribute is gone
    plain = _run(contextlib.nullcontext(), program, **run)
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        tracer.start_program(Path(program).stem)
        traced = _run(tracer.rec.span(layers.ROOT), program, **run)
    assert traced == plain
    assert plain[0] == 0 and json.loads(plain[1])["invariants"]
    assert tracer.unrestored() == []
    return tracer.metrics()


def test_traced_run_matches_untraced(monkeypatch):
    assert _traced_metrics(monkeypatch, COUNTDOWN)["divisibility.calls"] > 0


def test_traced_numeric_run_matches_untraced(monkeypatch):
    # the numeric pipeline reaches the walk through invgen.buchberger_moeller
    metrics = _traced_metrics(monkeypatch, POWERSUM, degree=7)
    assert metrics["vanishing.bm.calls"] > 0


def test_traced_branchy_probes_match_untraced(monkeypatch):
    # gcd_pair's probes cannot run on residues (its step tests a branch),
    # so every instantiation is an exact run through invgen.collect_samples
    assert _traced_metrics(monkeypatch, GCD_PAIR)["executor.calls"] > 1


def test_traced_pinned_table1_row_matches_untraced(monkeypatch):
    # the Table-1 k = 8 row as table1_pinned runs it: its probes read
    # black-box batches with stacked support solves
    metrics = _traced_metrics(monkeypatch, FAMILY8, degree=9,
                              interp_bounds=((0, 0), (1, 9)))
    assert metrics["ratinterp.calls"] > 0 and metrics["kernel.rref.calls"] > 0
