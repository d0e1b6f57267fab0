"""The benchmark's tracer still finds every loopinv function it wraps.

loopbench/layers.py replaces pipeline functions by module attribute, so
renaming one, or changing what filter_and_verify takes or returns,
breaks only traced benchmark passes unless a test traces a run.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

from loopinv import cli

ROOT = Path(__file__).resolve().parent.parent
COUNTDOWN = str(ROOT / "programs" / "countdown.loop")


def _run(span):
    """(exit code, stdout) of a JSON run on countdown at degree 2, inside span."""
    config = cli.CliConfig(program_path=COUNTDOWN, degree_bound=2,
                           output_format="json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), span:
        code = cli.run(config)
    return code, buf.getvalue()


def test_traced_run_matches_untraced(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "loopbench"))
    layers = importlib.import_module("layers")
    tracer = layers.LoopinvTracer()   # raises if a wrapped attribute is gone
    plain = _run(contextlib.nullcontext())
    with contextlib.ExitStack() as stack:
        tracer.install(stack)
        tracer.start_program("countdown")
        traced = _run(tracer.rec.span(layers.ROOT))
    assert traced == plain
    assert plain[0] == 0 and json.loads(plain[1])["invariants"]
    assert tracer.metrics()["divisibility.calls"] > 0
    assert tracer.unrestored() == []
