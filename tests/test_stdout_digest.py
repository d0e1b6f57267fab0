"""benchmarks/stdout_digest.py digests what a direct CLI run prints."""

import contextlib
import hashlib
import importlib
import io
from pathlib import Path

from loopinv import cli

ROOT = Path(__file__).resolve().parent.parent


def test_digest_matches_a_direct_run(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    stdout_digest = importlib.import_module("stdout_digest")
    assert stdout_digest.main(["--workload", "worked_examples", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # three programs in two formats, then the overall digest
    assert len(lines) == 7 and lines[-1].endswith("  overall")
    countdown = next(p for p in stdout_digest.WORKLOADS["worked_examples"]
                     if p.id == "countdown_d2")
    monkeypatch.chdir(ROOT)
    for fmt in stdout_digest.FORMATS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(cli.CliConfig(program_path=countdown.path,
                                         degree_bound=countdown.degree,
                                         output_format=fmt))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert f"{digest}  countdown_d2 seed=0 {fmt} exit={code}" in lines


# the overall digest of every workload at seed 0, measured with
# Rational = Fraction: any change to what a run prints or exits with
# changes it
PINNED_SEED0 = "129d57ab208f93a928507e74f8b3b3cbbd0dd5cac2f316109a3891a4f27768fe"


def test_every_workload_prints_the_pinned_bytes(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    stdout_digest = importlib.import_module("stdout_digest")
    assert stdout_digest.main(["--seeds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"{PINNED_SEED0}  overall"


# seeds 0-2 of the symbolic workloads: seeds 1 and 2 reach gcd_pair's
# failed anchor attempts, which seed 0 never does
PINNED_SYMBOLIC_SEEDS3 = "187b64a4ebbd57457bf585a1ba69228c843e97f33a5a01beaeeb6e9f7305633c"


def test_symbolic_workloads_print_the_pinned_bytes(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    stdout_digest = importlib.import_module("stdout_digest")
    assert stdout_digest.main(["--seeds", "3", "--workload", "table1_pinned",
                               "--workload", "symbolic_default",
                               "--workload", "worked_examples"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"{PINNED_SYMBOLIC_SEEDS3}  overall"
