import hashlib
import json
from pathlib import Path

import pytest

from loopinv.cli import main
from loopinv.frontend import parse_program, to_transition_system
from loopinv.polyring import Polynomial, rational, render

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"
POWERSUM = str(PROGRAMS / "powersum.loop")
COUNTDOWN = str(PROGRAMS / "countdown.loop")

GOLDEN_POWERSUM = "-12*x + 2*y^6 - 6*y^5 + 5*y^4 - y^2"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _invariant_lines(text_out):
    return [line.split("invariant: ", 1)[1]
            for line in text_out.splitlines()
            if line.startswith("invariant: ")]


def test_powersum_json_report(capsys):
    code, out, _ = _run(capsys, "--program", POWERSUM, "--degree", "7",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_degree"] == 6
    assert doc["degree_bound"] == 7
    assert doc["candidates"] == 6
    assert doc["rejected_stage1"] == 0
    assert doc["rejected_stage2"] == 0
    assert doc["samples"] == 36
    assert doc["shortfall"] is False
    assert doc["seed"] == 0
    assert "nonexistence" not in doc
    [inv] = doc["invariants"]
    assert inv["poly"]["text"] == GOLDEN_POWERSUM
    assert inv["quotients"] == ["1"]


def test_json_term_list_reconstructs_text(capsys):
    code, out, _ = _run(capsys, "--program", POWERSUM, "--degree", "7",
                        "--format", "json")
    assert code == 0
    [inv] = json.loads(out)["invariants"]
    total = Polynomial.zero(("x", "y"))
    for term in inv["poly"]["terms"]:
        num, den = term["coefficient"].split("/")
        total = total.add(Polynomial.monomial(
            ("x", "y"), tuple(term["exponents"]),
            rational(int(num), int(den))))
    assert render(total) == inv["poly"]["text"]


def test_auto_mode_picks_symbolic(capsys):
    code, out, _ = _run(capsys, "--program", COUNTDOWN, "--degree", "2",
                        "--format", "json")
    assert code == 0
    [inv] = json.loads(out)["invariants"]
    assert inv["poly"]["text"] == "2*x + r^2 - r - a"
    assert inv["quotients"] == ["1"]


def _quotient_lines(text_out):
    """The text report's quotients, one list per invariant."""
    out = []
    for line in text_out.splitlines():
        if line.startswith("invariant: "):
            out.append([])
        elif line.startswith("  quotient["):
            out[-1].append(line.split("]: ", 1)[1])
    return out


def _reparse(text, variables):
    """text parsed as a polynomial over variables, rendered again."""
    names = ", ".join(variables)
    zeros = ", ".join(f"{v} := 0" for v in variables)
    program = parse_program(f"vars {names}; init {zeros}; "
                            f"loop {variables[0]} := {text}; end")
    return render(program.body[0].exprs[0])


@pytest.mark.parametrize("program,degree", [
    pytest.param(POWERSUM, "7", id="powersum-7"),
    pytest.param(COUNTDOWN, "2", id="countdown-2"),
    pytest.param(str(PROGRAMS / "gcd_pair.loop"), "2", id="gcd_pair-2"),
    # Table-1 k=2, symbolic without --interp-* hints
    pytest.param(2, "3", id="k2-3"),
])
def test_text_and_json_agree(capsys, tmp_path, program, degree):
    if program in PINNED_PROGRAMS:
        name, text = PINNED_PROGRAMS[program]
        program = str(tmp_path / name)
        Path(program).write_text(text)
    code_t, out_t, _ = _run(capsys, "--program", program, "--degree", degree)
    code_j, out_j, _ = _run(capsys, "--program", program, "--degree", degree,
                            "--format", "json")
    assert code_t == code_j == 0
    invariants = json.loads(out_j)["invariants"]
    assert _invariant_lines(out_t) == [inv["poly"]["text"] for inv in invariants]
    # every reported invariant is proved: one rendered quotient per
    # transition, over the variables and then the params
    parsed = parse_program(Path(program).read_text())
    ts = to_transition_system(parsed)
    ring = ts.V + parsed.params
    for inv in invariants:
        quotients = inv["quotients"]
        assert isinstance(quotients, list)
        assert len(quotients) == len(ts.transitions)
        assert all(_reparse(q, ring) == q for q in quotients)
    assert _quotient_lines(out_t) == [inv["quotients"] for inv in invariants]


def test_low_degree_bound_reports_nonexistence(capsys):
    code, out, _ = _run(capsys, "--program", POWERSUM, "--degree", "2",
                        "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["invariants"] == []
    note = doc["nonexistence"]
    assert note["degree_bound"] == 2
    assert note["min_vanishing_degree"] == doc["min_degree"]
    assert "no invariant of lower degree exists" in note["claim"]


def test_missing_file_is_input_error(capsys):
    code, _, err = _run(capsys, "--program", "/no/such/file.loop",
                        "--degree", "3")
    assert code == 2
    assert "read" in err


def test_parse_error_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.loop"
    bad.write_text("vars x\ninit x := 0;\n")
    code, _, err = _run(capsys, "--program", str(bad), "--degree", "3")
    assert code == 2
    assert "parse" in err


def test_flag_validation(capsys):
    for argv in (
        ["--program", POWERSUM, "--degree", "0"],
        ["--program", COUNTDOWN, "--degree", "2", "--interp-num-deg", "1"],
        ["--program", COUNTDOWN, "--degree", "2", "--interp-num-deg", "a",
         "--interp-den-deg", "1"],
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 2
        assert "config" in err


def test_interp_bounds_rejected_in_numeric_mode(capsys):
    code, _, err = _run(capsys, "--program", POWERSUM, "--degree", "3",
                        "--interp-num-deg", "0", "--interp-den-deg", "1")
    assert code == 2
    assert "symbolic mode only" in err


def test_missing_required_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_json_reports_are_byte_identical(capsys):
    runs = [_run(capsys, "--program", COUNTDOWN, "--degree", "2",
                 "--seed", "5", "--format", "json")
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_retired_flags_exit_two(capsys):
    # the unproved report path, the filter's sample-space knob and the
    # sampling step cap (10 steps per sample plus 100) are gone
    for retired in (["--unsound-stage1-only"], ["--wsize", "5"], ["--max-steps", "500"]):
        with pytest.raises(SystemExit) as exc:
            main(["--program", POWERSUM, "--degree", "7", *retired])
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _traced(capsys, *argv):
    """Exit code, JSON report and stderr lines of a --trace run."""
    code, out, err = _run(capsys, *argv, "--trace", "--format", "json")
    return code, json.loads(out), err


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_trace_numeric(capsys):
    code, doc, err = _traced(capsys, "--program", POWERSUM, "--degree", "2")
    assert code == 1
    lines = err.splitlines()
    assert lines[0] == "0\t0"
    assert lines[1] == "0\t1"
    assert lines[2] == "1\t2"
    assert len(lines) == doc["samples"]
    assert _sha256(err) == \
        "98e6030a81bed2396673ad2309b186e3a792d1af1369de2f916b671b9dc70eda"


FAMILY2 = ("vars x, y;\n"
           "params a, b;\n"
           "init x := a, y := b;\n"
           "loop\n"
           "  (x, y) := (x + y^2, y + 1);\n"
           "end\n")


def test_trace_symbolic_names_instantiation(capsys, tmp_path):
    code, doc, err = _traced(capsys, "--program", COUNTDOWN, "--degree", "2")
    assert code == 0
    lines = err.splitlines()
    assert lines[0].startswith("trace instantiation: a = ")
    assert "\t" in lines[1]
    assert len(lines) - 1 == doc["samples"]
    assert _sha256(err) == \
        "57ed005820a8e1069a16e3deeaf5f80ec15c46194e5bced8bd5c401a94cc165a"
    # gcd_pair's first probe point at seed 1 verifies nothing, so the
    # trace shows a later instantiation's samples
    code, doc, err = _traced(capsys, "--program", str(PROGRAMS / "gcd_pair.loop"),
                             "--degree", "2", "--seed", "1")
    assert code == 0
    lines = err.splitlines()
    assert lines[0] == "trace instantiation: a = 91/120, b = 431/337"
    assert len(lines) - 1 == doc["samples"]
    assert _sha256(err) == \
        "f49f705e8b628d461c3ee96218952508ca27765ba282f1fe96094f443196fb72"
    # below the invariant's degree no instantiation verifies anything
    family2 = tmp_path / "family2.loop"
    family2.write_text(FAMILY2)
    code, doc, err = _traced(capsys, "--program", str(family2), "--degree", "1")
    assert code == 1
    assert err == "trace: no successful instantiation to trace\n"
    assert doc["samples"] == 0
    assert _sha256(err) == \
        "b4c368ed35bfba11631d284a259352332ec1709b3bd8b7a3ecd26bf4cb46a692"


def test_ignore_guard_override(capsys, tmp_path):
    src = tmp_path / "guarded.loop"
    src.write_text(
        "vars x;\n"
        "init x := 5;\n"
        "guard x > 3;\n"
        "loop\n"
        "  x := x - 1;\n"
        "end\n")
    code_r, out_r, _ = _run(capsys, "--program", str(src), "--degree", "3",
                            "--format", "json")
    doc_r = json.loads(out_r)
    assert doc_r["samples"] == 3
    assert doc_r["shortfall"] is True
    _, text_r, _ = _run(capsys, "--program", str(src), "--degree", "3")
    assert "warning: loop exited before the full sample target" in text_r.splitlines()
    code_i, out_i, _ = _run(capsys, "--program", str(src), "--degree", "3",
                            "--ignore-guard", "true", "--format", "json")
    doc_i = json.loads(out_i)
    assert doc_i["samples"] == 4
    assert doc_i["shortfall"] is False


def test_cycle_reports_its_revisit(capsys, tmp_path):
    src = tmp_path / "cycle.loop"
    src.write_text("vars x;\ninit x := 1;\nloop\n  x := -x;\nend\n")
    code, out, _ = _run(capsys, "--program", str(src), "--degree", "2")
    assert code == 0
    assert "warning: loop revisited a state before the full sample target" in out.splitlines()
    assert "loop exited" not in out
    code, out, _ = _run(capsys, "--program", str(src), "--degree", "2", "--format", "json")
    doc = json.loads(out)
    assert (doc["samples"], doc["shortfall"]) == (2, True)
    # the JSON report carries shortfall, not the reason, so its bytes do not move
    assert _sha256(out) == \
        "7b47a85d224f709cb03f375691a91a3dd341674d46f9be5f4a74d796ed91709f"


FAMILY8 = ("vars x, y;\n"
           "params a, b;\n"
           "init x := a, y := b;\n"
           "loop\n"
           "  (x, y) := (x + y^8, y + 1);\n"
           "end\n")


PINNED_PROGRAMS = {
    2: ("family2.loop", FAMILY2),
    8: ("family8.loop", FAMILY8),
    12: ("family12.loop", FAMILY8.replace("y^8", "y^12")),
    "countdown": ("countdown.loop", Path(COUNTDOWN).read_text()),
    "gcd_pair": ("gcd_pair.loop", (PROGRAMS / "gcd_pair.loop").read_text()),
}


def _pinned(k, degree, bounds, seed, fmt, digest):
    # k is a Table-1 row or a worked example's name; the k=8 rows keep
    # their seed-format-digest ids
    prefix = "" if k == 8 else f"k{k}-" if isinstance(k, int) else f"{k}-"
    return pytest.param(k, degree, bounds, seed, fmt, digest,
                        id=f"{prefix}{seed}-{fmt}-{digest}")


K8_BOUNDS = ("--interp-num-deg", "0,0", "--interp-den-deg", "1,9")
K12_BOUNDS = ("--interp-num-deg", "0,0", "--interp-den-deg", "1,13")


@pytest.mark.parametrize("k, degree, bounds, seed, fmt, digest", [
    _pinned(8, 9, K8_BOUNDS, 0, "text",
            "f788453b3b0fbdcc16e0521117ccbfd5bd03a0e8133f4fbc5108e638ad055cb5"),
    _pinned(8, 9, K8_BOUNDS, 0, "json",
            "11b56651e5bb8d96ab67be43350befabe5c33aabdf2af57f7995d83555b92740"),
    _pinned(8, 9, K8_BOUNDS, 3, "text",
            "010a8815e3eb23a665e1062ca78a32d14c0fd71a6d65929715af4b5f63e7789a"),
    _pinned(8, 9, K8_BOUNDS, 3, "json",
            "b3f8509aa96f1cd7f8e3b9609c7a9f282f0b86e4b43834cbb906051f45030963"),
    # k=2 without bounds: the fit runs at the detected degrees, and the
    # text report counts the line probes that detection reads
    _pinned(2, 3, (), 0, "text",
            "c0cd879e2d88c22222638937d71e7e01b6165fa12fb56495b38b279c94aea876"),
    _pinned(2, 3, (), 0, "json",
            "abb2856e44512336c30de04b10aae3e9a037b3b169dd39c16e3ccff124f872b3"),
    _pinned(2, 3, (), 3, "text",
            "6f6cceb97469225e10d410d9f5916721de6ca527bbc507935c1a2aed40e5d9b9"),
    _pinned(2, 3, (), 3, "json",
            "55d75cad44a4c8324c382a541fa28c32d5ef7b7e8bd06fa84056de4ae651dd72"),
    _pinned(12, 13, K12_BOUNDS, 0, "text",
            "53453845c3dfd06a9b72dc7aeae0edd6b9b47dda844341008326b1fd1fd4522a"),
    _pinned(12, 13, K12_BOUNDS, 0, "json",
            "f2d67dc08b656ca656add50e006181bcfc272275e8edf6988fc6cd6119130dd0"),
    # a rational start coefficient (x := a/2) on a one-transition loop
    _pinned("countdown", 2, (), 0, "json",
            "6cf49322f77a3cfa75ee1a20e1e1112cbe06c8646eca2f891cf1dfc6e7c52f62"),
    _pinned("countdown", 2, (), 3, "json",
            "a693ef5456dd6b800cb60480cf073daa47958ad890021b4cac7dc1f14c663b6f"),
    # branchy: the probes keep exact trajectories
    _pinned("gcd_pair", 2, (), 0, "json",
            "36b9735f605646d0944fcd01c93a8aa02e7ccb84268a85ca9ea551fb2ab619ec"),
    _pinned("gcd_pair", 2, (), 3, "json",
            "22495dff600f6f512fe74c2679d7f8f75baee75a5390ae8862de5ea9183f1d17"),
])
def test_table1_k8_stdout_pinned(capsys, tmp_path, monkeypatch, k, degree, bounds,
                                 seed, fmt, digest):
    # Table-1 rows, byte for byte; the text report names the program
    # path, so the run uses a fixed relative one
    monkeypatch.chdir(tmp_path)
    name, text = PINNED_PROGRAMS[k]
    Path(name).write_text(text)
    code, out, _ = _run(capsys, "--program", name, "--degree", str(degree),
                        *bounds, "--seed", str(seed), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
