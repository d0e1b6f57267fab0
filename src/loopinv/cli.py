"""Command-line driver: parse a loop program, run a pipeline, report.

Exit codes: 0 when at least one invariant is verified, 1 when none are
(the report then carries a structured non-existence note), 2 for input
errors (unreadable file, parse failure, bad flag combinations).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

from loopinv.executor import format_trace
from loopinv.frontend import LoopProgram, ParseError, parse_program
from loopinv.invgen import InvariantReport, invgen_numeric, invgen_symbolic
from loopinv.polyring import render

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_INPUT = 2

_FORMATS = ("text", "json")


class CliConfig:
    __slots__ = ("program_path", "degree_bound", "seed", "ignore_guard",
                 "interp_bounds", "output_format", "trace")

    def __init__(self, program_path: str, degree_bound: int, seed: int = 0,
                 ignore_guard: Optional[bool] = None,
                 interp_bounds: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None,
                 output_format: str = "text", trace: bool = False):
        if degree_bound < 1:
            raise ValueError("degree bound must be at least 1")
        if output_format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if interp_bounds is not None:
            num, den = interp_bounds
            if len(num) != len(den):
                raise ValueError("interpolation bounds must have equal length")
            if any(b < 0 for b in num + den):
                raise ValueError("interpolation bounds must be nonnegative")
        self.program_path = program_path
        self.degree_bound = degree_bound
        self.seed = seed
        self.ignore_guard = ignore_guard
        self.interp_bounds = interp_bounds
        self.output_format = output_format
        self.trace = trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopinv",
        description="Generate polynomial equation invariants for a loop "
                    "program by exact sampling and verified consecution.")
    parser.add_argument("--program", required=True, metavar="PATH",
                        help="loop program file")
    parser.add_argument("--degree", required=True, type=int, metavar="E",
                        help="candidate degree bound (>= 1)")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--ignore-guard", choices=["true", "false"],
                        default=None,
                        help="override guard handling during sampling "
                             "(default: respect in numeric mode, suspend "
                             "the while-guard in symbolic mode)")
    parser.add_argument("--interp-num-deg", metavar="LIST", default=None,
                        help="comma-separated per-param numerator degrees, "
                             "a hint: coefficients are fitted at them first "
                             "(default: detected per coefficient; also when "
                             "the hinted fit fails)")
    parser.add_argument("--interp-den-deg", metavar="LIST", default=None,
                        help="comma-separated per-param denominator degrees, "
                             "a hint: coefficients are fitted at them first "
                             "(default: detected per coefficient; also when "
                             "the hinted fit fails)")
    parser.add_argument("--format", choices=list(_FORMATS), default="text",
                        dest="output_format")
    parser.add_argument("--trace", action="store_true",
                        help="dump the samples the run used to stderr, one "
                             "state per line, coordinates tab-separated")
    return parser


def _parse_int_list(text: str, flag: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers") from None


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    if (args.interp_num_deg is None) != (args.interp_den_deg is None):
        raise ValueError("--interp-num-deg and --interp-den-deg go together")
    interp_bounds = None
    if args.interp_num_deg is not None:
        interp_bounds = (_parse_int_list(args.interp_num_deg, "--interp-num-deg"),
                         _parse_int_list(args.interp_den_deg, "--interp-den-deg"))
    ignore_guard = None
    if args.ignore_guard is not None:
        ignore_guard = args.ignore_guard == "true"
    return CliConfig(
        program_path=args.program, degree_bound=args.degree,
        seed=args.seed, ignore_guard=ignore_guard, interp_bounds=interp_bounds,
        output_format=args.output_format, trace=args.trace)


def _coeff_pq(c) -> str:
    return f"{c.numerator}/{c.denominator}"


def _poly_json(f) -> dict:
    # term list mirrors the canonical text ordering
    return {
        "text": render(f),
        "terms": [{"exponents": list(mono),
                   "coefficient": _coeff_pq(f.terms[mono])}
                  for mono in sorted(f.terms, reverse=True)],
    }


def _report_json(report, seed: int) -> str:
    invariants = [{"poly": _poly_json(poly),
                   "quotients": [render(q) for q in quotients]}
                  for poly, quotients in report.invariants]
    doc = {
        "invariants": invariants,
        "min_degree": report.min_degree,
        "degree_bound": report.degree_bound,
        "candidates": report.candidates_total,
        "rejected_stage1": report.rejected_stage1,
        "rejected_stage2": report.rejected_stage2,
        "samples": report.sample_count,
        "shortfall": report.shortfall,
        "seed": seed,
    }
    if report.nonexistence_note is not None:
        doc["nonexistence"] = report.nonexistence_note
    return json.dumps(doc, indent=2)


def _report_text(report, config: CliConfig, mode: str) -> str:
    min_deg = report.min_degree if report.min_degree is not None else "unknown"
    lines = [
        f"program: {config.program_path}",
        f"mode: {mode}",
        f"degree bound: {report.degree_bound}",
        f"minimal ideal degree: {min_deg}",
        f"samples: {report.sample_count}",
        f"candidates: {report.candidates_total}",
        f"rejected by univariate filter: {report.rejected_stage1}",
        f"rejected by exact division: {report.rejected_stage2}",
        f"seed: {config.seed}",
    ]
    if mode == "symbolic":
        lines.append(f"instantiations probed: {report.instantiations}")
    if report.stop == "loop exit":
        lines.append("warning: loop exited before the full sample target")
    elif report.stop == "revisit":
        lines.append("warning: loop revisited a state before the full sample target")
    for poly, quotients in report.invariants:
        lines.append(f"invariant: {render(poly)}")
        for i, q in enumerate(quotients, 1):
            lines.append(f"  quotient[{i}]: {render(q)}")
    if not report.invariants:
        lines.append("no invariants found")
        for key, value in report.nonexistence_note.items():
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def _dump_trace(program: LoopProgram, report: InvariantReport) -> None:
    """The samples the run used, headed in symbolic mode by the parameter
    point they were collected at."""
    if report.samples is None:
        print("trace: no successful instantiation to trace", file=sys.stderr)
        return
    point = report.reference_instantiation
    if point is not None:
        header = ", ".join(f"{u} = {v}"
                           for u, v in zip(program.params, point))
        print(f"trace instantiation: {header}", file=sys.stderr)
    print(format_trace(report.samples), file=sys.stderr)


def run(config: CliConfig) -> int:
    try:
        source = Path(config.program_path).read_text()
    except OSError as err:
        print(f"error: read: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        program = parse_program(source)
    except ParseError as err:
        print(f"error: parse: {err}", file=sys.stderr)
        return EXIT_INPUT
    mode = "symbolic" if program.params else "numeric"
    if mode == "numeric" and config.interp_bounds is not None:
        print("error: config: interpolation bounds apply to symbolic mode only",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        if mode == "numeric":
            # an unset ignore_guard respects the guard in numeric mode
            report = invgen_numeric(
                program, config.degree_bound, seed=config.seed,
                ignore_guard=bool(config.ignore_guard))
        else:
            report = invgen_symbolic(
                program, config.degree_bound, seed=config.seed,
                interp_cfg=config.interp_bounds,
                ignore_guard=config.ignore_guard)
    except ValueError as err:
        print(f"error: pipeline setup: {err}", file=sys.stderr)
        return EXIT_INPUT
    if config.trace:
        _dump_trace(program, report)
    if config.output_format == "json":
        print(_report_json(report, config.seed))
    else:
        print(_report_text(report, config, mode))
    return EXIT_FOUND if report.invariants else EXIT_NONE


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_INPUT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
