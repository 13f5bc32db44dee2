"""Command-line surface: generate states, certify CM files, sweep
parameters and run oracle comparisons.

Exit codes are stable API: 0 success, 1 usage or I/O error, 2 physically
invalid input, 3 oracle disagreement. Reports are emitted as JSON with
numbers formatted to 17 significant digits in a fixed field order, so a
given input, flag set and seed reproduces the same bytes (the timing_ms
field is the one exception).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .covariance import CovarianceMatrix, resolve_tolerance, split_standard, standard_form_reduce_two_mode
from .criteria import WITNESS_KEYS, certify, stack_verdicts
from .optimize import (
    FUNCTIONALS,
    GridSpec,
    brute_force_min,
    min_separability_sum_numeric,
    min_steering_sum_ab_numeric,
    min_steering_sum_ba_numeric,
)
from .states import GeneratorSpec

__all__ = ["main", "render_json"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NONPHYSICAL = 2
EXIT_ORACLE_DISAGREEMENT = 3

_FLOAT_DIGITS = ".17g"


def _render_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        # JSON has no inf or nan
        return format(float(x), _FLOAT_DIGITS) if math.isfinite(x) else "null"
    return json.dumps(str(x))


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON rendering: insertion-ordered keys, floats at 17
    significant digits, and null for a non-finite float."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        rows = [f"{inner}{render_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return _render_scalar(obj)


def _report_csv(report: dict) -> str:
    head = ["input_descriptor"]
    cells = [report["input_descriptor"]]
    v = report["verdict"]
    for key, val in v.items():
        if key == "witnesses":
            continue
        head.append(key)
        cells.append("" if val is None else _render_scalar(val).strip('"'))
    for key, val in v["witnesses"].items():
        head.append(key)
        cells.append(format(float(val), _FLOAT_DIGITS))
    head.append("timing_ms")
    cells.append(format(report["timing_ms"], _FLOAT_DIGITS))
    # quotes a cell only when it holds a comma, quote or line break
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([head, cells])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI reserves 2 for
    # non-physical inputs, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvwitness", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a covariance-matrix file")
    gen.add_argument("kind", choices=GeneratorSpec.KINDS)
    gen.add_argument(
        "--n", type=int, default=None,
        help="number of modes (default 2; for thermal, the number of --nbar values)",
    )
    gen.add_argument("--r", type=float, default=0.5, help="squeezing parameter")
    gen.add_argument(
        "--nbar", type=str, default="0",
        help="mean occupation (comma list for thermal, one value per mode or one for all)",
    )
    gen.add_argument("--side", choices=("A", "B"), default="A")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default=None)

    cert = sub.add_parser("certify", help="certify a covariance-matrix file")
    cert.add_argument("path")
    cert.add_argument("--tol", type=float, default=None)
    cert.add_argument("--format", choices=("json", "csv"), default="json")
    cert.add_argument("--out", type=str, default=None)

    sweep = sub.add_parser("sweep", help="certify along a parameter range")
    sweep.add_argument("kind", choices=GeneratorSpec.KINDS)
    sweep.add_argument("--param", required=True, help="generator parameter to sweep")
    sweep.add_argument(
        "--range", required=True, dest="value_range", metavar="LO,HI,STEPS",
        help="STEPS values from LO to HI, both included; "
        "write --range=LO,HI,STEPS when LO starts with '-'",
    )
    sweep.add_argument("--n", type=int, default=2)
    sweep.add_argument("--r", type=float, default=0.5)
    sweep.add_argument("--nbar", type=float, default=0.0)
    sweep.add_argument("--side", choices=("A", "B"), default="A")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--tol", type=float, default=None)
    sweep.add_argument("--out", type=str, default=None)

    orc = sub.add_parser("oracle", help="compare minimizer, sampler and closed form")
    orc.add_argument("path")
    orc.add_argument("--functional", required=True, choices=FUNCTIONALS)
    orc.add_argument("--samples", type=int, default=GridSpec.samples)
    orc.add_argument("--oracle-tol", type=float, default=1e-3)
    orc.add_argument("--tol", type=float, default=None)
    orc.add_argument("--seed", type=int, default=0)
    orc.add_argument("--out", type=str, default=None)

    return parser


# built once per process: main() may run many times in one interpreter
_PARSER = _build_parser()


def _cmd_gen(args) -> int:
    params = {"r": args.r, "side": args.side, "seed": args.seed}
    n_modes = 2 if args.n is None else args.n
    if args.kind == "thermal":
        nbar = [float(x) for x in args.nbar.split(",")]
        if args.n is None:
            n_modes = len(nbar)
        params["nbar"] = nbar if len(nbar) > 1 else nbar[0]
    else:
        params["nbar"] = float(args.nbar)
    spec = GeneratorSpec(kind=args.kind, n_modes=n_modes, params=params)
    cm = spec.build()
    _emit(render_json(cm.to_dict()) + "\n", args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    cm = CovarianceMatrix.load(args.path)
    tol = resolve_tolerance(args.tol, "--tol")
    start = time.perf_counter()
    verdict = certify(cm, tol=tol)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    report = {
        "input_descriptor": args.path,
        "verdict": verdict.to_dict(),
        "timing_ms": elapsed_ms,
        "config": {"tol": tol},
    }
    if args.format == "csv":
        _emit(_report_csv(report), args.out)
    else:
        _emit(render_json(report) + "\n", args.out)
    return EXIT_OK if verdict.physical else EXIT_NONPHYSICAL


_SWEEP_WITNESSES = ("min_symplectic_eig_pt", "steer_sum_ab_min", "det_ratio_ab")
_SWEEP_FLAGS = ("ppt", "steerable_a_to_b", "steerable_b_to_a")
# a row's crossings cell, indexed by the bits of the flags that flipped there
_CROSSINGS = [
    ";".join(key for i, key in enumerate(_SWEEP_FLAGS) if bits >> i & 1) for bits in range(8)
]
_BOOL = ("false", "true")


def _cmd_sweep(args) -> int:
    try:
        lo_s, hi_s, steps_s = args.value_range.split(",")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError
    except ValueError:
        print(f"bad --range {args.value_range!r}, expected LO,HI,STEPS", file=sys.stderr)
        return EXIT_USAGE
    if steps < 1:
        print("--range needs at least one step", file=sys.stderr)
        return EXIT_USAGE
    tol = resolve_tolerance(args.tol, "--tol")
    params = {"r": args.r, "nbar": args.nbar, "side": args.side, "seed": args.seed}
    spec = GeneratorSpec(kind=args.kind, n_modes=args.n, params=params)
    values = np.linspace(lo, hi, steps)
    sv = stack_verdicts(spec.build_stack(args.param, values), tol=tol)

    # a non-physical row has no flags (2 here, None in a verdict), so a
    # flag crosses where physical flips or where it flips between two
    # physical rows
    flags = np.stack([sv.ppt, sv.steerable_ab, sv.steerable_ba], axis=1)
    flags = np.where(sv.physical[:, None], flags, 2)
    crossed = [0, *(flags[1:] != flags[:-1]).dot((1, 2, 4)).tolist()]
    wit = sv.witnesses[:, [WITNESS_KEYS.index(key) for key in _SWEEP_WITNESSES]]

    lines = [",".join([args.param, *_SWEEP_WITNESSES, "physical", *_SWEEP_FLAGS, "crossings"])]
    for x, ok, (pt_min, ab_min, det), (pt, ab, ba), c in zip(
        values.tolist(), sv.physical.tolist(), wit.tolist(), flags.tolist(), crossed
    ):
        if ok:
            lines.append(
                f"{x:{_FLOAT_DIGITS}},{pt_min:{_FLOAT_DIGITS}},{ab_min:{_FLOAT_DIGITS}},"
                f"{det:{_FLOAT_DIGITS}},true,{_BOOL[pt]},{_BOOL[ab]},{_BOOL[ba]},{_CROSSINGS[c]}"
            )
        else:
            lines.append(f"{x:{_FLOAT_DIGITS}},,,,false,,,,{_CROSSINGS[c]}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _standardize(cm: CovarianceMatrix, tol: float):
    """The standard form the oracle's functionals are defined on: for two
    modes, the one built from the parameters of the CM's reduction by local
    symplectics, in standard form or not; a CM of three or more modes must
    already be in it, and is split as given."""
    if cm.n_modes == 2:
        return standard_form_reduce_two_mode(cm, tol=tol)[0].to_standard_form()
    return split_standard(cm, tol=tol)


# the largest gap between the numeric minimum and the closed form that
# oracle counts as agreement
_CLOSED_FORM_TOL = 1e-6

# per functional: the certify witness that, times the factor, is its
# minimum (twice the smallest symplectic eigenvalue of the partial
# transpose, of V and of V / V_B for sep_plus, sep_minus and steer_ba, and
# 2 sqrt(det V / det V_A) for steer_ab; Simon 2000; Wiseman, Jones and
# Doherty 2007), and its numeric minimizer. The lambdas look each
# minimizer up by this module's name at call time, so a wrapper set on
# that name (as bench/tracing.py sets) sees the call.
_ORACLE_FUNCTIONALS = {
    "sep_plus": ("sep_sum_plus_min", 1.0, lambda sf: min_separability_sum_numeric(sf, "plus")),
    "sep_minus": ("sep_sum_minus_min", 1.0, lambda sf: min_separability_sum_numeric(sf, "minus")),
    "steer_ab": ("steer_sum_ab_min", 1.0, lambda sf: min_steering_sum_ab_numeric(sf)),
    "steer_ba": ("schur_min_symplectic_eig", 2.0, lambda sf: min_steering_sum_ba_numeric(sf)),
}


def _cmd_oracle(args) -> int:
    cm = CovarianceMatrix.load(args.path)
    tol = resolve_tolerance(args.tol, "--tol")
    oracle_tol = resolve_tolerance(args.oracle_tol, "--oracle-tol")
    verdict = certify(cm, tol=tol)
    if not verdict.physical:
        print(
            f"error: {args.path} is not a physical CM "
            f"(min_rs_eig {verdict.witnesses['min_rs_eig']!r})",
            file=sys.stderr,
        )
        return EXIT_NONPHYSICAL
    # local invariants, so the minima of the standard form read off cm
    key, factor, minimize = _ORACLE_FUNCTIONALS[args.functional]
    closed = factor * verdict.witnesses[key]
    sf = _standardize(cm, tol)
    numeric = minimize(sf)
    brute = brute_force_min(
        sf, args.functional, GridSpec(samples=args.samples, seed=args.seed)
    )

    gap_brute = abs(numeric.value - brute)
    ok_brute = bool(gap_brute <= oracle_tol)
    ok_closed = bool(abs(numeric.value - closed) <= _CLOSED_FORM_TOL)

    record = {
        "input_descriptor": args.path,
        "functional": args.functional,
        "numeric_min": numeric.value,
        "numeric_boundary_flag": numeric.boundary_flag,
        "brute_force_min": brute,
        "closed_form": closed,
        "numeric_vs_brute": gap_brute,
        "agreement_numeric_brute": ok_brute,
        "agreement_closed_form": ok_closed,
        "samples": args.samples,
        "config": {"tol": tol, "oracle_tol": oracle_tol},
    }
    _emit(render_json(record) + "\n", args.out)
    if not (ok_brute and ok_closed):
        return EXIT_ORACLE_DISAGREEMENT
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_oracle(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
