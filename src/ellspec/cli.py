"""Command-line front end.

Exit codes: 0 success / condition passes, 1 condition fails (or no t0
found within budget), 2 usage or parse error, 3 internal invariant
violation, 141 (128 + SIGPIPE) the reader closed standard output early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import mestre
from .conditions import (
    CONDITION_NAMES,
    BudgetExhausted,
    SearchBudget,
    _certificate_doc,
    _json_text,
    certificate_to_json,
    check_condition,
    find_t0,
    replay_certificate,
)
from .curves import Point
from .factorize import factor
from .golden import run_golden_suite
from .intmath import parse_rational, rational_text
from .parsing import parse_curve, parse_point, parse_poly
from .specialize import specialize_curve, specialize_point

__all__ = ["main", "build_parser"]

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class UsageError(Exception):
    pass


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc


def _read_arg(value: str) -> str:
    """Literal string, or file contents when prefixed with '@'."""
    return _read_file(value[1:]) if value.startswith("@") else value


def _curve_arg(value: str):
    return parse_curve(_read_arg(value))


def _t0_arg(value: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        shown = value if len(value) <= 40 else f"{value[:20]}...{value[-10:]}"
        raise UsageError(f"invalid rational {shown!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellspec",
        description="Certify injectivity of specialization for elliptic "
        "curves over Q(t) with rational 2-torsion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor a polynomial in Z[t]")
    p.add_argument("poly", help="polynomial, e.g. '2*t^4-2' (or @file)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="run an injectivity criterion at t0")
    p.add_argument("--condition", choices=CONDITION_NAMES)
    p.add_argument("--curve", help="curve description (or @file)")
    p.add_argument("--t0", help="rational number, e.g. 5/2")
    p.add_argument("--replay", metavar="FILE", help="re-verify a JSON certificate")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("find-t0", help="search for a t0 passing a criterion")
    p.add_argument("--condition", required=True, choices=CONDITION_NAMES)
    p.add_argument("--curve", required=True)
    p.add_argument("--budget", type=int, default=10_000, metavar="N",
                   help="integer search bound (default 10000)")
    p.add_argument("--rat-height", type=int, default=100, metavar="H",
                   help="rational height bound after integers (default 100)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("specialize", help="evaluate a curve and point at t0")
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True, help="'O' or '(x, y)' (or @file)")
    p.add_argument("--t0", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("mestre", help="rank-2 twist family tooling")
    p.add_argument("--a", required=True, help="rational parameter a (ab != 0)")
    p.add_argument("--b", required=True, help="rational parameter b (ab != 0)")
    p.add_argument("--t0", help="specialization value for the injectivity step")
    p.add_argument("--specialized-rank", type=int,
                   help="declared rank of the specialized curve over Q (needs --t0)")
    p.add_argument("--rank-source",
                   help="provenance of the declared rank (needs --specialized-rank)")
    p.add_argument("--injectivity-source",
                   help="provenance of an externally asserted injectivity at t0 "
                   "(needs --specialized-rank)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-paper",
                       help="re-derive the built-in suite of worked examples")
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_factor(args) -> int:
    fac = factor(parse_poly(_read_arg(args.poly)))
    if args.json:
        doc = {
            "unit": fac.unit,
            "content": [[p, e] for p, e in fac.content_primes],
            "factors": [[str(g), e] for g, e in fac.poly_factors],
        }
        print(_json_text(doc))
    else:
        parts = []
        if fac.unit == -1:
            parts.append("-1")
        parts.extend(f"{p}^{e}" if e > 1 else str(p) for p, e in fac.content_primes)
        parts.extend(
            f"({g})^{e}" if e > 1 else f"({g})" for g, e in fac.poly_factors
        )
        print(" * ".join(parts) if parts else "1")
    return 0


def _cmd_check(args) -> int:
    if args.replay is not None:
        if args.condition or args.curve or args.t0:
            raise UsageError("--replay takes no other check arguments")
        matches, fresh = replay_certificate(_read_file(args.replay))
        if args.json:
            out = _certificate_doc(fresh)
            out["replay_matches"] = matches
            print(_json_text(out))
        else:
            print(f"replay: {'MATCHES' if matches else 'MISMATCH'}")
            print(fresh.summary())
        return 0 if matches and fresh.passed else 1
    if not (args.condition and args.curve and args.t0):
        raise UsageError("check needs --condition, --curve and --t0 (or --replay)")
    report = check_condition(_curve_arg(args.curve), args.condition, _t0_arg(args.t0))
    if args.json:
        print(certificate_to_json(report))
    else:
        print(report.summary())
        for note in report.notes:
            print(f"  note: {note}")
    return 0 if report.passed else 1


def _cmd_find_t0(args) -> int:
    budget = SearchBudget(int_bound=args.budget, rat_height=args.rat_height)
    try:
        report = find_t0(_curve_arg(args.curve), args.condition, budget)
    except BudgetExhausted as exc:
        print(f"no t0 found: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(certificate_to_json(report))
    else:
        print(f"t0 = {report.t0}")
        print(report.summary())
    return 0


def _cmd_specialize(args) -> int:
    curve = _curve_arg(args.curve)
    point = parse_point(_read_arg(args.point))
    t0 = _t0_arg(args.t0)
    target = specialize_curve(curve, t0)
    image = specialize_point(curve, point, t0)
    A, B, C = (rational_text(getattr(target, k), f"{k} at t0") for k in "ABC")
    if not image.is_infinity:
        image = Point(rational_text(image.x, "x at t0"), rational_text(image.y, "y at t0"))
    if args.json:
        doc = {
            "t0": str(t0),
            "curve": {"A": A, "B": B, "C": C},
            "point": "O" if image.is_infinity else [image.x, image.y],
        }
        print(_json_text(doc))
    else:
        print(f"curve at t0={t0}: A={A}, B={B}, C={C}")
        print(f"point image: {image}")
    return 0


def _cmd_mestre(args) -> int:
    if args.specialized_rank is None:
        if args.rank_source is not None or args.injectivity_source is not None:
            raise UsageError("--rank-source and --injectivity-source need --specialized-rank")
    elif args.t0 is None:
        raise UsageError("--specialized-rank needs --t0")
    a = _t0_arg(args.a)
    b = _t0_arg(args.b)
    instance = mestre.build(a, b)

    if args.specialized_rank is not None:
        conclusion = mestre.generator_certificate(
            instance,
            _t0_arg(args.t0),
            args.specialized_rank,
            "unspecified" if args.rank_source is None else args.rank_source,
            injectivity_source=args.injectivity_source,
        )
        if args.json:
            print(conclusion.to_json())
        else:
            print(f"(a, b) = ({instance.a}, {instance.b}), scale u = {instance.scale}")
            print(f"injectivity at t0={conclusion.t0}: {conclusion.injectivity_mode}")
            print(f"conclusion: {conclusion.conclusion}")
            for note in conclusion.notes:
                print(f"  note: {note}")
        ok = conclusion.injectivity_mode in ("certified", "declared")
        return 0 if ok else 1

    g = rational_text(instance.g, "g")
    report = None
    if args.t0 is not None:
        report = mestre.injectivity_report(instance, _t0_arg(args.t0))
    dP = mestre.morphism_degree(instance, instance.P)
    dQ = mestre.morphism_degree(instance, instance.Q)
    pair = mestre.pairing(instance, instance.P, instance.Q)
    if args.json:
        doc = {
            "a": instance.a,
            "b": instance.b,
            "scale": instance.scale,
            "g": g,
            "g_factorization": [[str(p), e] for p, e in factor(instance.g).poly_factors],
            "deg_P": dP,
            "deg_Q": dQ,
            "pairing_PQ": str(pair),
            "small_degree_excluded": mestre.degree_obstruction(instance.g),
        }
        if report is not None:
            doc["injectivity"] = _certificate_doc(report)
        print(_json_text(doc))
    else:
        print(f"(a, b) = ({instance.a}, {instance.b}), scale u = {instance.scale}")
        print(f"g = {g}")
        print(f"deg(P) = {dP}, deg(Q) = {dQ}, <P, Q> = {pair}")
        if report is not None:
            print(report.summary())
    if report is not None and not report.passed:
        return 1
    return 0


def _cmd_verify_paper(args) -> int:
    results = run_golden_suite()
    failed = [r for r in results if not r.passed]
    if args.json:
        doc = [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ]
        print(json.dumps(doc, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            line = f"{mark}  {r.name:<{width}}"
            if r.detail and not r.passed:
                line += f"  [{r.detail}]"
            print(line)
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


_COMMANDS = {
    "factor": _cmd_factor,
    "check": _cmd_check,
    "find-t0": _cmd_find_t0,
    "specialize": _cmd_specialize,
    "mestre": _cmd_mestre,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UsageError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
