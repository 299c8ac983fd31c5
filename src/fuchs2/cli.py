"""Command-line frontend.

Subcommands:
  info <spec>                        structural report
  screen <spec>                      screener verdict (JSON)
  realize <spec> [--char C] [--method auto|search]
                                     certificate or refutation
  unitgroup <spec> [--char C] [--ideal LITS]
                                     unit group of Z_{2^m}[G] or a quotient
  verify <certificate.json>          re-verify a stored certificate
  fixtures                           re-run the explicit-ideal suite

Exit codes: 0 success/realizable, 1 not realizable, 2 unknown,
3 usage error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    CertificateError,
    Fuchs2Error,
    InternalInvariantError,
    ParseError,
    UndecidedError,
)
from .gring import M_CAP, IdealBasis, ideal_closure, quotient_ring, \
    unit_group
from .groups import build_group, structure_report
from .parsing import parse_element_literal
from .screeners import screen
from .search import (
    DEFAULT_BUDGET,
    SearchConfig,
    run_fixtures,
    search_realizing_ideal,
    verify_certificate,
)

EXIT_OK = 0
EXIT_NOT_REALIZABLE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _parse_char(text):
    """Accept '2', '4', ... or '2^m'."""
    base, caret, exp = text.partition("^")
    if caret and base.strip() != "2":
        raise ParseError(f"characteristic base must be 2, got {base!r}")
    try:
        m = int(exp if caret else text)
    except ValueError:
        raise ParseError(f"malformed characteristic {text!r}") from None
    if not caret:
        if m < 2 or m & (m - 1):
            raise ParseError(f"characteristic {m} is not a power of 2")
        m = m.bit_length() - 1
    if not 1 <= m <= M_CAP:
        raise ParseError(f"characteristic exponent {m} outside [1, {M_CAP}]")
    return m


def _emit(args, payload, text=None):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    if args.json or text is None:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_info(args):
    G = build_group(args.spec)
    report = structure_report(G)
    lines = [
        f"group {G.name or args.spec}: order {report.order}",
        f"  exponent            {report.exponent}",
        f"  nilpotency class    {report.nilpotency_class}",
        f"  center size         {len(report.center)}",
        f"  minimal generators  {report.minimal_generator_count}",
        f"  indecomposable      {report.indecomposable}",
    ]
    if G.is_abelian():
        # the trivial group has no invariant factors: it prints as C1
        inv = "x".join(f"C{d}" for d in report.abelian_invariants) or "C1"
        lines.append(f"  abelian invariants  {inv}")
    _emit(args, report.to_dict(), "\n".join(lines))
    return EXIT_OK


def cmd_screen(args):
    G = build_group(args.spec)
    verdict = screen(G)
    _emit(args, verdict.to_dict())
    return {"realizable": EXIT_OK,
            "not_realizable": EXIT_NOT_REALIZABLE,
            "unknown": EXIT_UNKNOWN}[verdict.status]


def cmd_realize(args):
    G = build_group(args.spec)
    m = _parse_char(args.char)
    auto = args.method == "auto"
    # screen runs the constructive realizer itself, in characteristic 2 only
    verdict = screen(G, realize=(auto and m == 1))
    if verdict.status == "realizable":
        _emit(args, verdict.certificate.to_dict())
        return EXIT_OK
    if verdict.status == "not_realizable" or m not in \
            verdict.allowed_characteristics:
        _emit(args, verdict.to_dict())
        return EXIT_NOT_REALIZABLE
    if auto and m == 1 and G.exponent() <= 4:
        # screen ran the construction and it was exhausted: known for the
        # class-4 groups of orders 64 and 128, which the walk of
        # --method search also exhausts without a hit
        outcome = {"result": "not_run",
                   "reason": "exponent <= 4 in characteristic 2: "
                             "run --method search to force it"}
    else:
        try:
            cert = search_realizing_ideal(G, SearchConfig(m=m,
                                                          budget=args.budget))
            outcome = {"result": "exhausted"}
        except UndecidedError:
            cert, outcome = None, {"budget": args.budget, "result": "budget"}
        if cert is not None:
            _emit(args, cert.to_dict())
            return EXIT_OK
    payload = verdict.to_dict()
    payload["search"] = outcome
    _emit(args, payload)
    return EXIT_UNKNOWN


def cmd_unitgroup(args):
    G = build_group(args.spec)
    m = _parse_char(args.char)
    if args.ideal:
        literals = [s.strip() for s in args.ideal.split(";") if s.strip()]
        basis = ideal_closure(G, m, [parse_element_literal(lit, G, m)
                                     for lit in literals])
    else:
        basis = IdealBasis.zero(G, m)
    ring = quotient_ring(basis)
    units = unit_group(ring)
    UG = units.group
    payload = {
        "ring": f"Z_{1 << m}[{G.name or args.spec}]",
        "quotient_size": ring.size,
        "unit_count": UG.n,
        "abelian": UG.is_abelian(),
    }
    if UG.is_abelian():
        payload["abelian_invariants"] = list(UG.abelian_invariants())
        # the trivial group has no invariant factors: it prints as C1
        text = (f"{payload['ring']}: {UG.n} units, invariants "
                + ("x".join(f"C{d}" for d in payload["abelian_invariants"])
                   or "C1"))
    else:
        payload["cayley_table"] = UG.mul
        text = (f"{payload['ring']}: {UG.n} units (nonabelian); "
                f"Cayley table in JSON output")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_verify(args):
    with open(args.certificate, "r", encoding="utf-8") as fh:
        doc = fh.read()
    ok = verify_certificate(doc)
    _emit(args, {"verified": ok}, "verified" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_NOT_REALIZABLE


def cmd_fixtures(args):
    results = run_fixtures(strict=False)
    payload = [r.to_dict() for r in results]
    text = "\n".join(
        f"{r.name:18s} expected {r.expected:16s} "
        f"{'ok' if r.verified else 'FAILED ' + r.detail}"
        for r in results)
    _emit(args, payload, text)
    return EXIT_OK if all(r.verified for r in results) else EXIT_INTERNAL


def make_parser():
    parser = _Parser(prog="fuchs2",
                     description="realizability of 2-groups as unit groups "
                                 "of finite rings")
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("info", help="structural report for a group")
    p.add_argument("spec")
    p.set_defaults(func=cmd_info)

    p = add("screen", help="run the non-realizability screeners")
    p.add_argument("spec")
    p.set_defaults(func=cmd_screen)

    p = add("realize", help="find a realization certificate")
    p.add_argument("spec")
    p.add_argument("--char", default="2", help="2, 4, ... or 2^m")
    p.add_argument("--method", choices=["auto", "search"], default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--output", help="also write the JSON document here")
    p.set_defaults(func=cmd_realize)

    p = add("unitgroup", help="unit group of Z_{2^m}[G] or a "
                              "quotient by --ideal")
    p.add_argument("spec")
    p.add_argument("--char", default="2")
    p.add_argument("--ideal", help="semicolon-separated element literals")
    p.add_argument("--output")
    p.set_defaults(func=cmd_unitgroup)

    p = add("verify", help="re-verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = add("fixtures", help="re-run the explicit-ideal suite")
    p.add_argument("--output")
    p.set_defaults(func=cmd_fixtures)
    return parser


def dispatch(argv) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParseError, CertificateError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Fuchs2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
