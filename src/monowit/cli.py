"""Command line interface.

Every command prints one JSON document to stdout with sorted keys, so
identical inputs give identical bytes (suite timing excluded via
--strip-timing).  Exit codes: 0 success, 1 a property check failed,
2 bad usage or unparseable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .laurent import evaluate
from .orders import classify, compare_exponents, validate_matrix
from .parsing import ParseError, parse_element, parse_matrix, parse_poly
from .rings import NotInRing
from .suites import (
    SUITE_NAMES,
    render_report,
    run_suite,
    witness_json,
)
from .witness import (
    OverringElement,
    Witness,
    homogenize_witness,
    independence_search,
    overring_lex_witness,
    r_pair_witness,
    transport_witness_to_lex,
    v_pair_witness,
    vdim_witness,
    verify_witness,
    w_pair_witness,
)

_COMPARE_NAMES = {-1: "LESS", 0: "EQUAL", 1: "GREATER"}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _exponents(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ParseError(f"bad exponent vector: {text!r}") from None


def _elements(args, ring=None):
    ring = ring or args.ring
    return [parse_element(e, ring) for e in args.elements]


def cmd_compare(args) -> int:
    m = parse_matrix(args.matrix)
    if not validate_matrix(m):
        raise ValueError(f"not a valid order matrix: {m}")
    left = _exponents(args.left)
    right = _exponents(args.right)
    if len(left) != m.ncols or len(right) != m.ncols:
        raise ParseError("exponent length does not match matrix columns")
    r = compare_exponents(m, left, right)
    _emit({"command": "compare", "matrix": str(m), "left": list(left),
           "right": list(right), "result": _COMPARE_NAMES[r]})
    return 0


def cmd_classify(args) -> int:
    m = parse_matrix(args.matrix)
    if not validate_matrix(m):
        _emit({"command": "classify", "matrix": str(m), "valid": False})
        return 0
    c = classify(m)
    _emit({"command": "classify", "matrix": str(m), "valid": True,
           "rational": c.is_rational, "graded": c.is_graded,
           "total_order": c.is_total_order, "rank": c.rank})
    return 0


def _witness_result(command: str, w: Witness, elements, extra=None) -> int:
    ok, reason = verify_witness(w, elements)
    out = {"command": command, "witness": witness_json(w), "verified": ok}
    if not ok:
        out["reason"] = reason
    if extra:
        out.update(extra)
    _emit(out)
    return 0 if ok else 1


def cmd_witness(args) -> int:
    if args.ring == "W":
        if not args.matrix:
            raise ParseError("witness over W needs --matrix")
        m = parse_matrix(args.matrix)
        a, b = _elements(args)
        w = w_pair_witness(m, a, b)
    else:
        a, b = _elements(args)
        build = v_pair_witness if args.ring == "V" else r_pair_witness
        w = build(a, b, swap=args.swap)
    return _witness_result("witness", w, [a, b],
                           {"a": args.elements[0], "b": args.elements[1]})


def cmd_verify(args) -> int:
    m = parse_matrix(args.matrix)
    elements = _elements(args)
    poly = parse_poly(args.poly, args.ring, m.ncols)
    w = Witness(poly, m)
    ok, reason = verify_witness(w, elements)
    out = {"command": "verify", "ok": ok, "witness": witness_json(w)}
    if not ok:
        out["reason"] = reason
    _emit(out)
    return 0 if ok else 1


def cmd_transport(args) -> int:
    m = parse_matrix(args.matrix)
    poly = parse_poly(args.poly, args.ring, m.ncols)
    t = transport_witness_to_lex(Witness(poly, m))
    if args.elements:
        return _witness_result("transport", t, _elements(args))
    _emit({"command": "transport", "witness": witness_json(t)})
    return 0


def cmd_vdim(args) -> int:
    m = parse_matrix(args.matrix)
    elements = _elements(args, "V")
    w = vdim_witness(m, elements)
    return _witness_result("vdim", w, elements)


def cmd_overring(args) -> int:
    m = parse_matrix(args.matrix)
    den = parse_element(args.den, "V")
    values = [parse_element(e, "quot") for e in args.elements]
    wrapped = [OverringElement(v, den) for v in values]
    w = overring_lex_witness(m, wrapped)
    return _witness_result("overring", w, values, {"den": str(den)})


def cmd_homogenize(args) -> int:
    elements = _elements(args, "V")
    poly = parse_poly(args.poly, "V", len(elements))
    homog, t0 = homogenize_witness(poly, elements)
    vanishes = evaluate(homog, elements) == 0
    homogeneous = len({sum(e) for e in homog.terms}) == 1
    unit = homog.coeff(t0).is_unit()
    ok = vanishes and homogeneous and unit
    _emit({"command": "homogenize", "homogeneous": str(homog),
           "unit_monomial": list(t0), "ok": ok})
    return 0 if ok else 1


def _default_pool(elements, ring):
    one = parse_element("1", ring)
    pool = [parse_element("0", ring), one, -one]
    for e in elements:
        pool.extend([e, -e])
    return pool


def cmd_search(args) -> int:
    elements = _elements(args)
    matrix = parse_matrix(args.matrix) if args.matrix else None
    if matrix is None and not args.require_unit:
        raise ParseError("search needs --matrix unless --require-unit is set")
    if args.pool:
        pool = [parse_element(e, args.ring) for e in args.pool.split(";")]
    else:
        pool = _default_pool(elements, args.ring)
    searched = {}
    found = independence_search(elements, matrix, args.max_degree, pool,
                                exact_degree=args.exact_degree,
                                require_unit=args.require_unit,
                                stats=searched)
    _emit({"command": "search", "elements": args.elements,
           "max_degree": args.max_degree, "exact_degree": args.exact_degree,
           "require_unit": args.require_unit, "pool_size": len(pool),
           "found": None if found is None else str(found),
           "searched": searched})
    return 0


def cmd_suite(args) -> int:
    report = run_suite(args.name, args.seed, args.scale)
    sys.stdout.write(render_report(report,
                                   include_timing=not args.strip_timing))
    return 0 if report["summary"]["failed"] == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="monowit",
        description="Matrix monomial orders, valuation rings, and "
                    "dependence witnesses with exact arithmetic.")
    sub = p.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("compare", help="compare two exponent vectors")
    c.add_argument("--matrix", required=True)
    c.add_argument("left")
    c.add_argument("right")
    c.set_defaults(func=cmd_compare)

    c = sub.add_parser("classify", help="flags of an order matrix")
    c.add_argument("--matrix", required=True)
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("witness", help="dependence witness for a pair")
    c.add_argument("--ring", choices=["V", "R", "W"], required=True)
    c.add_argument("--matrix", help="required for ring W")
    c.add_argument("--swap", action="store_true",
                   help="swap the variable order (rings V and R)")
    c.add_argument("elements", nargs=2)
    c.set_defaults(func=cmd_witness)

    c = sub.add_parser("verify", help="check a witness polynomial")
    c.add_argument("--ring", choices=["Q", "V", "R", "W", "quot"],
                   default="V")
    c.add_argument("--matrix", required=True)
    c.add_argument("--poly", required=True)
    c.add_argument("elements", nargs="+")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("transport", help="carry a witness to lex")
    c.add_argument("--ring", choices=["Q", "V", "R", "W", "quot"],
                   default="V")
    c.add_argument("--matrix", required=True)
    c.add_argument("--poly", required=True)
    c.add_argument("elements", nargs="*",
                   help="optionally verify the result at these elements")
    c.set_defaults(func=cmd_transport)

    c = sub.add_parser("vdim", help="witness under a matrix order, "
                                    "elements of the valuation ring")
    c.add_argument("--matrix", required=True)
    c.add_argument("elements", nargs="+")
    c.set_defaults(func=cmd_vdim)

    c = sub.add_parser("overring", help="lex witness for quotient-field "
                                        "elements with a common denominator")
    c.add_argument("--matrix", required=True)
    c.add_argument("--den", required=True,
                   help="common denominator, an element of V")
    c.add_argument("elements", nargs="+",
                   help="quotient-field elements")
    c.set_defaults(func=cmd_overring)

    c = sub.add_parser("homogenize", help="homogenize a witness polynomial")
    c.add_argument("--poly", required=True)
    c.add_argument("elements", nargs="+")
    c.set_defaults(func=cmd_homogenize)

    c = sub.add_parser("search", help="exhaustive low-degree relation search")
    c.add_argument("--ring", choices=["V", "R"], default="V")
    c.add_argument("--matrix")
    c.add_argument("--max-degree", type=int, default=2)
    c.add_argument("--exact-degree", type=int, default=None)
    c.add_argument("--require-unit", action="store_true")
    c.add_argument("--pool", help="semicolon-separated pool elements "
                                  "(default: 0, 1, -1, and each input "
                                  "element with both signs)")
    c.add_argument("elements", nargs="+")
    c.set_defaults(func=cmd_search)

    c = sub.add_parser("suite", help="run a seeded property suite")
    c.add_argument("--name", choices=list(SUITE_NAMES), required=True)
    c.add_argument("--seed", type=int,
                   default=int(os.environ.get("MONOWIT_SEED", "0")))
    c.add_argument("--scale", type=int, default=25)
    c.add_argument("--strip-timing", action="store_true")
    c.set_defaults(func=cmd_suite)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NotInRing, ValueError, ZeroDivisionError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
