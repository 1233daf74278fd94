"""Kernel probes timed from outside, and the CLI exit-code contract probe.

Probe operands come from the seeded ``witness`` and ``orders`` inputs, so
they are the scalars, rational functions and monoid elements those
workloads really use. Each probe reports the median over repeats of the
time per call, with the repeat length calibrated to at least
``_MIN_REPEAT_S``.
"""

from __future__ import annotations

import itertools
import operator
import random
import statistics
import time

import workloads

_REPEATS = 7
_MIN_REPEAT_S = 0.02

# Hostile inputs from the CLI hardening plan; each should exit 2.
CONTRACT_PROBES = [
    ["witness", "--ring", "V", "--", "(" * 2000 + "v" + ")" * 2000, "v"],
    ["compare", "--matrix", "1,-1", "1,0", "0,1"],
    ["compare", "--matrix", "0,0", "1,0", "0,1"],
    ["search", "--ring", "V", "--matrix", "1,1", "--max-degree", "-1", "v", "v^(2)"],
]


def contract_violations(lib) -> int:
    """How many hostile inputs do not exit 2; an escaping exception is a
    traceback in the real command, so it counts as a violation."""
    bad = 0
    for argv in CONTRACT_PROBES:
        try:
            code = workloads.run_cli(lib, argv)[0]
        except Exception:
            code = None
        bad += code != 2
    return bad


def per_call(fn, operands) -> float:
    """Median seconds per ``fn(*args)`` over the operand list."""
    def once(loops):
        t0 = time.perf_counter()
        for _ in range(loops):
            for args in operands:
                fn(*args)
        return time.perf_counter() - t0

    loops = 1
    while (t := once(loops)) < _MIN_REPEAT_S:
        loops *= 2
    samples = [t] + [once(loops) for _ in range(_REPEATS - 1)]
    return statistics.median(samples) / (loops * len(operands))


def _pairs(items, count, rng):
    return [tuple(rng.sample(items, 2)) for _ in range(count)]


def kernel_probes(lib, seed) -> dict:
    """Per-call kernel times, keyed by metric name (value, unit)."""
    rng = random.Random(f"probes:{seed}")
    sc, rings = lib.scalars, lib.rings
    w_in = workloads.witness_inputs(lib, seed)
    o_in = workloads.orders_inputs(lib, seed)["items"]
    v_elems = [x for rd in w_in["rounds"] for x in (*rd["v"], *rd["transport"])]

    # QuadScalar operands: matrix entries and element supports
    quads = {x for m, _, _ in o_in for row in m.rows for x in row}
    quads |= {g for x in v_elems for g in (*x.num.coeffs, *x.den.coeffs)}
    quads = sorted(quads, key=str)
    qpairs = _pairs(quads, 256, rng)

    out = {
        "scalars.quad_add_ns": (per_call(operator.add, qpairs) * 1e9, "ns"),
        "scalars.quad_mul_ns": (per_call(operator.mul, qpairs) * 1e9, "ns"),
        "scalars.quad_cmp_ns": (per_call(operator.lt, qpairs) * 1e9, "ns"),
        "scalars.quad_hash_ns": (per_call(hash, [(q,) for _, q in qpairs]) * 1e9, "ns"),
    }

    # RatFun1 / RatFun2: products left unreduced, so the constructor's gcd
    # normalization has a common factor to cancel
    r1 = [c for rd in w_in["rounds"] for x in rd["r"]
          for part in (x.num, x.den) for c in part.coeffs.values()]
    cancel = [c for c in r1 if len(c.num) > 1] or [sc.RatFun1.var() + 1]
    r1_ops = [(sc.umul(x.num, y.num), sc.umul(x.den, y.num))
              for x, y in zip(r1, itertools.cycle(cancel))]
    out["scalars.ratfun1_norm_us"] = (per_call(sc.RatFun1, r1_ops) * 1e6, "us")
    r2 = [x.value for rd in w_in["rounds"] for _, a, b in rd["w"] for x in (a, b)]
    cancel2 = [c for c in r2 if len(c.num) > 1] or [sc.RatFun2.var_u() + 1]
    r2_ops = [(sc.bmul(x.num, y.num), sc.bmul(x.den, y.num))
              for x, y in zip(r2, itertools.cycle(cancel2))]
    out["scalars.ratfun2_norm_us"] = (per_call(sc.RatFun2, r2_ops) * 1e6, "us")

    # MonoidRingElem multiply at fixed term counts; exponents are the
    # input supports and their pairwise sums, coefficients the inputs'
    terms = [(g, c) for x in v_elems for part in (x.num, x.den)
             for g, c in part.coeffs.items()]
    exps = sorted({g1 + g2 for g1, _ in terms for g2, _ in terms}
                  | {g for g, _ in terms}, key=str)
    coeffs = [c for _, c in terms]
    for k in (2, 4, 8):
        elems = [rings.MonoidRingElem(rings.QQ, dict(zip(rng.sample(exps, k),
                                                          rng.sample(coeffs, k))))
                 for _ in range(32)]
        out[f"rings.monoid_mul_{k}x{k}_us"] = (
            per_call(operator.mul, _pairs(elems, 32, rng)) * 1e6, "us")

    # compare_exponents on rational and on irrational matrices
    for label, want_irr in (("rational", False), ("irrational", True)):
        triples = []
        for m, raw, _ in o_in:
            if any(b for row in raw for _, b in row) != want_irr:
                continue
            box = workloads.order_box(m.ncols)
            triples += [(m, *rng.sample(box, 2)) for _ in range(8)]
        out[f"orders.compare_{label}_us"] = (
            per_call(lib.orders.compare_exponents, triples) * 1e6, "us")
    return out
