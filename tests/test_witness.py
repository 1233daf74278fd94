"""Tests for witness construction, transport and refutation search."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import monowit.witness as witness_module
from monowit.laurent import LaurentPoly, evaluate, minimal_monomials, one_like
from monowit.orders import OrderMatrix, lex_matrix
from monowit.rings import (
    FractionElem,
    EXPONENT_POOL,
    MonoidRingElem,
    NotInRing,
    QQ,
    QU,
    QuotElem,
    WElem,
    r_membership,
    random_fraction_elem,
    random_overring_pair,
    random_r_element,
    random_w_element,
)
from monowit.scalars import QuadScalar, RatFun1, RatFun2, SQRT2, quad_sign
from monowit.witness import (
    OverringElement,
    SWAP2,
    Witness,
    homogenize_witness,
    independence_search,
    monomial_images,
    overring_lex_witness,
    phi_refutation_check,
    quot_v_lex_oracle,
    r_pair_witness,
    solve_eqMA,
    transport_witness_to_lex,
    v_pair_witness,
    vdim_witness,
    verify_witness,
    w_pair_witness,
    witness_trivial,
)

HALF = Fraction(1, 2)


def vq(gamma):
    return FractionElem.v_power(QQ, gamma)


def vu(gamma):
    return FractionElem.v_power(QU, gamma)


def one_q():
    return FractionElem.const(QQ, 1)


def test_verify_witness_accepts_and_rejects():
    a, b = vq(SQRT2), vq(1)
    good = Witness(LaurentPoly({(0, 2): one_q(), (1, 0): -vq(QuadScalar(2) - SQRT2)}, 2),
                   lex_matrix(2))
    ok, reason = verify_witness(good, [a, b])
    assert ok and reason == ""
    bad_value = Witness(LaurentPoly({(0, 2): one_q(), (1, 0): -vq(1)}, 2), lex_matrix(2))
    ok, reason = verify_witness(bad_value, [a, b])
    assert not ok and "vanish" in reason
    bad_lc = Witness(LaurentPoly({(0, 2): vq(1), (1, 0): -vq(QuadScalar(2) - SQRT2) * vq(1)}, 2),
                     lex_matrix(2))
    ok, reason = verify_witness(bad_lc, [a, b])
    assert not ok and "coefficient one" in reason


def test_witness_trivial_zero_and_unit():
    zero = FractionElem(MonoidRingElem.zero(QQ))
    unit = FractionElem(MonoidRingElem.one(QQ) + MonoidRingElem.v_power(QQ, 1))
    w = witness_trivial([vq(1), zero], lex_matrix(2))
    assert w.note == "element 2 is zero"
    assert verify_witness(w, [vq(1), zero])[0]
    w2 = witness_trivial([unit, vq(1)], lex_matrix(2))
    assert w2.note == "element 1 is a unit"
    assert verify_witness(w2, [unit, vq(1)])[0]
    assert witness_trivial([vq(1), vq(2)], lex_matrix(2)) is None


def test_v_pair_witness_example():
    # val(a) = sqrt2, val(b) = 1: n = 2 and c = v^(2 - sqrt2)
    a, b = vq(SQRT2), vq(1)
    w = v_pair_witness(a, b)
    expect = LaurentPoly({(0, 2): one_q(), (1, 0): -vq(QuadScalar(2) - SQRT2)}, 2)
    assert w.poly == expect
    assert verify_witness(w, [a, b])[0]
    ws = v_pair_witness(a, b, swap=True)
    assert ws.matrix == SWAP2
    assert verify_witness(ws, [a, b])[0]


def test_v_pair_witness_random():
    rng = random.Random(41)
    for _ in range(60):
        a = random_fraction_elem(rng)
        b = random_fraction_elem(rng)
        for swap in (False, True):
            w = v_pair_witness(a, b, swap=swap)
            ok, reason = verify_witness(w, [a, b])
            assert ok, reason


def test_r_pair_witness_example():
    # val(a) = 3/2, val(b) = 1: strict power n = 2, c = v^(1/2)
    a, b = vu(Fraction(3, 2)), vu(1)
    w = r_pair_witness(a, b)
    assert w.poly == LaurentPoly({(0, 2): FractionElem.const(QU, 1), (1, 0): -vu(HALF)}, 2)
    assert verify_witness(w, [a, b])[0]
    # equal values still get a strictly positive cofactor value
    w2 = r_pair_witness(vu(1), vu(1))
    c = w2.poly.coeff((1, 0))
    assert (-c).valuation().sign() > 0
    assert verify_witness(w2, [vu(1), vu(1)])[0]


def test_r_pair_witness_unit_and_rejection():
    one = MonoidRingElem.one(QU)
    unit = FractionElem(one.scale(2) + MonoidRingElem(QU, {QuadScalar(1): RatFun1.var()}))
    w = r_pair_witness(unit, vu(1))
    assert "unit" in w.note
    assert verify_witness(w, [unit, vu(1)])[0]
    outside = FractionElem(one.scale(RatFun1.var()))
    with pytest.raises(NotInRing):
        r_pair_witness(outside, vu(1))


# r_pair_witness on (v^3, v^2) in R while r_membership accepts only the
# inputs: the cofactor check must reject the witness.
_COFACTOR_CHECK = """
import monowit.witness as W
from monowit.rings import QU, FractionElem, NotInRing
a, b = FractionElem.v_power(QU, 3), FractionElem.v_power(QU, 2)
real = W.r_membership
W.r_membership = lambda x: real(x) if x is a or x is b else None
try:
    W.r_pair_witness(a, b)
except NotInRing:
    print("raised")
"""


def test_r_pair_witness_rejects_cofactor_outside_r(monkeypatch):
    a, b = vu(3), vu(2)
    monkeypatch.setattr(witness_module, "r_membership",
                        lambda x: r_membership(x) if x is a or x is b else None)
    with pytest.raises(NotInRing):
        r_pair_witness(a, b)


def test_r_pair_witness_cofactor_check_survives_optimize():
    """python -O strips assert statements; the check must still run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _COFACTOR_CHECK],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_r_pair_witness_random_both_orders():
    rng = random.Random(43)
    for _ in range(60):
        a = random_r_element(rng)
        b = random_r_element(rng)
        for swap in (False, True):
            w = r_pair_witness(a, b, swap=swap)
            ok, reason = verify_witness(w, [a, b])
            assert ok, reason
            for coeff in w.poly.terms.values():
                assert r_membership(coeff if coeff else coeff) is not None


def test_solve_eqMA_example():
    # weight row (1, sqrt2) with value grid ((1,1),(0,1))
    e, f = solve_eqMA(QuadScalar(1), SQRT2, ((1, 1), (0, 1)))
    assert (e, f) == (4, -3)
    # the defining inequalities hold for this and for other valid pairs
    for ee, ff in [(4, -3), (6, -5)]:
        assert quad_sign(QuadScalar(1) * ee + SQRT2 * ff) <= 0
        assert (ee + ff, ff) >= (0, 0)


def test_solve_eqMA_degenerate_shapes():
    cases = [
        (QuadScalar(1), QuadScalar(1), ((0, 0), (0, 0))),
        (QuadScalar(1), QuadScalar(1), ((0, 0), (1, 2))),
        (QuadScalar(1), QuadScalar(1), ((1, 1), (0, 5))),
        (QuadScalar(2), SQRT2, ((3, 0), (0, 2))),
        (QuadScalar(1), SQRT2, ((1, 0), (0, -4))),
    ]
    for alpha, beta, A in cases:
        e, f = solve_eqMA(alpha, beta, A)
        assert (e, f) != (0, 0)
        assert quad_sign(alpha * e + beta * f) <= 0
        (i1, i2), (j1, j2) = A
        assert (i1 * e + i2 * f, j1 * e + j2 * f) >= (0, 0)


def test_solve_eqMA_random_property():
    rng = random.Random(47)
    rows = [(QuadScalar(1), QuadScalar(1)), (QuadScalar(1), SQRT2),
            (QuadScalar(2), QuadScalar(1)), (SQRT2, QuadScalar(3))]
    for _ in range(100):
        alpha, beta = rng.choice(rows)
        A = ((rng.randint(-3, 3), rng.randint(-3, 3)),
             (rng.randint(-3, 3), rng.randint(-3, 3)))
        e, f = solve_eqMA(alpha, beta, A)
        assert (e, f) != (0, 0)
        assert quad_sign(alpha * e + beta * f) <= 0
        (i1, i2), (j1, j2) = A
        assert (i1 * e + i2 * f, j1 * e + j2 * f) >= (0, 0)


def test_w_pair_witness_frozen_example():
    a = WElem(RatFun2.var_v())
    b = WElem(RatFun2.var_u() * RatFun2.var_v())
    m = OrderMatrix([[QuadScalar(1), SQRT2]])
    w = w_pair_witness(m, a, b)
    c = a ** 4 * b ** -3
    assert w.poly == LaurentPoly({(4, 0): WElem.const(1), (0, 3): -c}, 2)
    assert c.wval == (1, -3)
    ok, reason = verify_witness(w, [a, b])
    assert ok, reason


def test_w_pair_witness_tie_gives_preorder_witness():
    a = WElem(RatFun2.var_v())
    b = WElem(RatFun2.var_u() * RatFun2.var_v())
    m = OrderMatrix([[QuadScalar(1), QuadScalar(1)]])
    w = w_pair_witness(m, a, b)
    assert w.kind == "preorder"
    ok, reason = verify_witness(w, [a, b])
    assert ok, reason


def test_w_pair_witness_rejects_rational_total_order():
    a = WElem(RatFun2.var_v())
    b = WElem(RatFun2.var_v() ** 2)
    with pytest.raises(ValueError):
        w_pair_witness(lex_matrix(2), a, b)


def test_w_pair_witness_random():
    rng = random.Random(53)
    mats = [
        OrderMatrix([[QuadScalar(1), QuadScalar(1)]]),
        OrderMatrix([[QuadScalar(1), SQRT2]]),
        OrderMatrix([[QuadScalar(2), QuadScalar(1)]]),
        OrderMatrix([[1, 1], [2, 2]]),
    ]
    for _ in range(40):
        a = random_w_element(rng)
        b = random_w_element(rng)
        m = rng.choice(mats)
        w = w_pair_witness(m, a, b)
        ok, reason = verify_witness(w, [a, b])
        assert ok, reason


def test_quot_oracle_cases():
    v32 = QuotElem.from_fraction(vq(Fraction(3, 2)))
    v1 = QuotElem.from_fraction(vq(1))
    w = quot_v_lex_oracle([v32, v1])
    assert verify_witness(w, [v32, v1])[0]
    inv_val = QuotElem(MonoidRingElem.one(QQ), MonoidRingElem.v_power(QQ, 1))
    w2 = quot_v_lex_oracle([inv_val, v1])
    assert "value <= 0" in w2.note
    assert verify_witness(w2, [inv_val, v1])[0]
    zero = QuotElem(MonoidRingElem.zero(QQ), MonoidRingElem.one(QQ))
    w3 = quot_v_lex_oracle([v1, zero])
    assert verify_witness(w3, [v1, zero])[0]
    with pytest.raises(ValueError):
        quot_v_lex_oracle([v1])


def test_vdim_witness_worked_example():
    m = OrderMatrix([[1, 1], [1, 0]])
    a = [vq(1), vq(SQRT2)]
    w = vdim_witness(m, a)
    expect = LaurentPoly({(0, 1): one_q(), (1, 0): -vq(SQRT2 - QuadScalar(1))}, 2)
    assert w.poly == expect
    ok, reason = verify_witness(w, a)
    assert ok, reason


def test_vdim_witness_random_matrices():
    rng = random.Random(59)
    mats = [
        lex_matrix(2),
        OrderMatrix([[1, 1], [1, 0]]),
        OrderMatrix([[2, 1], [1, 1]]),
        OrderMatrix([[1, 1]]),
    ]
    for _ in range(30):
        m = rng.choice(mats)
        a = [random_fraction_elem(rng), random_fraction_elem(rng)]
        w = vdim_witness(m, a)
        ok, reason = verify_witness(w, a)
        assert ok, reason
        for c in w.poly.terms.values():
            assert isinstance(c, FractionElem)


def test_transport_to_lex():
    rng = random.Random(61)
    m = OrderMatrix([[1, 1], [1, 0]])
    ent = ((1, 1), (1, 0))
    for _ in range(25):
        a = [random_fraction_elem(rng), random_fraction_elem(rng)]
        b = monomial_images(a, ent)
        assert b[0] == a[0] * a[1] and b[1] == a[0]
        w = vdim_witness(m, b)
        assert verify_witness(w, b)[0]
        t = transport_witness_to_lex(w)
        ok, reason = verify_witness(t, a)
        assert ok, reason
    with pytest.raises(ValueError):
        transport_witness_to_lex(Witness(LaurentPoly({(1, 0): Fraction(1)}, 2),
                                         OrderMatrix([[1, 1]])))


def test_overring_witness_example():
    m = OrderMatrix([[1, 1], [1, 0]])
    one = MonoidRingElem.one(QQ)
    v = MonoidRingElem.v_power(QQ, 1)
    b1 = QuotElem(one + v, v)
    b2 = QuotElem(one, MonoidRingElem.v_power(QQ, HALF))
    den = vq(1)
    elems = [OverringElement(b1, den), OverringElement(b2, den)]
    w = overring_lex_witness(m, elems)
    ok, reason = verify_witness(w, [b1, b2])
    assert ok, reason
    for c in w.poly.terms.values():
        assert isinstance(c, FractionElem)


def test_overring_witness_random():
    rng = random.Random(67)
    m = OrderMatrix([[1, 1], [1, 0]])
    for _ in range(25):
        pairs = [random_overring_pair(rng) for _ in range(2)]
        parts = [v for v, _ in pairs]
        elems = [OverringElement(v, d) for v, d in pairs]
        w = overring_lex_witness(m, elems)
        ok, reason = verify_witness(w, parts)
        assert ok, reason


def test_overring_rejects_bad_matrices():
    one = MonoidRingElem.one(QQ)
    b = QuotElem(one, MonoidRingElem.v_power(QQ, 1))
    elems = [OverringElement(b, vq(1)), OverringElement(b, vq(1))]
    with pytest.raises(ValueError):
        overring_lex_witness(OrderMatrix([[1, 1]]), elems)
    with pytest.raises(ValueError):
        overring_lex_witness(OrderMatrix([[1, 1], [1, -1]]), elems)
    with pytest.raises(ValueError):
        overring_lex_witness(OrderMatrix([[1, 1], [2, 2]]), elems)


def test_homogenize_example():
    # X1 - X2^3 at (v^3, v) folds to X1 - v^2 X2 with marked monomial X1
    a = [vq(3), vq(1)]
    p = LaurentPoly({(1, 0): one_q(), (0, 3): -one_q()}, 2)
    homog, t0 = homogenize_witness(p, a)
    assert t0 == (1, 0)
    assert homog == LaurentPoly({(1, 0): one_q(), (0, 1): -vq(2)}, 2)
    assert not evaluate(homog, a)


def test_homogenize_rejects():
    with pytest.raises(ValueError):
        homogenize_witness(LaurentPoly({(1, 0): one_q()}, 2), [vq(1), one_q()])
    p = LaurentPoly({(1, 0): vq(1), (0, 1): -vq(3)}, 2)
    with pytest.raises(ValueError):
        homogenize_witness(p, [vq(1), vq(1)])


def test_homogenize_random_pairs():
    rng = random.Random(71)
    m = OrderMatrix([[1, 1]])
    for _ in range(30):
        a = [random_fraction_elem(rng, kind="maxideal"),
             random_fraction_elem(rng, kind="maxideal")]
        w = vdim_witness(m, a)
        homog, t0 = homogenize_witness(w.poly, a)
        assert not evaluate(homog, a)
        degrees = {sum(e) for e in homog.terms}
        assert len(degrees) == 1
        assert homog.coeff(t0).is_unit()


def test_independence_search_positive_control():
    v, v2 = vq(1), vq(2)
    pool = [FractionElem.const(QQ, 0), one_q(), -one_q(), vq(1), -vq(1)]
    found = independence_search([v, v2], lex_matrix(2), 1, pool)
    assert found == LaurentPoly({(0, 1): one_q(), (1, 0): -vq(1)}, 2)
    assert not evaluate(found, [v, v2])


def test_independence_search_negative_control():
    v, vs = vq(1), vq(SQRT2)
    pool = [FractionElem.const(QQ, 0), one_q(), -one_q()]
    assert independence_search([v, vs], lex_matrix(2), 1, pool) is None
    stats = {}
    assert independence_search([v, vs], lex_matrix(2), 1, pool[:1],
                               stats=stats) is None
    assert stats["nodes"] == 0


def test_independence_search_unit_mode():
    v, v2 = vq(1), vq(2)
    pool = [FractionElem.const(QQ, 0), one_q(), -one_q(), vq(1), -vq(1)]
    found = independence_search([v, v2], None, 0, pool,
                                exact_degree=1, require_unit=True)
    assert found is not None
    assert not evaluate(found, [v, v2])
    assert len({sum(e) for e in found.terms}) == 1
    assert any(c.is_unit() for c in found.terms.values())
    none = independence_search([v, vs_elem()], None, 0,
                               [FractionElem.const(QQ, 0), one_q(), -one_q()],
                               exact_degree=1, require_unit=True)
    assert none is None


def vs_elem():
    return vq(SQRT2)


def brute_force_search(elements, matrix, degrees, pool, require_unit=False):
    """The first hit of independence_search by plain enumeration: every
    assignment of pool entries to the monomials of the given degrees,
    monomials in degree-then-lex order and the pool in its given order,
    with the same acceptance test and no cuts."""
    n = len(elements)
    slots = sorted((e for e in itertools.product(range(max(degrees) + 1), repeat=n)
                    if sum(e) in degrees), key=lambda e: (sum(e), e))
    one = elements[0].one()
    products = []
    for e in slots:
        value = one
        for a, k in zip(elements, e):
            for _ in range(k):
                value = value * a
        products.append([c * value if c else None for c in pool])
    zero = one - one
    for choice in itertools.product(range(len(pool)), repeat=len(slots)):
        total = zero
        for row, j in zip(products, choice):
            if row[j] is not None:
                total = total + row[j]
        if total:
            continue
        support = {e: pool[j] for e, j in zip(slots, choice) if pool[j]}
        if not support:
            continue
        if require_unit:
            ok = any(c.is_unit() for c in support.values())
        else:
            cand = LaurentPoly(support, n)
            ok = any(cand.terms[e] == one_like(cand.terms[e])
                     for e in minimal_monomials(cand, matrix))
        if ok:
            return LaurentPoly(support, n)
    return None


def _search_differential_cases():
    """(name, path, elements, matrix, degree options, pool, has a hit).
    path names the cuts independence_search applies: "terms" for the
    support and reach cuts, "valuation" for the valuation cut of the
    multi-term kernel and of the generic search."""
    v, v2, vs = vq(1), vq(2), vq(SQRT2)
    q0, q1 = FractionElem.const(QQ, 0), one_q()
    small = [q0, q1, -q1]
    with_v = small + [v, -v]
    rv, rv2 = vu(1), vu(2)
    ruv = FractionElem(MonoidRingElem(QU, {QuadScalar(1): RatFun1.var()}))
    r1 = FractionElem.const(QU, 1)
    r_small = [FractionElem.const(QU, 0), r1, -r1]
    # v / (1 + v): a nontrivial denominator
    vd = FractionElem(MonoidRingElem(QQ, {QuadScalar(1): 1}),
                      MonoidRingElem(QQ, {QuadScalar(0): 1, QuadScalar(1): 1}))
    wv, wv2 = WElem.monomial(1, 0), WElem.monomial(2, 0)
    wuv, wu = WElem.monomial(1, 1), WElem.monomial(0, 1)
    w1 = WElem.const(1)
    w_small = [WElem.const(0), w1, -w1]
    lex2, graded = lex_matrix(2), OrderMatrix([[1, 1]])
    irr = OrderMatrix([[QuadScalar(1), SQRT2]])
    d1, d2 = {"max_degree": 1}, {"max_degree": 2}
    return [
        ("v_terms_hit_d1", "terms", [v, v2], lex2, d1, with_v, True),
        ("v_terms_hit_d2", "terms", [v, v2], graded, d2, small, True),
        ("v_terms_none_d1", "terms", [v, vs], lex2, d1, with_v, False),
        ("v_terms_zero_d1", "terms", [q0, v], lex2, d1, small, True),
        ("v_terms_none_d2", "terms", [v, vs], irr, d2, small, False),
        ("r_terms_hit_d1", "terms", [rv, rv2], lex2, d1, r_small + [rv, -rv], True),
        ("r_terms_hit_d2", "terms", [rv, rv2], graded, d2, r_small, True),
        ("r_terms_none_d1", "terms", [rv, ruv], graded, d1, r_small + [rv, -rv], False),
        ("r_terms_none_d2", "terms", [rv, ruv], graded, d2, r_small, False),
        ("v_sum_hit_d1", "valuation", [v, v + v2], lex2, d1, small + [-(q1 + v)], True),
        ("v_sum_hit_d2", "valuation", [v + v2, v], lex2, d2, small, True),
        ("v_sum_none_d1", "valuation", [v + v2, v], lex2, d1, with_v, False),
        ("v_sum_none_d2", "valuation", [v + vs, v], lex2, d2, small, False),
        ("v_sum_zero_d1", "valuation", [q0, v + v2], lex2, d1, small, True),
        ("v_den_hit_d1", "valuation", [vd, v], lex2, d1, small + [-(q1 + v)], True),
        ("v_den_hit_d2", "valuation", [vd, v], lex2, d2, small, True),
        ("v_den_none_d1", "valuation", [vd, vs], lex2, d1, with_v, False),
        ("v_den_none_d2", "valuation", [vd, vs], lex2, d2, small, False),
        ("v_den_zero_d1", "valuation", [q0, vd], lex2, d1, small, True),
        ("w_pair_hit_d1", "valuation", [wv, wuv], graded, d1, w_small + [wu, -wu], True),
        ("w_pair_hit_d2", "valuation", [wv, wv2], graded, d2, w_small, True),
        ("w_pair_none_d1", "valuation", [wv, wuv], graded, d1, w_small, False),
        ("w_pair_none_d2", "valuation", [wv, wuv], graded, d2, w_small, False),
        ("v_unit_hit_e1", "terms", [v, v2], None,
         {"exact_degree": 1, "require_unit": True}, with_v, True),
        ("v_unit_hit_e2", "terms", [v, v2], None,
         {"exact_degree": 2, "require_unit": True}, with_v, True),
        ("v_unit_none_e1", "terms", [v, vs], None,
         {"exact_degree": 1, "require_unit": True}, small, False),
        ("r_unit_none_e2", "terms", [rv, ruv], None,
         {"exact_degree": 2, "require_unit": True},
         r_small + [rv, -rv, ruv, -ruv], False),
    ]


def _run_against_brute_force(elements, matrix, options, pool):
    options = dict(options)
    degree = options.pop("exact_degree", None)
    require_unit = options.pop("require_unit", False)
    max_degree = options.pop("max_degree", 0)
    degrees = [degree] if degree is not None else list(range(max_degree + 1))
    stats = {}
    found = independence_search(elements, matrix, max_degree, pool,
                                exact_degree=degree, require_unit=require_unit,
                                stats=stats)
    expected = brute_force_search(elements, matrix, degrees, pool, require_unit)
    return found, expected, stats


@pytest.mark.parametrize("case", _search_differential_cases(), ids=lambda c: c[0])
def test_independence_search_matches_brute_force(case):
    name, path, elements, matrix, options, pool, has_hit = case
    found, expected, stats = _run_against_brute_force(elements, matrix, options, pool)
    assert (expected is not None) == has_hit, name
    assert found == expected
    if path == "terms":
        assert stats["cut_by_valuation"] == 0
    else:
        assert stats["cut_by_support"] == stats["cut_by_reach"] == 0


def test_independence_search_cuts_fire_on_every_path():
    """The differential cases test the cuts only where the cuts fire."""
    totals = {}
    for name, _, elements, matrix, options, pool, _ in _search_differential_cases():
        options = dict(options)
        stats = {}
        independence_search(elements, matrix, options.pop("max_degree", 0), pool,
                            stats=stats, **options)
        group = "_".join(name.split("_")[:2])
        for key, count in stats.items():
            totals[group, key] = totals.get((group, key), 0) + count
    for group, key in [("v_terms", "cut_by_support"), ("v_terms", "cut_by_reach"),
                       ("r_terms", "cut_by_support"), ("r_terms", "cut_by_reach"),
                       ("v_sum", "cut_by_valuation"), ("v_den", "cut_by_valuation"),
                       ("w_pair", "cut_by_valuation"), ("r_unit", "cut_by_support")]:
        assert totals[group, key] > 0, (group, key)


def test_independence_search_matches_brute_force_random():
    rng = random.Random(97)
    matrices = [lex_matrix(2), OrderMatrix([[1, 1]]),
                OrderMatrix([[QuadScalar(1), SQRT2]])]
    q0, q1 = FractionElem.const(QQ, 0), one_q()
    for _ in range(16):
        def elem():
            terms = {rng.choice(EXPONENT_POOL): rng.choice([1, -1, 2])
                     for _ in range(rng.choice([1, 1, 2]))}
            return FractionElem(MonoidRingElem(QQ, terms))
        elements = [elem(), elem()]
        pool = [q0, q1, -q1] + [s * vq(rng.choice(EXPONENT_POOL))
                                for s in rng.sample([q1, -q1], 2)]
        found, expected, _ = _run_against_brute_force(
            elements, rng.choice(matrices), {"max_degree": 1}, pool)
        assert found == expected


def test_independence_search_rejects_empty_element_list():
    with pytest.raises(ValueError, match="at least one element"):
        independence_search([], lex_matrix(1), 1, [0, 1])


def test_phi_refutation_check():
    v = vu(1)
    uv = FractionElem(MonoidRingElem(QU, {QuadScalar(1): RatFun1.var()}))
    one_u = FractionElem.const(QU, 1)
    p = LaurentPoly({(1, 0): one_u, (0, 1): -one_u}, 2)
    w, image = phi_refutation_check(p, [v, uv])
    assert w == QuadScalar(1)
    assert image == RatFun1.const(1) - RatFun1.var()
    value = evaluate(p, [v, uv])
    assert value and value.valuation() == w
    # minimal component killed by the constant-part map: value climbs
    p2 = LaurentPoly({(1, 0): vu(1), (0, 1): vu(1)}, 2)
    w2, image2 = phi_refutation_check(p2, [v, uv])
    assert w2 == QuadScalar(1)
    assert not image2
    value2 = evaluate(p2, [v, uv])
    assert value2 and value2.valuation() > w2


def test_phi_refutation_random():
    rng = random.Random(73)
    v = vu(1)
    uv = FractionElem(MonoidRingElem(QU, {QuadScalar(1): RatFun1.var()}))
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            terms[e] = random_r_element(rng)
        p = LaurentPoly(terms, 2)
        if not p:
            continue
        w, image = phi_refutation_check(p, [v, uv])
        value = evaluate(p, [v, uv])
        if image:
            assert value and value.valuation() == w
        elif value:
            assert value.valuation() > w
