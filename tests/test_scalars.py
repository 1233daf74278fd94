import random
from fractions import Fraction
from math import gcd

import pytest

from monowit.scalars import (
    QuadScalar,
    RatFun1,
    RatFun2,
    SQRT2,
    coerce_quad,
    eval_at_v0,
    is_rational_constant,
    quad_floor_ratio,
    quad_sign,
    u_adic_valuation,
    upoly,
    v_adic_valuation,
)

# Interval oracle for signs in Q(sqrt 2): continued-fraction convergents of
# sqrt 2, tight enough to decide every value built from denominators <= 100.
SQRT2_LO = Fraction(275807, 195025)
SQRT2_HI = Fraction(665857, 470832)


def oracle_sign(x: QuadScalar) -> int:
    assert SQRT2_LO ** 2 < 2 < SQRT2_HI ** 2
    if x.rat == 0 and x.irr == 0:
        return 0
    ends = sorted([x.rat + x.irr * SQRT2_LO, x.rat + x.irr * SQRT2_HI])
    if ends[0] > 0:
        return 1
    if ends[1] < 0:
        return -1
    raise AssertionError("oracle interval too wide for this input")


def rand_quad(rng, span=20, den=9):
    return QuadScalar(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def test_quad_sign_examples():
    assert quad_sign(QuadScalar(3, -2)) == 1
    assert quad_sign(QuadScalar(1, -1)) == -1
    assert quad_sign(QuadScalar(0, 0)) == 0
    assert quad_sign(QuadScalar(-3, 2)) == -1
    assert quad_sign(SQRT2) == 1


def test_quad_sign_against_interval_oracle():
    rng = random.Random(101)
    for _ in range(500):
        x = rand_quad(rng, span=100, den=100)
        assert quad_sign(x) == oracle_sign(x)


def test_quad_field_axioms():
    rng = random.Random(102)
    for _ in range(200):
        a, b, c = (rand_quad(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == QuadScalar(0)
        if a:
            assert a * a.inverse() == QuadScalar(1)
        assert a * b == b * a


def test_quad_order_is_total_and_compatible():
    rng = random.Random(103)
    for _ in range(200):
        a, b, c = (rand_quad(rng) for _ in range(3))
        assert (a < b) + (a == b) + (a > b) == 1
        if a < b:
            assert a + c < b + c


def test_quad_floor():
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2
    assert QuadScalar(Fraction(7, 2)).floor() == 3
    assert QuadScalar(-3).floor() == -3
    rng = random.Random(104)
    for _ in range(300):
        x = rand_quad(rng, span=40, den=7)
        n = x.floor()
        assert quad_sign(x - n) >= 0
        assert quad_sign(x - (n + 1)) < 0


def test_quad_floor_ratio_examples():
    one = QuadScalar(1)
    assert quad_floor_ratio(SQRT2, one, "floor") == 1
    assert quad_floor_ratio(SQRT2, one, "ceil") == 2
    assert quad_floor_ratio(QuadScalar(Fraction(3, 2)), QuadScalar(Fraction(1, 2)), "floor") == 3
    assert quad_floor_ratio(QuadScalar(Fraction(3, 2)), QuadScalar(Fraction(1, 2)), "ceil") == 3
    assert quad_floor_ratio(QuadScalar(0), SQRT2, "ceil") == 0


def test_quad_floor_ratio_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quad_floor_ratio(QuadScalar(1), QuadScalar(0), "floor")
    with pytest.raises(ValueError):
        quad_floor_ratio(QuadScalar(1), QuadScalar(-1), "floor")
    with pytest.raises(ValueError):
        quad_floor_ratio(QuadScalar(-1), QuadScalar(1), "floor")


def test_quad_str_roundtrip_forms():
    assert str(QuadScalar(Fraction(3, 2))) == "3/2"
    assert str(QuadScalar(0, 1)) == "0+1 s2"
    assert str(QuadScalar(2, Fraction(-1, 2))) == "2-1/2 s2"


def u():
    return RatFun1.var()


def test_ratfun1_reduction():
    f = (u() ** 2 - 1) / (u() - 1)
    assert f == u() + 1
    assert is_rational_constant(f) is None
    g = (u() + 2) / (u() + 2)
    assert is_rational_constant(g) == Fraction(1)
    assert is_rational_constant(RatFun1.const(Fraction(-7, 3))) == Fraction(-7, 3)
    assert is_rational_constant(RatFun1(())) == Fraction(0)


def test_ratfun1_den_monic():
    f = RatFun1(upoly([1]), upoly([0, 2]))  # 1/(2u)
    assert f.den == upoly([0, 1])
    assert f.num == upoly([Fraction(1, 2)])


def rand_upoly(rng, deg=2, span=4):
    return upoly([Fraction(rng.randint(-span, span), rng.randint(1, 3))
                  for _ in range(rng.randint(0, deg + 1))])


def rand_ratfun1(rng):
    num = rand_upoly(rng)
    den = ()
    while not den:
        den = rand_upoly(rng)
    return RatFun1(num, den)


def test_ratfun1_field_axioms():
    rng = random.Random(105)
    for _ in range(150):
        a, b, c = (rand_ratfun1(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFun1(())
        if a:
            assert (a * a.inverse()).is_one()


def test_u_adic_valuation():
    assert u_adic_valuation(u() ** 3) == 3
    assert u_adic_valuation(RatFun1.const(5)) == 0
    assert u_adic_valuation(1 / u()) == -1
    assert u_adic_valuation((u() ** 2 + u() ** 3) / u()) == 1
    with pytest.raises(ValueError):
        u_adic_valuation(RatFun1(()))


def U():
    return RatFun2.var_u()


def V():
    return RatFun2.var_v()


def test_ratfun2_reduction_canonical():
    f = (U() ** 2 - V() ** 2) / (U() - V())
    assert f == U() + V()
    # den leading coefficient normalized to 1 under the term order
    g = RatFun2({(0, 0): Fraction(1)}, {(1, 0): Fraction(2), (0, 0): Fraction(2)})
    assert g.den[(1, 0)] == 1


def rand_bivar(rng, span=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(
            rng.randint(-span, span))
    return {k: c for k, c in terms.items() if c}


def rand_ratfun2(rng):
    num = rand_bivar(rng)
    den = {}
    while not den:
        den = rand_bivar(rng)
    return RatFun2(num, den)


def test_ratfun2_field_axioms():
    rng = random.Random(106)
    for _ in range(120):
        a, b, c = (rand_ratfun2(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RatFun2({})
        if a:
            assert (a * a.inverse()).is_one()
        if b:
            assert (a / b) * b == a


def test_ratfun2_pow():
    rng = random.Random(107)
    for _ in range(40):
        a = rand_ratfun2(rng)
        if not a:
            continue
        assert a ** 3 == a * a * a
        assert a ** -2 == (a.inverse()) * (a.inverse())
    assert rand_ratfun2(rng) ** 0 == RatFun2.const(1)


def test_v_adic_valuation_examples():
    a = (V() ** 2 * U()) / (U() + V())
    assert v_adic_valuation(a) == 2
    assert v_adic_valuation(1 / V()) == -1
    assert v_adic_valuation(U()) == 0
    with pytest.raises(ValueError):
        v_adic_valuation(RatFun2({}))


def test_v_adic_valuation_additive():
    rng = random.Random(108)
    for _ in range(80):
        a, b = rand_ratfun2(rng), rand_ratfun2(rng)
        if not a or not b:
            continue
        assert v_adic_valuation(a * b) == v_adic_valuation(a) + v_adic_valuation(b)


def test_eval_at_v0():
    f = (U() + V()) / U()
    assert eval_at_v0(f).is_one()
    g = (V() ** 2 + U() ** 3) / (1 + V())
    assert eval_at_v0(g) == RatFun1.var() ** 3
    assert eval_at_v0(RatFun2({})) == RatFun1(())
    with pytest.raises(ValueError):
        eval_at_v0(1 / V())


def test_eval_at_v0_is_homomorphism_where_defined():
    rng = random.Random(109)
    for _ in range(80):
        a, b = rand_ratfun2(rng), rand_ratfun2(rng)
        try:
            ea, eb = eval_at_v0(a), eval_at_v0(b)
        except ValueError:
            continue
        try:
            es = eval_at_v0(a + b)
            ep = eval_at_v0(a * b)
        except ValueError:
            continue
        assert es == ea + eb
        assert ep == ea * eb


# ---------------------------------------------------------------------------
# the integer triple (p + q*sqrt(2))/d behind QuadScalar


def assert_normalized(x: QuadScalar):
    assert type(x.p) is int and type(x.q) is int and type(x.d) is int
    assert x.d > 0
    assert gcd(x.p, x.q, x.d) == 1
    assert hash(x) == hash((x.p, x.q, x.d))
    assert x.rat == Fraction(x.p, x.d) and x.irr == Fraction(x.q, x.d)


def sqrt2_convergents(count):
    """(p, q) with p^2 - 2 q^2 = +-1: p/q approaches sqrt 2 from both sides."""
    p, q, out = 1, 1, []
    for _ in range(count):
        out.append((p, q))
        p, q = p + 2 * q, p + q
    return out


def hard_quads():
    """Values whose sign needs far more than the interval oracle's precision:
    convergent pairs p - q sqrt2 of size up to about 1e12, their scalings, and
    differences of near-equal large values."""
    out = [QuadScalar(665857, -470832), QuadScalar(-665857, 470832),
           QuadScalar(275807, -195025), QuadScalar(Fraction(665857, 3), -156944)]
    for p, q in sqrt2_convergents(32)[8:]:
        out.append(QuadScalar(p, -q))
        out.append(QuadScalar(-2 * q, p) * Fraction(1, 7))
        big, small = QuadScalar(Fraction(p, 5)), QuadScalar(0, Fraction(q, 5))
        out.append(big - small)
        out.append((big + QuadScalar(Fraction(1, 10 ** 30))) - small)
    return out


def sympy_value(x: QuadScalar):
    sp = pytest.importorskip("sympy")
    return (sp.Rational(x.rat.numerator, x.rat.denominator)
            + sp.Rational(x.irr.numerator, x.irr.denominator) * sp.sqrt(2))


def test_quad_sign_and_floor_against_sympy():
    sp = pytest.importorskip("sympy")
    rng = random.Random(111)
    values = hard_quads() + [rand_quad(rng, span=10 ** 6, den=10 ** 4) for _ in range(60)]
    for x in values:
        exact = sympy_value(x)
        assert x.sign() == quad_sign(x) == int(sp.sign(exact)), x
        assert x.floor() == int(sp.floor(exact)), x


def test_quad_order_against_sympy():
    sp = pytest.importorskip("sympy")
    hard = hard_quads()
    rng = random.Random(112)
    pairs = list(zip(hard, hard[1:])) + [(x, -x) for x in hard]
    # near-equal operands: x against x plus or minus one convergent gap
    pairs += [(x, x + y) for x, y in zip(hard, reversed(hard))]
    pairs += [(rng.choice(hard), rand_quad(rng)) for _ in range(40)]
    for a, b in pairs:
        s = int(sp.sign(sympy_value(a) - sympy_value(b)))
        assert (a < b, a <= b, a > b, a >= b, a == b) == (s < 0, s <= 0, s > 0, s >= 0, s == 0)


def test_quad_floor_ratio_against_sympy():
    sp = pytest.importorskip("sympy")
    positive = [x if x.sign() > 0 else -x for x in hard_quads()]
    positive += [QuadScalar(p) for p, _ in sqrt2_convergents(30)[10:]]
    positive += [QuadScalar(0, q) for _, q in sqrt2_convergents(30)[10:]]
    rng = random.Random(113)
    for _ in range(150):
        alpha, beta = rng.choice(positive), rng.choice(positive)
        assert sympy_value(alpha) > 0 and sympy_value(beta) > 0
        # radsimp rewrites the quotient as r + s sqrt2: sympy's floor of the
        # raw quotient misreads near-integers such as 8119 + 5741 sqrt2
        ratio = sp.radsimp(sympy_value(alpha) / sympy_value(beta))
        assert quad_floor_ratio(alpha, beta, "floor") == int(sp.floor(ratio))
        assert quad_floor_ratio(alpha, beta, "ceil") == int(sp.ceiling(ratio))
    p, q = sqrt2_convergents(30)[-1]
    assert quad_floor_ratio(QuadScalar(p), QuadScalar(0, q), "floor") == \
        int(sp.floor(sp.radsimp(sp.Integer(p) / (q * sp.sqrt(2)))))


def test_quad_results_stay_normalized():
    rng = random.Random(114)
    values = hard_quads()[:12] + [rand_quad(rng) for _ in range(40)]
    values += [QuadScalar(Fraction(2, 4), Fraction(6, 8)), QuadScalar(True),
               coerce_quad(True), coerce_quad(False), coerce_quad(Fraction(-9, 6)),
               QuadScalar(0), QuadScalar(-3, 0), QuadScalar(0, Fraction(-4, 6))]
    for x in values:
        assert_normalized(x)
    for _ in range(300):
        a, b = rng.choice(values), rng.choice(values)
        results = [a + b, a - b, a * b, -a, a + 1, 1 - a, a * Fraction(3, 4), a ** 3]
        if b:
            results += [a / b, b.inverse(), b ** -2, 2 / b]
        for r in results:
            assert_normalized(r)


def test_quad_rat_irr_are_views_and_slots_are_read_only():
    x = QuadScalar(Fraction(2, 4), Fraction(6, 8))
    assert (x.p, x.q, x.d) == (2, 3, 4)
    assert x.rat == Fraction(1, 2) and x.irr == Fraction(3, 4)
    assert x == QuadScalar(Fraction(1, 2), Fraction(3, 4))
    for name in ("p", "q", "d", "rat", "irr"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert repr(x) == "QuadScalar(Fraction(1, 2), Fraction(3, 4))"


def test_quad_equality_and_hash_do_not_depend_on_the_path():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fracs = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 60))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(fracs, fracs, fracs, fracs)
    def check(a, b, c, e):
        x, y = QuadScalar(a, b), QuadScalar(c, e)
        paths = [QuadScalar(a) + QuadScalar(0, b), QuadScalar(a) + SQRT2 * b,
                 (x + y) - y, -(-x), x * 1, coerce_quad(a) + b * SQRT2]
        if y:
            paths += [(x * y) / y, x / y * y]
        if x:
            paths += [x.inverse().inverse(), 1 / (1 / x)]
        for z in paths:
            assert_normalized(z)
            assert z == x and hash(z) == hash(x)
            assert (z.p, z.q, z.d) == (x.p, x.q, x.d)
        same = (x.rat, x.irr) == (y.rat, y.irr)
        assert (x == y) == same == (y == x)
        if same:
            assert hash(x) == hash(y)
        assert ((x - y) == 0) == same

    check()
