"""Round-trip and rejection tests for the text layer."""

import random
from fractions import Fraction

import pytest

from monowit.laurent import LaurentPoly
from monowit.orders import OrderMatrix, lex_matrix
from monowit.parsing import (
    MAX_NESTING,
    ParseError,
    parse_element,
    parse_matrix,
    parse_poly,
    parse_quad,
)
from monowit.rings import (
    QQ,
    FractionElem,
    NotInRing,
    QuotElem,
    WElem,
    random_fraction_elem,
    random_quot_elem,
    random_r_element,
    random_w_element,
)
from monowit.scalars import SQRT2, QuadScalar
from monowit.witness import r_pair_witness, v_pair_witness, w_pair_witness


def test_parse_quad_literals():
    assert parse_quad("3/2") == QuadScalar(Fraction(3, 2))
    assert parse_quad("-4") == QuadScalar(Fraction(-4))
    assert parse_quad("0+1 s2") == SQRT2
    assert parse_quad("2-1 s2") == QuadScalar(Fraction(2)) - SQRT2
    assert parse_quad(" 1/3 + 2/5 s2 ") == QuadScalar(
        Fraction(1, 3), Fraction(2, 5))


def test_parse_quad_rejections():
    for bad in ["", "s2", "1+1", "1+2 s3", "1/", "x", "1 + 1 s2 junk"]:
        with pytest.raises(ParseError):
            parse_quad(bad)


def test_quad_str_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        q = QuadScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        assert parse_quad(str(q)) == q


def test_parse_matrix_round_trip():
    for m in [lex_matrix(2),
              OrderMatrix([[1, 1], [1, 0]]),
              OrderMatrix([[QuadScalar(1), SQRT2], [QuadScalar(1),
                                                    QuadScalar(0)]]),
              OrderMatrix([[1, 1, 1]])]:
        assert parse_matrix(str(m)) == m
        assert str(parse_matrix(str(m))) == str(m)


def test_parse_matrix_rejections():
    with pytest.raises(ParseError):
        parse_matrix("1,2;3")
    with pytest.raises(ParseError):
        parse_matrix("")
    with pytest.raises(ParseError):
        parse_matrix("1,;2,3")


def test_element_frozen_forms():
    half = parse_element("1/2", "V")
    assert half == FractionElem.const(QQ, Fraction(1, 2))
    x = parse_element("1 - 1/2*v^(2)", "V")
    expect = (FractionElem.const(QQ, Fraction(1))
              - FractionElem.const(QQ, Fraction(1, 2))
              * FractionElem.v_power(QQ, QuadScalar(2)))
    assert x == expect
    w = parse_element("(u*v - 2)/(u + v^2)", "W")
    assert isinstance(w, WElem)
    assert w == (WElem.monomial(0, 1) * WElem.monomial(1, 0)
                 - WElem.const(Fraction(2))) / (
        WElem.monomial(0, 1) + WElem.monomial(2, 0))
    assert parse_element("u^-1", "W") == WElem.monomial(0, -1)
    assert parse_element("v^-2", "W") == WElem.monomial(-2, 0)
    q = parse_element("v^(-1/2)", "quot")
    assert isinstance(q, QuotElem)
    assert q * parse_element("v^(1/2)", "quot") == QuotElem.const(
        QQ, Fraction(1))


def test_element_membership_semantics():
    with pytest.raises(NotInRing):
        parse_element("v / v^(1/2)", "V")
    got = parse_element("v / v^(1/2)", "quot")
    assert got == parse_element("v^(1/2)", "quot")
    with pytest.raises(NotInRing):
        parse_element("v^(-1)", "V")
    assert parse_element("(1 + v) / (2 + v)", "V") is not None


def test_element_rejections():
    for bad, ring in [("u", "V"), ("u", "quot"), ("u", "Q"),
                      ("v", "Q"), ("X1", "V"), ("(1 + v", "V"),
                      ("1 +", "V"), ("*v", "V"), ("w", "V"),
                      ("v^(1+1)", "V"), ("1)", "V"), ("", "V"),
                      ("v^(1/2)", "W"), ("1/0", "V")]:
        with pytest.raises(ParseError):
            parse_element(bad, ring)
    with pytest.raises(ParseError):
        parse_element("1", "Z")


def test_nesting_limit_is_exact():
    n = MAX_NESTING
    v = parse_element("v", "V")
    assert parse_element("(" * n + "v" + ")" * n, "V") == v
    assert parse_element("-" * n + "v", "V") == v
    assert parse_element("-" * (n - 1) + "v", "V") == -v
    # sibling groups do not add up: depth is nesting, not a count of groups
    assert parse_element("+".join(["(" * n + "1" + ")" * n] * 3), "V") == \
        parse_element("3", "V")
    for bad in ["(" * (n + 1) + "v" + ")" * (n + 1), "-" * (n + 1) + "v",
                "-(" * (n // 2) + "(v" + ")" * (n // 2 + 1)]:
        with pytest.raises(ParseError, match="nesting"):
            parse_element(bad, "V")
    with pytest.raises(ParseError, match="nesting"):
        parse_poly("(" * (n + 1) + "X1" + ")" * (n + 1), "V")
    assert parse_poly("(" * n + "X1" + ")" * n, "V") == parse_poly("X1", "V")


def test_element_round_trip_v():
    rng = random.Random(23)
    for _ in range(30):
        x = random_fraction_elem(rng, QQ, "any")
        assert parse_element(str(x), "V") == x


def test_element_round_trip_r():
    rng = random.Random(29)
    for _ in range(30):
        x = random_r_element(rng, "any")
        assert parse_element(str(x), "R") == x


def test_element_round_trip_w():
    rng = random.Random(31)
    for _ in range(30):
        x = random_w_element(rng, "any")
        assert parse_element(str(x), "W") == x


def test_element_round_trip_quot():
    rng = random.Random(37)
    for _ in range(30):
        x = random_quot_elem(rng)
        assert parse_element(str(x), "quot") == x


def test_parse_poly_frozen():
    p = parse_poly("X2 + -2/3*X1^4", "Q")
    assert p == LaurentPoly({(0, 1): Fraction(1), (4, 0): Fraction(-2, 3)}, 2)
    assert parse_poly("5*X1^-2", "Q", 1) == LaurentPoly({(-2,): Fraction(5)},
                                                        1)
    assert parse_poly("0", "Q", 2) == LaurentPoly({}, 2)
    sq = parse_poly("(X1 + X2)^2", "Q")
    assert sq == LaurentPoly({(2, 0): Fraction(1), (1, 1): Fraction(2),
                              (0, 2): Fraction(1)}, 2)


def test_parse_poly_infers_nvars():
    assert parse_poly("X3 - X1", "Q").nvars == 3
    assert parse_poly("7", "Q").nvars == 1


def test_parse_poly_ring_coefficients():
    one = FractionElem.const(QQ, Fraction(1))
    fe = one + FractionElem.v_power(QQ, QuadScalar(1))
    original = LaurentPoly({(1, 2): fe, (0, 0): one}, 2)
    assert parse_poly(str(original), "V", 2) == original


def test_parse_poly_rejections():
    for bad in ["X1 / X2", "X1 / 0", "X3", "", "X1^(1/2)"]:
        with pytest.raises(ParseError):
            parse_poly(bad, "Q", 2)


def test_witness_poly_round_trip_v():
    rng = random.Random(41)
    for _ in range(20):
        a = random_fraction_elem(rng, QQ, "any")
        b = random_fraction_elem(rng, QQ, "any")
        w = v_pair_witness(a, b)
        assert parse_poly(str(w.poly), "V", 2) == w.poly


def test_witness_poly_round_trip_r():
    rng = random.Random(43)
    for _ in range(20):
        a = random_r_element(rng, "any")
        b = random_r_element(rng, "any")
        w = r_pair_witness(a, b)
        assert parse_poly(str(w.poly), "R", 2) == w.poly


def test_witness_poly_round_trip_w():
    rng = random.Random(47)
    m = OrderMatrix([[QuadScalar(1), SQRT2]])
    for _ in range(20):
        a = random_w_element(rng, "any")
        b = random_w_element(rng, "any")
        w = w_pair_witness(m, a, b)
        assert parse_poly(str(w.poly), "W", 2) == w.poly


def test_matrix_with_irrational_round_trip():
    m = OrderMatrix([[QuadScalar(1), SQRT2], [QuadScalar(2), QuadScalar(1)]])
    text = str(m)
    assert "s2" in text
    assert parse_matrix(text) == m
