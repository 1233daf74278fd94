"""The non-Noetherian rings the witness machinery runs in.

MonoidRingElem is the monoid ring K{v}: finite sums of c * v^gamma with
exponents gamma >= 0 drawn from Q + Q sqrt2, K one of Q or Q(u).
FractionElem localizes it at the complement of the "constant coefficient
zero" ideal; with K = Q that localization is the valuation domain V, and
with K = Q(u) it hosts the subring R of elements with rational constant
part. QuotElem is the full quotient field. WElem wraps Q(u, v) with the
lexicographic pair value that cuts out the two-dimensional valuation
domain W.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    QS_ZERO,
    QuadScalar,
    RatFun1,
    RatFun2,
    SQRT2,
    coerce_quad,
    eval_at_v0,
    is_rational_constant,
    u_adic_valuation,
    upoly,
    v_adic_valuation,
)


class NotInRing(ValueError):
    """An operation left the ring it was supposed to stay in."""


class RationalFieldType:
    """Coefficient field Q, backed by Fraction."""

    name = "Q"

    @staticmethod
    def coerce(x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q")

    @staticmethod
    def one():
        return Fraction(1)

    @staticmethod
    def random(rng):
        num = 0
        while num == 0:
            num = rng.randint(-4, 4)
        return Fraction(num, rng.randint(1, 3))


class RatFunFieldType:
    """Coefficient field Q(u), backed by RatFun1."""

    name = "Q(u)"

    @staticmethod
    def coerce(x):
        if isinstance(x, RatFun1):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFun1.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(u)")

    @staticmethod
    def one():
        return RatFun1.const(1)

    @staticmethod
    def random(rng):
        num = ()
        while not num:
            num = upoly([Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
        den = upoly([Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))])
        if not den:
            den = upoly([1])
        return RatFun1(num, den)


QQ = RationalFieldType()
QU = RatFunFieldType()


class MonoidRingElem:
    """Finite sum of c * v^gamma, gamma >= 0 in Q + Q sqrt2, c in K."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs: dict):
        clean = {}
        items = [(coerce_quad(g), field.coerce(c)) for g, c in coeffs.items()]
        items = [(g, c) for g, c in items if c]
        for g, _ in items:
            if g.sign() < 0:
                raise ValueError("monoid exponents must be nonnegative")
        items.sort(key=lambda gc: gc[0])
        for g, c in items:
            if g in clean:
                raise ValueError("duplicate exponent")
            clean[g] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MonoidRingElem is immutable")

    @classmethod
    def const(cls, field, c) -> "MonoidRingElem":
        return cls(field, {QS_ZERO: field.coerce(c)})

    @classmethod
    def one(cls, field) -> "MonoidRingElem":
        return cls.const(field, 1)

    @classmethod
    def zero(cls, field) -> "MonoidRingElem":
        return cls(field, {})

    @classmethod
    def v_power(cls, field, gamma) -> "MonoidRingElem":
        return cls(field, {coerce_quad(gamma): field.one()})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, MonoidRingElem):
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[g] == other.coeffs[g] for g in self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            if g in out:
                s = out[g] + c
                if s:
                    out[g] = s
                else:
                    del out[g]
            else:
                out[g] = c
        return MonoidRingElem(self.field, out)

    def __neg__(self):
        return MonoidRingElem(self.field, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for g1, c1 in self.coeffs.items():
            for g2, c2 in other.coeffs.items():
                g = g1 + g2
                if g in out:
                    s = out[g] + c1 * c2
                    if s:
                        out[g] = s
                    else:
                        del out[g]
                else:
                    p = c1 * c2
                    if p:
                        out[g] = p
        return MonoidRingElem(self.field, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a monoid ring element")
        result = MonoidRingElem.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def scale(self, c) -> "MonoidRingElem":
        c = self.field.coerce(c)
        return MonoidRingElem(self.field, {g: a * c for g, a in self.coeffs.items()})

    def shift(self, delta) -> "MonoidRingElem":
        """Multiply by v^delta; delta may be negative if all exponents allow it."""
        delta = coerce_quad(delta)
        return MonoidRingElem(self.field, {g + delta: c for g, c in self.coeffs.items()})

    def min_support(self) -> QuadScalar:
        if not self.coeffs:
            raise ValueError("min_support of zero")
        return next(iter(self.coeffs))

    def const_coefficient(self):
        """Coefficient of v^0 (the evaluation phi at v = 0)."""
        return self.coeffs.get(QS_ZERO, self.field.coerce(0))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for g, c in self.coeffs.items():
            cs = str(c)
            if not (isinstance(c, Fraction) or set(cs) <= set("-0123456789/")):
                cs = f"({cs})"
            if g.sign() == 0:
                parts.append(cs)
            else:
                vpart = "v" if g == QuadScalar(1) else f"v^({g})"
                parts.append(vpart if cs == "1" else f"{cs}*{vpart}")
        return " + ".join(parts)

    def __repr__(self):
        return f"MonoidRingElem({self})"


class FractionElem:
    """num/den over a monoid ring with den constant coefficient nonzero.

    The denominator is normalized to constant coefficient 1. With K = Q
    this is the valuation domain V; with K = Q(u) it is the localization
    containing the ring R.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MonoidRingElem, den: MonoidRingElem | None = None):
        if den is None:
            den = MonoidRingElem.one(num.field)
        c = den.const_coefficient()
        if not c:
            raise NotInRing("denominator has zero constant coefficient")
        if not num:
            den = MonoidRingElem.one(num.field)
        elif not (isinstance(c, Fraction) and c == 1) and not (hasattr(c, "is_one") and c.is_one()):
            inv = _field_inverse(c)
            num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FractionElem is immutable")

    @property
    def field(self):
        return self.num.field

    @classmethod
    def const(cls, field, c) -> "FractionElem":
        return cls(MonoidRingElem.const(field, c))

    @classmethod
    def v_power(cls, field, gamma) -> "FractionElem":
        return cls(MonoidRingElem.v_power(field, gamma))

    def one(self) -> "FractionElem":
        return FractionElem.const(self.field, 1)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def _coerce(self, other):
        if isinstance(other, FractionElem):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionElem.const(self.field, other)
        if isinstance(other, RatFun1) and self.field is QU:
            return FractionElem.const(self.field, other)
        if isinstance(other, MonoidRingElem):
            return FractionElem(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionElem(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return FractionElem(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def is_unit(self) -> bool:
        """Unit of the localization: nonzero constant coefficient."""
        return bool(self.num.const_coefficient())

    def inverse(self) -> "FractionElem":
        if not self.is_unit():
            raise NotInRing("element is not a unit of the localization")
        return FractionElem(self.den, self.num)

    def __truediv__(self, other):
        """Strict localization division: the divisor must be a unit."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def exact_div(self, other) -> "FractionElem":
        """Valuation-style division: defined whenever the quotient lies in
        the localization, canceling a common power of v first."""
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("exact_div by zero")
        if not self:
            return FractionElem(MonoidRingElem.zero(self.field))
        rnum = self.num * other.den
        rden = self.den * other.num
        delta = rden.min_support()
        if rnum.min_support() < delta:
            raise NotInRing("quotient lies outside the localization")
        return FractionElem(rnum.shift(-delta), rden.shift(-delta))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def valuation(self) -> QuadScalar | None:
        """min_support of the numerator, None for zero."""
        if not self.num:
            return None
        return self.num.min_support()

    def value_unit_split(self):
        """Write self = v^gamma * unit with unit a unit of the localization."""
        if not self.num:
            raise ValueError("cannot split zero")
        gamma = self.num.min_support()
        return gamma, FractionElem(self.num.shift(-gamma), self.den)

    def const_coefficient(self):
        return self.num.const_coefficient()

    def __str__(self):
        if len(self.den.coeffs) == 1 and QS_ZERO in self.den.coeffs:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"FractionElem({self})"


def _field_inverse(c):
    if isinstance(c, Fraction):
        return 1 / c
    return c.inverse()


class QuotElem:
    """Formal quotient of monoid ring elements: the full quotient field."""

    __slots__ = ("num", "den")

    def __init__(self, num: MonoidRingElem, den: MonoidRingElem):
        if not den:
            raise ZeroDivisionError("QuotElem with zero denominator")
        if not num:
            den = MonoidRingElem.one(num.field)
        else:
            delta = min(num.min_support(), den.min_support())
            if delta.sign() > 0:
                num, den = num.shift(-delta), den.shift(-delta)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QuotElem is immutable")

    @property
    def field(self):
        return self.num.field

    @classmethod
    def from_fraction(cls, x: FractionElem) -> "QuotElem":
        return cls(x.num, x.den)

    @classmethod
    def const(cls, field, c) -> "QuotElem":
        return cls(MonoidRingElem.const(field, c), MonoidRingElem.one(field))

    def one(self) -> "QuotElem":
        return QuotElem.const(self.field, 1)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def _coerce(self, other):
        if isinstance(other, QuotElem):
            return other
        if isinstance(other, FractionElem):
            return QuotElem.from_fraction(other)
        if isinstance(other, (int, Fraction)):
            return QuotElem.const(self.field, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuotElem(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QuotElem(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuotElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "QuotElem":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return QuotElem(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def exact_div(self, other) -> "QuotElem":
        return self / other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def valuation(self) -> QuadScalar | None:
        if not self.num:
            return None
        return self.num.min_support() - self.den.min_support()

    def is_localization_member(self) -> bool:
        """True iff the value lies in the localization (den can be moved
        into S by canceling v powers)."""
        if not self.num:
            return True
        return self.num.min_support() >= self.den.min_support()

    def to_fraction(self) -> FractionElem:
        if not self.is_localization_member():
            raise NotInRing("quotient lies outside the localization")
        if not self.num:
            return FractionElem(MonoidRingElem.zero(self.field))
        delta = self.den.min_support()
        return FractionElem(self.num.shift(-delta), self.den.shift(-delta))

    def __str__(self):
        if len(self.den.coeffs) == 1 and QS_ZERO in self.den.coeffs and \
                self.den.const_coefficient() == self.field.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"QuotElem({self})"


# ---------------------------------------------------------------------------
# the ring R = Q + (elements with zero constant part) inside the Q(u) localization

class RMembership:
    """A localization element together with its rational constant part."""

    __slots__ = ("element", "const_part")

    def __init__(self, element: FractionElem, const_part: Fraction):
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "const_part", const_part)

    def __setattr__(self, name, value):
        raise AttributeError("RMembership is immutable")

    def __repr__(self):
        return f"RMembership({self.element}, const={self.const_part})"


def r_membership(x: FractionElem) -> RMembership | None:
    """Decide membership in R: the constant coefficient must be rational."""
    if x.field is not QU:
        raise TypeError("r_membership expects an element over Q(u)")
    c = x.const_coefficient()
    q = is_rational_constant(c)
    if q is None:
        return None
    return RMembership(x, q)


def r_invert(m: RMembership) -> RMembership | None:
    """Inverse inside R, or None when the constant part is zero."""
    if m.const_part == 0:
        return None
    inv = m.element.inverse()
    out = r_membership(inv)
    if out is None:
        raise AssertionError("inverse of an R unit left R")
    return out


# ---------------------------------------------------------------------------
# the ring W inside Q(u, v)

class WElem:
    """An element of Q(u, v) with its lexicographic pair value cached.

    wval = (i, j): i is the v-adic valuation, j the u-adic valuation of
    the evaluation at v = 0 after dividing by v^i. Membership in W means
    wval >= (0, 0) lexicographically. Arithmetic runs in the quotient
    field; membership is a separate check.
    """

    __slots__ = ("value", "wval")

    def __init__(self, value: RatFun2):
        object.__setattr__(self, "value", value)
        if not value:
            object.__setattr__(self, "wval", None)
            return
        i = v_adic_valuation(value)
        num = {(eu, ev - min(e2 for (_, e2) in value.num)): c
               for (eu, ev), c in value.num.items()}
        den = {(eu, ev - min(e2 for (_, e2) in value.den)): c
               for (eu, ev), c in value.den.items()}
        shifted = RatFun2(num, den, _reduced=True)
        j = u_adic_valuation(eval_at_v0(shifted))
        object.__setattr__(self, "wval", (i, j))

    def __setattr__(self, name, value):
        raise AttributeError("WElem is immutable")

    @classmethod
    def const(cls, c) -> "WElem":
        return cls(RatFun2.const(c))

    @classmethod
    def monomial(cls, i: int, j: int) -> "WElem":
        num, den = {}, {}
        num[(max(j, 0), max(i, 0))] = Fraction(1)
        den[(max(-j, 0), max(-i, 0))] = Fraction(1)
        return cls(RatFun2(num, den, _reduced=True))

    def one(self) -> "WElem":
        return WElem.const(1)

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def _coerce(self, other):
        if isinstance(other, WElem):
            return other
        if isinstance(other, (int, Fraction)):
            return WElem.const(other)
        if isinstance(other, RatFun2):
            return WElem(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return WElem(self.value + other.value)

    __radd__ = __add__

    def __neg__(self):
        return WElem(-self.value)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return WElem(self.value - other.value)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return WElem(self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return WElem(self.value / other.value)

    def __pow__(self, k: int):
        return WElem(self.value ** k)

    def inverse(self) -> "WElem":
        return WElem(self.value.inverse())

    def is_member(self) -> bool:
        return self.wval is None or self.wval >= (0, 0)

    def is_unit(self) -> bool:
        """Unit of W: value exactly (0, 0)."""
        return self.wval == (0, 0)

    def exact_div(self, other) -> "WElem":
        other = self._coerce(other)
        out = self / other
        if not out.is_member():
            raise NotInRing("quotient lies outside W")
        return out

    def valuation(self):
        return self.wval

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"WElem({self.value})"


def w_value(a) -> tuple | None:
    """The pair value (i, j) of a nonzero element, None for zero."""
    if isinstance(a, RatFun2):
        a = WElem(a)
    return a.wval


def w_membership(a) -> bool:
    if isinstance(a, RatFun2):
        a = WElem(a)
    return a.is_member()


def w_divides(a, b) -> bool:
    """True iff b/a lies in W; a must be nonzero."""
    if isinstance(a, RatFun2):
        a = WElem(a)
    if isinstance(b, RatFun2):
        b = WElem(b)
    if not a:
        raise ZeroDivisionError("w_divides with zero divisor")
    return (b / a).is_member()


# ---------------------------------------------------------------------------
# seeded random generators for the property suites

EXPONENT_POOL = (
    QuadScalar(Fraction(1, 2)),
    QuadScalar(1),
    QuadScalar(Fraction(3, 2)),
    QuadScalar(2),
    SQRT2,
    QuadScalar(2) - SQRT2,
)


def random_monoid_elem(rng, field=QQ, max_terms=3, min_positive=False) -> MonoidRingElem:
    """Random nonzero monoid ring element with exponents from the fixed pool.

    With min_positive the constant term is excluded, so the result lies
    in the maximal ideal of the localization.
    """
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if min_positive or rng.random() < 0.7:
            g = rng.choice(EXPONENT_POOL)
        else:
            g = QS_ZERO
        terms[g] = field.random(rng)
    out = MonoidRingElem(field, terms)
    if not out:
        return random_monoid_elem(rng, field, max_terms, min_positive)
    return out


def random_fraction_elem(rng, field=QQ, kind="any") -> FractionElem:
    """Random nonzero element of the localization.

    kind: "any", "unit" (nonzero constant coefficient) or "maxideal"
    (zero constant coefficient, the noninvertible nonzero elements).
    """
    if kind == "maxideal":
        num = random_monoid_elem(rng, field, min_positive=True)
    elif kind == "unit":
        num = MonoidRingElem.one(field).scale(field.random(rng)) + \
            (random_monoid_elem(rng, field, max_terms=2, min_positive=True)
             if rng.random() < 0.7 else MonoidRingElem.zero(field))
    else:
        num = random_monoid_elem(rng, field)
    den = MonoidRingElem.one(field) + \
        (random_monoid_elem(rng, field, max_terms=2, min_positive=True)
         if rng.random() < 0.6 else MonoidRingElem.zero(field))
    return FractionElem(num, den)


def random_r_element(rng, kind="any") -> FractionElem:
    """Random nonzero element of R: rational constant part plus terms of
    positive exponent with Q(u) coefficients."""
    if kind == "maxideal":
        const = Fraction(0)
    elif kind == "unit":
        const = QQ.random(rng)
    else:
        const = QQ.random(rng) if rng.random() < 0.5 else Fraction(0)
    num = MonoidRingElem.const(QU, const)
    if const == 0 or rng.random() < 0.8:
        num = num + random_monoid_elem(rng, QU, max_terms=2, min_positive=True)
    den = MonoidRingElem.one(QU) + \
        (random_monoid_elem(rng, QU, max_terms=1, min_positive=True)
         if rng.random() < 0.5 else MonoidRingElem.zero(QU))
    out = FractionElem(num, den)
    if r_membership(out) is None:
        raise NotInRing("generated element left R")
    if not out:
        return random_r_element(rng, kind)
    return out


def _random_upoly(rng, deg, nonzero_const=False):
    cs = [Fraction(rng.randint(-2, 2)) for _ in range(rng.randint(1, deg + 1))]
    if nonzero_const:
        while cs[0] == 0:
            cs[0] = Fraction(rng.randint(-2, 2))
    return upoly(cs)


def random_w_element(rng, kind="any") -> WElem:
    """Random nonzero element of W, built from its defining decomposition:
    a u-local rational function plus v times a v-local one."""
    while True:
        if kind == "unit":
            p = _random_upoly(rng, 1, nonzero_const=True)
            s = _random_upoly(rng, 1, nonzero_const=True)
        else:
            p = _random_upoly(rng, 2)
            s = _random_upoly(rng, 1, nonzero_const=True)
        part = RatFun2({(eu, 0): c for eu, c in enumerate(p) if c},
                       {(eu, 0): c for eu, c in enumerate(s) if c})
        if kind != "unit" and rng.random() < 0.7:
            a_num = {}
            for _ in range(rng.randint(1, 2)):
                a_num[(rng.randint(0, 1), rng.randint(0, 1))] = Fraction(rng.randint(-2, 2))
            a_num = {k: c for k, c in a_num.items() if c}
            b0 = _random_upoly(rng, 1, nonzero_const=False)
            while not b0:
                b0 = _random_upoly(rng, 1)
            den = {(eu, 0): c for eu, c in enumerate(b0) if c}
            if rng.random() < 0.5:
                den[(rng.randint(0, 1), 1)] = Fraction(rng.randint(-2, 2))
            den = {k: c for k, c in den.items() if c}
            if a_num and den:
                part = part + RatFun2({(0, 1): Fraction(1)}) * RatFun2(a_num, den)
        out = WElem(part)
        if out and out.is_member():
            if kind == "unit" and not out.is_unit():
                continue
            if kind == "maxideal" and out.is_unit():
                continue
            return out


def random_quot_elem(rng, field=QQ) -> QuotElem:
    """Random nonzero element of the quotient field of the monoid ring."""
    num = random_monoid_elem(rng, field)
    den = random_monoid_elem(rng, field)
    return QuotElem(num, den)


def random_overring_pair(rng) -> tuple[QuotElem, FractionElem]:
    """A quotient-field element with a recorded denominator.

    The denominator is a plain v-power and the numerator short, keeping
    the monomial products taken downstream at desk scale.
    """
    g = rng.choice(EXPONENT_POOL)
    num = random_monoid_elem(rng, QQ, max_terms=2)
    value = QuotElem(num, MonoidRingElem.v_power(QQ, g))
    return value, FractionElem.v_power(QQ, g)
