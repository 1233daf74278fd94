"""Exact scalar arithmetic with no floating point anywhere.

Provides the ordered field Q(sqrt 2) (QuadScalar), held as a normalized
integer triple (p, q, d) meaning (p + q*sqrt(2))/d, and univariate
(RatFun1, in u) and bivariate (RatFun2, in u, v) rational functions over
Q, whose coefficients are fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(2) for integers p, q."""
    if p >= 0:
        if q >= 0:
            return 1 if p or q else 0
        # mixed signs: the positive part dominates iff p^2 > 2 q^2
        # (never equal for nonzero integers, as sqrt 2 is irrational)
        return 1 if p * p > 2 * q * q else -1
    if q <= 0:
        return -1
    return 1 if 2 * q * q > p * p else -1


def _parts(x):
    """(numerator, denominator) of an int or of anything Fraction takes."""
    if isinstance(x, int):
        return int(x), 1
    x = Fraction(x)
    return x.numerator, x.denominator


class QuadScalar:
    """The number (p + q*sqrt(2))/d of Q(sqrt 2), held as three ints.

    Normalized: d > 0 and gcd(p, q, d) == 1, so every value has exactly
    one triple and equality is equality of slots. The hash, hash((p, q,
    d)), is computed once when the value is built. rat = p/d and irr =
    q/d are the Fraction views used by the printed forms.

    Totally ordered by the real value; signs are decided on integers by
    comparing p^2 against 2*q^2.
    """

    __slots__ = ("p", "q", "d", "_hash")

    def __new__(cls, rat=0, irr=0):
        a, da = _parts(rat)
        b, db = _parts(irr)
        d = lcm(da, db)
        return _make(a * (d // da), b * (d // db), d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadScalar is immutable")

    @property
    def rat(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def irr(self) -> Fraction:
        return Fraction(self.q, self.d)

    def sign(self) -> int:
        return _sign(self.p, self.q)

    def __add__(self, other):
        if not isinstance(other, QuadScalar):
            other = coerce_quad(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.p + other.p, self.q + other.q, d)
        return _make(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, QuadScalar):
            other = coerce_quad(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.p - other.p, self.q - other.q, d)
        return _make(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other):
        return coerce_quad(other).__sub__(self)

    def __neg__(self):
        return _make(-self.p, -self.q, self.d)

    def __mul__(self, other):
        if not isinstance(other, QuadScalar):
            other = coerce_quad(other)
        p, q, r, s = self.p, self.q, other.p, other.q
        return _make(p * r + 2 * q * s, p * s + q * r, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        # d/(p + q sqrt2) = d (p - q sqrt2) / (p^2 - 2 q^2)
        p, q, d = self.p, self.q, self.d
        norm = p * p - 2 * q * q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero QuadScalar")
        if norm < 0:
            return _make(-d * p, d * q, -norm)
        return _make(d * p, -d * q, norm)

    def __truediv__(self, other):
        return self * coerce_quad(other).inverse()

    def __rtruediv__(self, other):
        return coerce_quad(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result, base = QuadScalar(1), self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if not isinstance(other, QuadScalar):
            try:
                other = coerce_quad(other)
            except TypeError:
                return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return _cmp(self, other) < 0

    def __le__(self, other):
        return _cmp(self, other) <= 0

    def __gt__(self, other):
        return _cmp(self, other) > 0

    def __ge__(self, other):
        return _cmp(self, other) >= 0

    def is_rational(self) -> bool:
        return self.q == 0

    def is_integer(self) -> bool:
        return self.q == 0 and self.d == 1

    def floor(self) -> int:
        """Largest integer n with n <= self, exactly."""
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return p // d
        # value lies in [(p - 2|q|)/d, (p + 2|q|)/d]; binary search on the
        # sign of self - mid = (p - mid*d + q sqrt2)/d
        spread = 2 * abs(q)
        lo, hi = (p - spread) // d - 1, -((-p - spread) // d) + 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _sign(p - mid * d, q) >= 0:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def __str__(self):
        if self.q == 0:
            return str(self.rat)
        if self.q > 0:
            return f"{self.rat}+{self.irr} s2"
        return f"{self.rat}-{-self.irr} s2"

    def __repr__(self):
        return f"QuadScalar({self.rat!r}, {self.irr!r})"


_new_quad = object.__new__
_set_p = QuadScalar.p.__set__
_set_q = QuadScalar.q.__set__
_set_d = QuadScalar.d.__set__
_set_hash = QuadScalar._hash.__set__


def _make(p: int, q: int, d: int) -> QuadScalar:
    """The QuadScalar (p + q*sqrt(2))/d for ints p, q and d > 0."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = _new_quad(QuadScalar)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    _set_hash(x, hash((p, q, d)))
    return x


def _cmp(a: QuadScalar, b) -> int:
    """Sign of a - b, from the cross-multiplied integer difference."""
    if not isinstance(b, QuadScalar):
        b = coerce_quad(b)
    d, e = a.d, b.d
    if d == e:
        return _sign(a.p - b.p, a.q - b.q)
    return _sign(a.p * e - b.p * d, a.q * e - b.q * d)


def coerce_quad(x) -> QuadScalar:
    """Coerce an int, Fraction or QuadScalar to QuadScalar."""
    if isinstance(x, QuadScalar):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to QuadScalar")


QS_ZERO = QuadScalar(0)
QS_ONE = QuadScalar(1)
SQRT2 = QuadScalar(0, 1)


def quad_sign(x: QuadScalar) -> int:
    """Exact sign of a QuadScalar: -1, 0 or +1."""
    return coerce_quad(x).sign()


def quad_floor_ratio(alpha: QuadScalar, beta: QuadScalar, mode: str = "floor") -> int:
    """floor or ceil of alpha/beta for alpha >= 0 and beta > 0, exactly."""
    alpha, beta = coerce_quad(alpha), coerce_quad(beta)
    if beta.sign() <= 0:
        raise ValueError("quad_floor_ratio requires beta > 0")
    if alpha.sign() < 0:
        raise ValueError("quad_floor_ratio requires alpha >= 0")
    q = alpha / beta
    if mode == "floor":
        return q.floor()
    if mode == "ceil":
        return -(-q).floor()
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# univariate polynomials over Q, represented as tuples of Fractions
# (index = exponent, no trailing zeros, () is the zero polynomial)

def upoly(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def uadd(f, g):
    n = max(len(f), len(g))
    return upoly([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                  for i in range(n)])


def uneg(f):
    return tuple(-c for c in f)


def umul(f, g):
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return upoly(out)


def uscale(f, c):
    c = Fraction(c)
    if c == 0:
        return ()
    return tuple(a * c for a in f)


def udivmod(f, g):
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = list(f)
    lg = g[-1]
    while len(r) >= len(g) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        c = r[-1] / lg
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] -= c * b
    return upoly(q), upoly(r)


def udiv_exact(f, g):
    q, r = udivmod(f, g)
    if r:
        raise ValueError("inexact univariate division")
    return q


def ugcd(f, g):
    """Monic gcd in Q[u]; gcd(0, 0) = 0."""
    a, b = f, g
    while b:
        a, b = b, udivmod(a, b)[1]
    if not a:
        return ()
    return uscale(a, 1 / a[-1])


def ustr(f, var: str = "u") -> str:
    if not f:
        return "0"
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if abs(c) == 1 else f"{abs(c)}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


class RatFun1:
    """A rational function in u over Q: num/den, gcd-reduced, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = upoly(num) if not isinstance(num, tuple) else num
        den = upoly(den) if not isinstance(den, tuple) else den
        if not den:
            raise ZeroDivisionError("RatFun1 with zero denominator")
        if not num:
            object.__setattr__(self, "num", ())
            object.__setattr__(self, "den", (Fraction(1),))
            return
        g = ugcd(num, den)
        if len(g) > 1:
            num, den = udiv_exact(num, g), udiv_exact(den, g)
        lead = den[-1]
        if lead != 1:
            num, den = uscale(num, 1 / lead), uscale(den, 1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun1 is immutable")

    @classmethod
    def const(cls, c) -> "RatFun1":
        return cls(upoly([Fraction(c)]))

    @classmethod
    def var(cls) -> "RatFun1":
        return cls(upoly([0, 1]))

    def __add__(self, other):
        other = coerce_ratfun1(other)
        return RatFun1(uadd(umul(self.num, other.den), umul(other.num, self.den)),
                       umul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-coerce_ratfun1(other))

    def __rsub__(self, other):
        return coerce_ratfun1(other) - self

    def __neg__(self):
        return RatFun1(uneg(self.num), self.den)

    def __mul__(self, other):
        other = coerce_ratfun1(other)
        return RatFun1(umul(self.num, other.num), umul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "RatFun1":
        if not self.num:
            raise ZeroDivisionError("inverse of zero RatFun1")
        return RatFun1(self.den, self.num)

    def __truediv__(self, other):
        return self * coerce_ratfun1(other).inverse()

    def __rtruediv__(self, other):
        return coerce_ratfun1(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result, base = RatFun1.const(1), self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base, k >> 1
        return result

    def __bool__(self):
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == (Fraction(1),) and self.den == (Fraction(1),)

    def __eq__(self, other):
        try:
            other = coerce_ratfun1(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        ns = ustr(self.num)
        if self.den == (Fraction(1),):
            return ns
        return f"({ns})/({ustr(self.den)})"

    def __repr__(self):
        return f"RatFun1({self})"


def coerce_ratfun1(x) -> RatFun1:
    if isinstance(x, RatFun1):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFun1.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RatFun1")


def is_rational_constant(a: RatFun1):
    """The Fraction a equals, if the reduced form is constant, else None."""
    if a.den != (Fraction(1),):
        return None
    if not a.num:
        return Fraction(0)
    if len(a.num) == 1:
        return a.num[0]
    return None


def u_adic_valuation(a: RatFun1) -> int:
    """Multiplicity of u in num minus multiplicity in den; a must be nonzero."""
    if not a.num:
        raise ValueError("u_adic_valuation of zero")
    num_mult = next(i for i, c in enumerate(a.num) if c != 0)
    den_mult = next(i for i, c in enumerate(a.den) if c != 0)
    return num_mult - den_mult


# ---------------------------------------------------------------------------
# bivariate polynomials over Q, represented as dicts {(eu, ev): Fraction}

def bpoly(terms: dict) -> dict:
    return {k: Fraction(c) for k, c in terms.items() if c != 0}


def badd(f: dict, g: dict) -> dict:
    out = dict(f)
    for k, c in g.items():
        s = out.get(k, Fraction(0)) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def bneg(f: dict) -> dict:
    return {k: -c for k, c in f.items()}


def bmul(f: dict, g: dict) -> dict:
    out = {}
    for (i1, j1), a in f.items():
        for (i2, j2), b in g.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, Fraction(0)) + a * b
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def bscale(f: dict, c) -> dict:
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: a * c for k, a in f.items()}


def bpow(f: dict, k: int) -> dict:
    result, base = {(0, 0): Fraction(1)}, f
    while k:
        if k & 1:
            result = bmul(result, base)
        base, k = bmul(base, base), k >> 1
    return result


def _lead_key(f: dict):
    # fixed internal term order: lexicographic on (eu, ev)
    return max(f)


def _to_vcoeffs(f: dict) -> list:
    """View as polynomial in v with u-polynomial coefficients (tuples)."""
    if not f:
        return []
    maxv = max(ev for (_, ev) in f)
    rows = [dict() for _ in range(maxv + 1)]
    for (eu, ev), c in f.items():
        rows[ev][eu] = c
    out = []
    for row in rows:
        if row:
            deg = max(row)
            out.append(tuple(row.get(i, Fraction(0)) for i in range(deg + 1)))
        else:
            out.append(())
    while out and not out[-1]:
        out.pop()
    return out


def _from_vcoeffs(vc: list) -> dict:
    out = {}
    for ev, up in enumerate(vc):
        for eu, c in enumerate(up):
            if c:
                out[(eu, ev)] = c
    return out


def _strip_vc(vc: list) -> list:
    """Make a v-coefficient list primitive: strip its u-content and the
    common rational factor. Controls coefficient growth in the PRS."""
    while vc and not vc[-1]:
        vc = vc[:-1]
    if not vc:
        return []
    cont = ()
    for up in vc:
        cont = ugcd(cont, up)
    if len(cont) > 1:
        vc = [udiv_exact(up, cont) if up else () for up in vc]
    gnum, lden = 0, 1
    for up in vc:
        for c in up:
            if c:
                gnum = gcd(gnum, c.numerator)
                lden = lcm(lden, c.denominator)
    scale = Fraction(lden, gnum)
    if scale != 1:
        vc = [uscale(up, scale) for up in vc]
    return vc


def _pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of a by b in (Q[u])[v], fraction-free."""
    r = list(a)
    lg, dg = b[-1], len(b) - 1
    while r and len(r) - 1 >= dg:
        lead = r.pop()
        shift = len(r) - dg
        r = [umul(c, lg) for c in r]
        for i, c in enumerate(b[:-1]):
            r[i + shift] = uadd(r[i + shift], uneg(umul(lead, c)))
        while r and not r[-1]:
            r.pop()
    return r


def bgcd(f: dict, g: dict) -> dict:
    """gcd in Q[u, v] by content/primitive-part reduction.

    Primitive parts run through a primitive pseudo-remainder sequence in
    (Q[u])[v]; the result's leading coefficient under the internal term
    order is normalized to 1.
    """
    if not f and not g:
        return {}
    if not f:
        h = dict(g)
    elif not g:
        h = dict(f)
    else:
        fv, gv = _to_vcoeffs(f), _to_vcoeffs(g)
        cont = ()
        for up in fv + gv:
            cont = ugcd(cont, up)
        a, b = _strip_vc(fv), _strip_vc(gv)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a, b = b, _strip_vc(_pseudo_rem(a, b))
        if len(cont) > 1:
            a = [umul(up, cont) for up in a]
        h = _from_vcoeffs(a)
    lead = h[_lead_key(h)]
    return bscale(h, 1 / lead)


def bdiv_exact(f: dict, g: dict) -> dict:
    """Exact division in Q[u, v]; raises if g does not divide f."""
    if not g:
        raise ZeroDivisionError("bivariate division by zero")
    if not f:
        return {}
    fv, gv = _to_vcoeffs(f), _to_vcoeffs(g)
    if len(fv) < len(gv):
        raise ValueError("inexact bivariate division")
    q = [()] * (len(fv) - len(gv) + 1)
    while fv:
        if len(fv) < len(gv):
            raise ValueError("inexact bivariate division")
        qc = udiv_exact(fv[-1], gv[-1])
        shift = len(fv) - len(gv)
        q[shift] = qc
        for i, c in enumerate(gv):
            fv[i + shift] = uadd(fv[i + shift], uneg(umul(qc, c)))
        while fv and not fv[-1]:
            fv.pop()
    return _from_vcoeffs(q)


def bstr(f: dict) -> str:
    if not f:
        return "0"
    parts = []
    for (eu, ev) in sorted(f, reverse=True):
        c = f[(eu, ev)]
        factors = []
        if eu:
            factors.append("u" if eu == 1 else f"u^{eu}")
        if ev:
            factors.append("v" if ev == 1 else f"v^{ev}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


class RatFun2:
    """A rational function in u, v over Q: num/den, gcd-reduced.

    The denominator's leading coefficient under the internal term order
    (lexicographic on (eu, ev)) is normalized to 1, which makes the
    representation canonical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict | None = None, *, _reduced=False):
        if den is None:
            den = {(0, 0): Fraction(1)}
        if not den:
            raise ZeroDivisionError("RatFun2 with zero denominator")
        if not num:
            object.__setattr__(self, "num", {})
            object.__setattr__(self, "den", {(0, 0): Fraction(1)})
            return
        if not _reduced:
            g = bgcd(num, den)
            if g != {(0, 0): Fraction(1)}:
                num, den = bdiv_exact(num, g), bdiv_exact(den, g)
        lead = den[_lead_key(den)]
        if lead != 1:
            num, den = bscale(num, 1 / lead), bscale(den, 1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun2 is immutable")

    @classmethod
    def const(cls, c) -> "RatFun2":
        return cls(bpoly({(0, 0): Fraction(c)}))

    @classmethod
    def var_u(cls) -> "RatFun2":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def var_v(cls) -> "RatFun2":
        return cls({(0, 1): Fraction(1)})

    @classmethod
    def from_ratfun1(cls, r: RatFun1) -> "RatFun2":
        num = {(e, 0): c for e, c in enumerate(r.num) if c}
        den = {(e, 0): c for e, c in enumerate(r.den) if c}
        return cls(num, den, _reduced=True)

    def __add__(self, other):
        other = coerce_ratfun2(other)
        return RatFun2(badd(bmul(self.num, other.den), bmul(other.num, self.den)),
                       bmul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-coerce_ratfun2(other))

    def __rsub__(self, other):
        return coerce_ratfun2(other) - self

    def __neg__(self):
        return RatFun2(bneg(self.num), self.den, _reduced=True)

    def __mul__(self, other):
        other = coerce_ratfun2(other)
        return RatFun2(bmul(self.num, other.num), bmul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "RatFun2":
        if not self.num:
            raise ZeroDivisionError("inverse of zero RatFun2")
        return RatFun2(self.den, self.num, _reduced=True)

    def __truediv__(self, other):
        return self * coerce_ratfun2(other).inverse()

    def __rtruediv__(self, other):
        return coerce_ratfun2(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return RatFun2.const(1)
        # num and den stay coprime under powers, so no gcd pass is needed
        return RatFun2(bpow(self.num, k), bpow(self.den, k), _reduced=True)

    def __bool__(self):
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == {(0, 0): Fraction(1)} and self.den == {(0, 0): Fraction(1)}

    def __eq__(self, other):
        try:
            other = coerce_ratfun2(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    def __str__(self):
        ns = bstr(self.num)
        if self.den == {(0, 0): Fraction(1)}:
            return ns
        return f"({ns})/({bstr(self.den)})"

    def __repr__(self):
        return f"RatFun2({self})"


def coerce_ratfun2(x) -> RatFun2:
    if isinstance(x, RatFun2):
        return x
    if isinstance(x, RatFun1):
        return RatFun2.from_ratfun1(x)
    if isinstance(x, (int, Fraction)):
        return RatFun2.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RatFun2")


def v_adic_valuation(a: RatFun2) -> int:
    """Multiplicity of v in num minus multiplicity in den; a must be nonzero."""
    if not a.num:
        raise ValueError("v_adic_valuation of zero")
    return min(ev for (_, ev) in a.num) - min(ev for (_, ev) in a.den)


def eval_at_v0(a: RatFun2) -> RatFun1:
    """Evaluate at v = 0; the (reduced) denominator must not be divisible by v."""
    if min(ev for (_, ev) in a.den) != 0:
        raise ValueError("denominator divisible by v, cannot evaluate at v = 0")
    num0 = {}
    for (eu, ev), c in a.num.items():
        if ev == 0:
            num0[eu] = c
    den0 = {}
    for (eu, ev), c in a.den.items():
        if ev == 0:
            den0[eu] = c
    ntup = tuple(num0.get(i, Fraction(0)) for i in range(max(num0) + 1)) if num0 else ()
    dtup = tuple(den0.get(i, Fraction(0)) for i in range(max(den0) + 1))
    return RatFun1(upoly(ntup), upoly(dtup))
