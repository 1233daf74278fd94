"""Text forms for scalars, matrices, ring elements, and polynomials.

Each parser accepts exactly what the matching formatter emits, plus
whitespace variation and a few conveniences (integer exponents on v,
unary signs).  Elements are built with the ring's own arithmetic, so
an input that leaves the ring fails with NotInRing rather than being
silently reinterpreted.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .laurent import LaurentPoly
from .orders import OrderMatrix
from .rings import (
    QQ,
    QU,
    FractionElem,
    NotInRing,
    QuotElem,
    WElem,
)
from .scalars import QuadScalar, RatFun1


class ParseError(ValueError):
    """Raised when input text does not match the expected grammar."""


_QUAD_RE = re.compile(
    r"^\s*([+-]?\d+(?:/\d+)?)\s*(?:([+-])\s*(\d+(?:/\d+)?)\s*s2)?\s*$"
)


def parse_quad(text: str) -> QuadScalar:
    """Parse 'p/q' or 'p/q+r/s s2' (the QuadScalar display form)."""
    m = _QUAD_RE.match(text)
    if not m:
        raise ParseError(f"bad scalar literal: {text!r}")
    rat = Fraction(m.group(1))
    if m.group(2) is None:
        return QuadScalar(rat)
    irr = Fraction(m.group(3))
    if m.group(2) == "-":
        irr = -irr
    return QuadScalar(rat, irr)


def parse_matrix(text: str) -> OrderMatrix:
    """Parse rows separated by ';', entries by ','."""
    rows = []
    for row_text in text.split(";"):
        entries = row_text.split(",")
        if not any(e.strip() for e in entries):
            raise ParseError("empty matrix row")
        rows.append([parse_quad(e) for e in entries])
    if len({len(r) for r in rows}) != 1:
        raise ParseError("matrix rows have unequal lengths")
    return OrderMatrix(rows)


class _Context:
    """Atom constructors for one coefficient ring."""

    name = "?"

    def const(self, q: Fraction):
        raise NotImplementedError

    def atom_u(self):
        raise ParseError(f"'u' is not available in {self.name} input")

    def v_power(self, g: QuadScalar):
        raise ParseError(f"'v' is not available in {self.name} input")


class _QContext(_Context):
    name = "rational"

    def const(self, q):
        return q


class _VContext(_Context):
    name = "V"

    def const(self, q):
        return FractionElem.const(QQ, q)

    def v_power(self, g):
        if g.sign() >= 0:
            return FractionElem.v_power(QQ, g)
        return self.const(Fraction(1)) / FractionElem.v_power(QQ, -g)


class _RContext(_Context):
    name = "R"

    def const(self, q):
        return FractionElem.const(QU, q)

    def atom_u(self):
        return FractionElem.const(QU, RatFun1.var())

    def v_power(self, g):
        if g.sign() >= 0:
            return FractionElem.v_power(QU, g)
        return self.const(Fraction(1)) / FractionElem.v_power(QU, -g)


class _QuotContext(_Context):
    name = "Quot(V)"

    def const(self, q):
        return QuotElem.const(QQ, q)

    def v_power(self, g):
        mag = g if g.sign() >= 0 else -g
        base = QuotElem.from_fraction(FractionElem.v_power(QQ, mag))
        return base if g.sign() >= 0 else base ** -1


class _WContext(_Context):
    name = "W"

    def const(self, q):
        return WElem.const(q)

    def atom_u(self):
        return WElem.monomial(0, 1)

    def v_power(self, g):
        k = _as_int(g)
        if k is None:
            raise ParseError("v exponents must be integers in W input")
        return WElem.monomial(k, 0)


_CONTEXTS = {
    "Q": _QContext(),
    "V": _VContext(),
    "R": _RContext(),
    "quot": _QuotContext(),
    "W": _WContext(),
}


def _as_int(g: QuadScalar) -> int | None:
    if g.irr != 0 or g.rat.denominator != 1:
        return None
    return int(g.rat)


class _PolyAcc:
    """Accumulator for polynomial arithmetic during parsing."""

    __slots__ = ("terms", "nvars", "ctx")

    def __init__(self, terms, nvars, ctx):
        self.terms = terms
        self.nvars = nvars
        self.ctx = ctx

    @classmethod
    def const(cls, value, nvars, ctx):
        zero = (0,) * nvars
        return cls({zero: value}, nvars, ctx)

    @classmethod
    def variable(cls, index, nvars, ctx):
        e = tuple(1 if i == index else 0 for i in range(nvars))
        return cls({e: ctx.const(Fraction(1))}, nvars, ctx)

    def add(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return _PolyAcc(terms, self.nvars, self.ctx)

    def neg(self):
        return _PolyAcc({e: -c for e, c in self.terms.items()},
                        self.nvars, self.ctx)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return _PolyAcc(terms, self.nvars, self.ctx)

    def pow(self, k: int):
        if k < 0:
            live = {e: c for e, c in self.terms.items() if c != 0}
            if len(live) != 1:
                raise ParseError("negative power of a non-monomial")
            (e, c), = live.items()
            return _PolyAcc({tuple(x * k for x in e): c ** k},
                            self.nvars, self.ctx)
        out = _PolyAcc.const(self.ctx.const(Fraction(1)), self.nvars, self.ctx)
        for _ in range(k):
            out = out.mul(self)
        return out

    def div(self, other):
        live = {e: c for e, c in other.terms.items() if c != 0}
        if not live:
            raise ParseError("division by zero")
        if len(live) != 1 or any(x != 0 for x in next(iter(live))):
            raise ParseError("polynomial division is only by constants")
        c = next(iter(live.values()))
        return _PolyAcc({e: v / c for e, v in self.terms.items()},
                        self.nvars, self.ctx)

    def to_poly(self):
        terms = {e: c for e, c in self.terms.items() if c != 0}
        return LaurentPoly(terms, self.nvars)


_INT_RE = re.compile(r"\d+")
_XVAR_RE = re.compile(r"X(\d+)")
_NAME_RE = re.compile(r"[uv](?![A-Za-z0-9_])")
_SIGNED_INT_RE = re.compile(r"[+-]?\d+")

# Deepest nesting of parentheses and chained unary signs the recursive
# descent accepts; each parenthesis level costs five Python frames, so
# this stays well inside the default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, ctx: _Context, nvars: int | None):
        self.text = text
        self.pos = 0
        self.ctx = ctx
        self.nvars = nvars
        self.depth = 0

    @property
    def poly_mode(self) -> bool:
        return self.nvars is not None

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected {ch!r} at position {self.pos}")

    def nest(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} "
                             f"at position {self.pos}")

    def fail(self, what: str):
        frag = self.text[self.pos:self.pos + 12]
        raise ParseError(f"{what} at position {self.pos}: {frag!r}")

    def match(self, regex):
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m:
            self.pos = m.end()
        return m

    # expr := term (('+'|'-') term)*
    def parse_expr(self):
        value = self.parse_term()
        while True:
            if self.take("+"):
                value = self._add(value, self.parse_term())
            elif self.take("-"):
                value = self._sub(value, self.parse_term())
            else:
                return value

    # term := factor (('*'|'/') factor)*
    def parse_term(self):
        value = self.parse_factor()
        while True:
            if self.take("*"):
                value = self._mul(value, self.parse_factor())
            elif self.take("/"):
                value = self._div(value, self.parse_factor())
            else:
                return value

    # factor := ('+'|'-')* power
    def parse_factor(self):
        if self.take("-"):
            self.nest()
            value = self._neg(self.parse_factor())
        elif self.take("+"):
            self.nest()
            value = self.parse_factor()
        else:
            return self.parse_power()
        self.depth -= 1
        return value

    def parse_power(self):
        value, base = self.parse_atom()
        if self.peek() != "^":
            if base == "v":
                value = self._lift(self.ctx.v_power(QuadScalar(1)))
            return value
        self.pos += 1
        g = self.parse_exponent()
        if base == "v":
            return self._lift(self.ctx.v_power(g))
        k = _as_int(g)
        if k is None:
            self.fail("exponent must be an integer")
        return self._pow(value, k)

    def parse_exponent(self) -> QuadScalar:
        if self.take("("):
            close = self.text.find(")", self.pos)
            if close < 0:
                self.fail("unterminated exponent")
            inner = self.text[self.pos:close]
            self.pos = close + 1
            return parse_quad(inner)
        m = self.match(_SIGNED_INT_RE)
        if not m:
            self.fail("expected an exponent")
        return QuadScalar(Fraction(int(m.group())))

    def parse_atom(self):
        """Returns (value, tag); tag 'v' marks a bare v awaiting exponent."""
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            self.nest()
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value, None
        if ch == "X":
            m = self.match(_XVAR_RE)
            if not m:
                self.fail("bad variable name")
            if not self.poly_mode:
                raise ParseError("polynomial variables are not allowed here")
            index = int(m.group(1)) - 1
            if not 0 <= index < self.nvars:
                raise ParseError(f"variable X{index + 1} out of range "
                                 f"for {self.nvars} variables")
            return _PolyAcc.variable(index, self.nvars, self.ctx), None
        m = self.match(_INT_RE)
        if m:
            return self._lift(self.ctx.const(Fraction(int(m.group())))), None
        m = self.match(_NAME_RE)
        if m:
            if m.group() == "u":
                return self._lift(self.ctx.atom_u()), None
            return None, "v"
        self.fail("unexpected input")

    def _lift(self, value):
        if self.poly_mode:
            return _PolyAcc.const(value, self.nvars, self.ctx)
        return value

    def _add(self, a, b):
        return a.add(b) if self.poly_mode else a + b

    def _sub(self, a, b):
        return a.sub(b) if self.poly_mode else a - b

    def _mul(self, a, b):
        return a.mul(b) if self.poly_mode else a * b

    def _div(self, a, b):
        if self.poly_mode:
            return a.div(b)
        if b == 0:
            raise ParseError("division by zero")
        try:
            return a / b
        except ZeroDivisionError:
            raise ParseError("division by zero") from None

    def _neg(self, a):
        return a.neg() if self.poly_mode else -a

    def _pow(self, a, k):
        return a.pow(k) if self.poly_mode else a ** k

    def parse_full(self):
        value = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing input")
        return value


def _context(ring: str) -> _Context:
    try:
        return _CONTEXTS[ring]
    except KeyError:
        raise ParseError(f"unknown ring {ring!r}; expected one of "
                         f"{sorted(_CONTEXTS)}") from None


def parse_element(text: str, ring: str):
    """Parse one ring element.  ring is 'Q', 'V', 'R', 'quot', or 'W'."""
    if not text.strip():
        raise ParseError("empty element")
    return _Parser(text, _context(ring), None).parse_full()


def parse_poly(text: str, ring: str, nvars: int | None = None) -> LaurentPoly:
    """Parse a Laurent polynomial with coefficients in the given ring.

    With nvars=None the variable count is inferred from the largest
    X index that occurs (at least 1).
    """
    if not text.strip():
        raise ParseError("empty polynomial")
    if nvars is None:
        seen = [int(m.group(1)) for m in _XVAR_RE.finditer(text)]
        nvars = max(seen) if seen else 1
    if nvars < 1:
        raise ParseError("a polynomial needs at least one variable")
    acc = _Parser(text, _context(ring), nvars).parse_full()
    return acc.to_poly()
