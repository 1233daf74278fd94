"""Sparse Laurent polynomials with pluggable exact coefficient rings.

Coefficients can be Fractions or any of the ring element classes in this
package; they only need arithmetic operators, __bool__ (False iff zero)
and, where an operation demands it, one()/inverse()/exact_div().
"""

from __future__ import annotations

from fractions import Fraction

from .orders import OrderMatrix, classify, compare_exponents, LESS, GREATER
from .scalars import QS_ZERO, coerce_quad


def one_like(c):
    """Multiplicative identity of the coefficient's ring."""
    if isinstance(c, Fraction):
        return Fraction(1)
    if isinstance(c, int):
        return 1
    return c.one()


def exact_div_coeff(a, b):
    if isinstance(a, (int, Fraction)):
        return Fraction(a) / b
    return a.exact_div(b)


class LaurentPoly:
    """Immutable sparse Laurent polynomial: exponent vector -> coefficient.

    Terms are stored in canonical order (lexicographic on exponent
    vectors) so printed output is deterministic.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: dict, nvars: int):
        if nvars < 1:
            raise ValueError("LaurentPoly needs at least one variable")
        clean = {}
        for e in sorted(terms):
            c = terms[e]
            if len(e) != nvars:
                raise ValueError("exponent vector length mismatch")
            if c:
                clean[tuple(int(x) for x in e)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls({}, nvars)

    @classmethod
    def monomial(cls, exps, coeff, nvars: int | None = None) -> "LaurentPoly":
        exps = tuple(exps)
        return cls({exps: coeff}, nvars if nvars is not None else len(exps))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.nvars != other.nvars or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return LaurentPoly(out, self.nvars)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if e in out:
                    s = out[e] + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                else:
                    p = c1 * c2
                    if p:
                        out[e] = p
        return LaurentPoly(out, self.nvars)

    def coeff(self, exps):
        return self.terms.get(tuple(exps))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in self.terms:
            c = self.terms[e]
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"X{i + 1}")
                elif k != 0:
                    factors.append(f"X{i + 1}^{k}")
            cs = _coeff_str(c)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                parts.append("*".join([cs] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _coeff_str(c) -> str:
    if isinstance(c, (int, Fraction)):
        return str(c)
    s = str(c)
    return f"({s})"


def evaluate(p: LaurentPoly, points):
    """Value of p at the given ring elements.

    A point occurring with a negative exponent must be invertible; the
    ring's own error is raised otherwise.
    """
    points = list(points)
    if len(points) != p.nvars:
        raise ValueError("number of points does not match variables")
    acc = None
    for e, c in p.terms.items():
        val = c
        for pt, k in zip(points, e):
            if k:
                val = val * pt ** k
        acc = val if acc is None else acc + val
    if acc is None:
        pt = points[0]
        return pt - pt
    return acc


def minimal_monomials(p: LaurentPoly, m: OrderMatrix):
    """Exponent vectors minimal under the matrix preorder, sorted."""
    if not p.terms:
        raise ValueError("the zero polynomial has no monomials")
    minima = []
    for e in p.terms:
        if not minima:
            minima = [e]
            continue
        c = compare_exponents(m, e, minima[0])
        if c == LESS:
            minima = [e]
        elif c != GREATER:
            minima.append(e)
    return sorted(minima)


def leading_coefficient(p: LaurentPoly, m: OrderMatrix):
    """Coefficient of the unique smallest monomial; m must be a total order."""
    if not classify(m).is_total_order:
        raise ValueError("leading_coefficient requires a total order")
    mins = minimal_monomials(p, m)
    if len(mins) != 1:
        raise AssertionError("tie under a total order")
    return p.terms[mins[0]]


def apply_monomial_map(p: LaurentPoly, matrix) -> LaurentPoly:
    """Substitute X_i -> prod_j X_j^(L[j][i]) for an integer matrix L.

    Exponent vectors map to L*e; colliding images are summed and zero
    results pruned.
    """
    rows = [list(r) for r in matrix]
    n = p.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix shape does not match variables")
    out = {}
    for e, c in p.terms.items():
        img = tuple(sum(rows[j][i] * e[i] for i in range(n)) for j in range(n))
        if img in out:
            s = out[img] + c
            if s:
                out[img] = s
            else:
                del out[img]
        else:
            out[img] = c
    return LaurentPoly(out, n)


def clear_denominators(p: LaurentPoly) -> LaurentPoly:
    """Multiply by the smallest monomial making all exponents nonnegative."""
    if not p.terms:
        return p
    shift = [0] * p.nvars
    for e in p.terms:
        for i, k in enumerate(e):
            shift[i] = max(shift[i], -k)
    if not any(shift):
        return p
    return LaurentPoly(
        {tuple(k + s for k, s in zip(e, shift)): c for e, c in p.terms.items()},
        p.nvars)


def weighted_components(p: LaurentPoly, weights):
    """Split into components of equal weight, ascending by weight.

    Returns a list of (weight, component) pairs; weights are QuadScalar
    dot products of the weight vector with the exponent vectors.
    """
    ws = [coerce_quad(w) for w in weights]
    if len(ws) != p.nvars:
        raise ValueError("weight vector length mismatch")
    buckets = {}
    for e, c in p.terms.items():
        w = QS_ZERO
        for wi, k in zip(ws, e):
            w = w + wi * k
        buckets.setdefault(w, {})[e] = c
    out = []
    for w in sorted(buckets):
        out.append((w, LaurentPoly(buckets[w], p.nvars)))
    return out


def scale_variable(p: LaurentPoly, index: int, factor, divide_power: int) -> LaurentPoly:
    """Substitute X_index -> factor * X_index, then divide the whole
    polynomial by factor^divide_power; every division must be exact."""
    if not 0 <= index < p.nvars:
        raise ValueError("variable index out of range")
    out = {}
    powers = {}
    for e, c in p.terms.items():
        net = e[index] - divide_power
        if net not in powers:
            powers[net] = factor ** abs(net) if net else None
        if net > 0:
            out[e] = c * powers[net]
        elif net < 0:
            out[e] = exact_div_coeff(c, powers[net])
        else:
            out[e] = c
    return LaurentPoly(out, p.nvars)
