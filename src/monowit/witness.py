"""Constructive dependence witnesses and their verification.

A witness is a nonzero Laurent polynomial P together with an order
matrix M such that P vanishes at the given ring elements and some
monomial that is minimal under M carries the coefficient one. Every
builder in this module returns an exactly verifiable object; nothing is
approximated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .laurent import (
    LaurentPoly,
    apply_monomial_map,
    clear_denominators,
    evaluate,
    minimal_monomials,
    one_like,
    scale_variable,
    weighted_components,
)
from .orders import (
    OrderMatrix,
    classify,
    int_entries,
    integerize,
    inverse_scaled,
    lex_matrix,
    normalize_rows,
    refine_to_order,
    validate_matrix,
)
from .rings import FractionElem, NotInRing, QuotElem, WElem, r_membership
from .scalars import QuadScalar, quad_floor_ratio, quad_sign


SWAP2 = OrderMatrix([[0, 1], [1, 0]])


class Witness:
    """A dependence witness: polynomial, order matrix and its flavor."""

    __slots__ = ("poly", "matrix", "kind", "note")

    def __init__(self, poly: LaurentPoly, matrix: OrderMatrix, note: str = ""):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "kind",
                           "order" if classify(matrix).is_total_order else "preorder")
        object.__setattr__(self, "note", note)

    def __setattr__(self, name, value):
        raise AttributeError("Witness is immutable")

    def __repr__(self):
        return f"Witness({self.poly} under {self.matrix}, {self.kind})"


def verify_witness(w: Witness, elements) -> tuple[bool, str]:
    """Exact check: P vanishes at the elements and a minimal monomial has
    coefficient one. Returns (ok, reason)."""
    if not w.poly:
        return False, "witness polynomial is zero"
    value = evaluate(w.poly, elements)
    if value:
        return False, "witness polynomial does not vanish at the elements"
    for e in minimal_monomials(w.poly, w.matrix):
        c = w.poly.terms[e]
        if c == one_like(c):
            return True, ""
    return False, "no minimal monomial has coefficient one"


def _one_of(x):
    """Multiplicative identity of the element's ring, 1 as a fallback."""
    if hasattr(x, "one"):
        return x.one()
    return Fraction(1)


def _unit_vector(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def witness_trivial(elements, matrix: OrderMatrix) -> Witness | None:
    """Witness from a zero element (X_i) or a unit u (1 - u^-1 X_i).

    The constant monomial is minimal under every valid matrix, so the
    unit form works without looking at the matrix.
    """
    validate_matrix(matrix)
    n = len(elements)
    for i, a in enumerate(elements):
        if not a:
            poly = LaurentPoly({_unit_vector(n, i): _one_of(a)}, n)
            return Witness(poly, matrix, note=f"element {i + 1} is zero")
    for i, a in enumerate(elements):
        if hasattr(a, "is_unit") and a.is_unit():
            inv = a.inverse()
            poly = LaurentPoly({(0,) * n: one_like(inv),
                                _unit_vector(n, i): -inv}, n)
            return Witness(poly, matrix, note=f"element {i + 1} is a unit")
    return None


def _value_pair_nc(a, b, strict: bool):
    """n and c with b^n = c * a and c in the ring: n is minimal with
    n*val(b) >= val(a), or strictly above the ratio when strict is set."""
    alpha = a.valuation()
    beta = b.valuation()
    if strict:
        n = quad_floor_ratio(alpha, beta, "floor") + 1
    else:
        n = max(quad_floor_ratio(alpha, beta, "ceil"), 1)
    c = (b ** n).exact_div(a)
    return n, c


def _pair_witness(a, b, swap: bool, strict: bool) -> Witness:
    """Dependence of two nonzero nonunit elements under a 2-variable lex
    order; variables are X1 -> a, X2 -> b, swap picks the X2 > X1 order."""
    if not swap:
        n, c = _value_pair_nc(a, b, strict)
        poly = LaurentPoly({(0, n): one_like(c), (1, 0): -c}, 2)
        return Witness(poly, lex_matrix(2))
    n, c = _value_pair_nc(b, a, strict)
    poly = LaurentPoly({(n, 0): one_like(c), (0, 1): -c}, 2)
    return Witness(poly, SWAP2)


def v_pair_witness(a: FractionElem, b: FractionElem, swap: bool = False) -> Witness:
    """Lex dependence of any two elements of the valuation ring."""
    m = SWAP2 if swap else lex_matrix(2)
    t = witness_trivial([a, b], m)
    if t is not None:
        return t
    return _pair_witness(a, b, swap, strict=False)


def r_pair_witness(a: FractionElem, b: FractionElem, swap: bool = False) -> Witness:
    """Lex dependence of any two elements of R. The power is chosen
    strictly above the valuation ratio so the cofactor has positive value
    and hence zero, in particular rational, constant part."""
    for x in (a, b):
        if x and r_membership(x) is None:
            raise NotInRing("element lies outside R")
    m = SWAP2 if swap else lex_matrix(2)
    t = witness_trivial([a, b], m)
    if t is not None:
        return t
    w = _pair_witness(a, b, swap, strict=True)
    for c in w.poly.terms.values():
        if r_membership(c) is None:
            raise NotInRing("witness coefficient left R")
    return w


# ---------------------------------------------------------------------------
# the W construction: a single positive weight row plus the pair-value grid

def _graded_row(matrix: OrderMatrix):
    """Reduce a matrix to the single positive weight row driving the W
    construction; rational total orders are rejected."""
    validate_matrix(matrix)
    cls = classify(matrix)
    if cls.is_total_order and cls.is_rational:
        raise ValueError("rational total orders admit no such dependence in W")
    row = matrix.rows[0]
    if any(x.sign() <= 0 for x in row):
        raise ValueError("the first matrix row must be strictly positive")
    return row


def solve_eqMA(alpha: QuadScalar, beta: QuadScalar, A) -> tuple[Fraction, Fraction]:
    """A nonzero rational pair (e, f) with alpha*e + beta*f <= 0 and
    A*(e, f) >= (0, 0) lexicographically; A is an integer 2x2 matrix.

    Small integer solutions are scanned first so results stay readable;
    an exact construction guarantees totality.
    """
    (i1, i2), (j1, j2) = A
    candidates = [(e, f) for e in range(-6, 7) for f in range(-6, 7) if (e, f) != (0, 0)]
    candidates.sort(key=lambda p: (abs(p[0]) + abs(p[1]), p))
    for e, f in candidates:
        if quad_sign(alpha * e + beta * f) <= 0 and \
                (i1 * e + i2 * f, j1 * e + j2 * f) >= (0, 0):
            return Fraction(e), Fraction(f)
    if (i1, i2) == (0, 0):
        if (j1, j2) == (0, 0):
            return Fraction(-1), Fraction(0)
        e, f = j2, -j1
        if quad_sign(alpha * e + beta * f) > 0:
            e, f = -e, -f
        return Fraction(e), Fraction(f)
    s = alpha * i2 - beta * i1
    if s.sign() == 0:
        e, f = i2, -i1
        if j1 * e + j2 * f < 0:
            e, f = -e, -f
        return Fraction(e), Fraction(f)
    sgn = s.sign()
    e, f = -sgn * i2, sgn * i1
    if j1 * e + j2 * f >= 0:
        return Fraction(e), Fraction(f)
    mu = alpha * i1 + beta * i2
    if mu.sign() <= 0:
        eps = Fraction(1)
    else:
        bound = quad_floor_ratio(mu, s if sgn > 0 else -s, "ceil")
        eps = Fraction(1, bound + 1)
    return e + eps * i1, f + eps * i2


def w_pair_witness(matrix: OrderMatrix, a: WElem, b: WElem) -> Witness:
    """Dependence of any two elements of W under a positively weighted
    preorder, via the pair-value grid.

    The solved exponent pair keeps the coefficient-one monomial minimal
    (the weight inequality) and the cofactor inside W (the value
    inequality)."""
    t = witness_trivial([a, b], matrix)
    if t is not None:
        return t
    alpha, beta = _graded_row(matrix)
    A = ((a.wval[0], b.wval[0]), (a.wval[1], b.wval[1]))
    e, f = solve_eqMA(alpha, beta, A)
    scale = lcm(e.denominator, f.denominator)
    ei, fi = int(e * scale), int(f * scale)
    g = gcd(abs(ei), abs(fi))
    ei, fi = ei // g, fi // g
    c = (a ** ei) * (b ** fi)
    if not c.is_member():
        raise AssertionError("cofactor left W despite the value inequality")
    e1, e2 = max(ei, 0), max(-ei, 0)
    f1, f2 = max(fi, 0), max(-fi, 0)
    poly = LaurentPoly({(e1, f1): c.one(), (e2, f2): -c}, 2)
    return Witness(poly, matrix)


# ---------------------------------------------------------------------------
# transport along monomial maps

def transport_witness_to_lex(w: Witness) -> Witness:
    """From a witness for b_i = prod_j a_j^(M[j][i]) under an integer
    full-rank square M, the mapped polynomial is a lex witness for the
    a_j themselves: exponents map to M*e, injectively, and the minimal
    coefficient is preserved."""
    ent = int_entries(w.matrix)
    n = w.poly.nvars
    if len(ent) != n or any(len(r) != n for r in ent):
        raise ValueError("transport requires a square integer matrix")
    if classify(w.matrix).rank != n:
        raise ValueError("transport requires a full-rank matrix")
    q = apply_monomial_map(w.poly, ent)
    return Witness(clear_denominators(q), lex_matrix(n), note=w.note)


def monomial_images(elements, matrix_entries):
    """b_i = prod_j a_j^(M[j][i]) for the columns of an integer matrix."""
    n = len(matrix_entries[0])
    out = []
    for i in range(n):
        acc = None
        for j, a in enumerate(elements):
            k = matrix_entries[j][i]
            if k == 0:
                continue
            term = a ** k
            acc = term if acc is None else acc * term
        out.append(acc if acc is not None else _one_of(elements[0]))
    return out


# ---------------------------------------------------------------------------
# the quotient-field oracle and the valuative pipeline

def quot_v_lex_oracle(b_elements) -> Witness:
    """Lex dependence of elements of the quotient field of the valuation
    ring, with coefficients inside the valuation ring.

    Zero elements and elements of nonpositive value give one-term or
    unit-style witnesses; otherwise the first two values are compared.
    """
    bs = [QuotElem.from_fraction(x) if isinstance(x, FractionElem) else x
          for x in b_elements]
    n = len(bs)
    lex = lex_matrix(n)
    for i, b in enumerate(bs):
        if not b:
            return Witness(LaurentPoly({_unit_vector(n, i): _one_of(b)}, n), lex,
                           note=f"element {i + 1} is zero")
    for i, b in enumerate(bs):
        if b.valuation().sign() <= 0:
            inv = b.inverse()
            if not inv.is_localization_member():
                raise NotInRing("inverse of a value <= 0 element left the valuation ring")
            poly = LaurentPoly({(0,) * n: inv.one(),
                                _unit_vector(n, i): -inv}, n)
            return Witness(poly, lex, note=f"element {i + 1} has value <= 0")
    if n < 2:
        raise ValueError("a single element of positive value has no witness here")
    g1 = bs[0].valuation()
    g2 = bs[1].valuation()
    k = max(quad_floor_ratio(g1, g2, "ceil"), 1)
    c = bs[1] ** k / bs[0]
    if not c.is_localization_member():
        raise NotInRing("oracle cofactor left the valuation ring")
    e_lo = tuple(k if j == 1 else 0 for j in range(n))
    poly = LaurentPoly({e_lo: c.one(), _unit_vector(n, 0): -c}, n)
    return Witness(poly, lex)


def vdim_witness(matrix: OrderMatrix, elements) -> Witness:
    """Dependence witness under a rational preorder matrix, built by
    refining to an integer total order, pulling the elements back through
    the scaled inverse map and transporting the quotient-field witness
    forward again. Coefficients land in the valuation ring."""
    validate_matrix(matrix)
    n = len(elements)
    if matrix.ncols != n:
        raise ValueError("matrix width must match the number of elements")
    for i, a in enumerate(elements):
        if not a:
            poly = LaurentPoly({_unit_vector(n, i): _one_of(a)}, n)
            return Witness(poly, matrix, note=f"element {i + 1} is zero")
    refined = integerize(refine_to_order(normalize_rows(matrix)))
    si = inverse_scaled(refined)
    quots = [QuotElem.from_fraction(a) for a in elements]
    bs = monomial_images(quots, si.matrix)
    inner = quot_v_lex_oracle(bs)
    q = clear_denominators(apply_monomial_map(inner.poly, si.matrix))
    converted = {e: c.to_fraction() if isinstance(c, QuotElem) else c
                 for e, c in q.terms.items()}
    return Witness(LaurentPoly(converted, n), matrix, note=inner.note)


# ---------------------------------------------------------------------------
# overrings of the valuation ring inside its quotient field

class OverringElement:
    """A quotient-field element with a recorded denominator: den * value
    lies in the valuation ring."""

    __slots__ = ("value", "den")

    def __init__(self, value: QuotElem, den: FractionElem):
        if not den:
            raise ZeroDivisionError("denominator must be nonzero")
        if not (QuotElem.from_fraction(den) * value).is_localization_member():
            raise NotInRing("den * value lies outside the valuation ring")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("OverringElement is immutable")

    def __repr__(self):
        return f"OverringElement({self.value}, den={self.den})"


def overring_lex_witness(matrix: OrderMatrix, elements: list[OverringElement]) -> Witness:
    """Lex dependence, with coefficients in the valuation ring, of
    quotient-field elements carrying recorded denominators.

    The first element is rescaled by a denominator power so the monomial
    images of the rescaled tuple land in the valuation ring; the witness
    for those images transports to lex, and the rescaling is undone by an
    exact variable substitution."""
    validate_matrix(matrix)
    ent = int_entries(matrix)
    n = len(elements)
    if len(ent) != n or any(len(r) != n for r in ent):
        raise ValueError("overring transport needs a square integer matrix")
    if any(x < 0 for row in ent for x in row):
        raise ValueError("overring transport needs nonnegative entries")
    if any(ent[0][i] <= 0 for i in range(n)):
        raise ValueError("overring transport needs a positive first row")
    if classify(matrix).rank != n:
        raise ValueError("overring transport needs a full-rank matrix")
    values = [e.value for e in elements]
    for i, b in enumerate(values):
        if not b:
            poly = LaurentPoly({_unit_vector(n, i): _one_of(b)}, n)
            return Witness(poly, lex_matrix(n), note=f"element {i + 1} is zero")
    den = elements[0].den
    for other in elements[1:]:
        den = den * other.den
    k = 0
    for i in range(n):
        total = sum(ent[j][i] for j in range(n))
        k = max(k, -(-total // ent[0][i]))
    dq = QuotElem.from_fraction(den)
    scaled = [dq ** k * values[0]] + list(values[1:])
    images = []
    for img in monomial_images(scaled, ent):
        if not img.is_localization_member():
            raise AssertionError("monomial image left the valuation ring")
        images.append(img.to_fraction())
    inner = vdim_witness(matrix, images)
    lexw = transport_witness_to_lex(inner)
    e_min = min(lexw.poly.terms)[0]
    descaled = scale_variable(lexw.poly, 0, den ** k, e_min)
    return Witness(descaled, lex_matrix(n), note=inner.note)


# ---------------------------------------------------------------------------
# homogenization over a local ring

def homogenize_witness(poly: LaurentPoly, elements) -> tuple[LaurentPoly, tuple]:
    """Fold a vanishing polynomial over maximal-ideal elements down to a
    homogeneous one of the minimal degree, keeping a unit coefficient.

    Higher-degree exponents split as e' + e'' with e' of minimal total
    degree, borrowing from the first variables first; the e'' part is
    evaluated and multiplied into the coefficient. The marked monomial
    keeps coefficient 1 plus maximal-ideal terms, hence stays a unit.
    """
    for i, a in enumerate(elements):
        if not a or (hasattr(a, "is_unit") and a.is_unit()):
            raise ValueError(f"element {i + 1} is not in the maximal ideal")
    if not poly.terms or any(min(e) < 0 for e in poly.terms):
        raise ValueError("homogenization needs a nonzero ordinary polynomial")
    d0 = min(sum(e) for e in poly.terms)
    t0 = None
    for e in sorted(poly.terms):
        if sum(e) == d0 and poly.terms[e] == one_like(poly.terms[e]):
            t0 = e
            break
    if t0 is None:
        raise ValueError("no minimal-degree monomial has coefficient one")
    out = {}
    for e, c in poly.terms.items():
        if sum(e) > d0:
            budget = d0
            lo = []
            for x in e:
                t = min(x, budget)
                lo.append(t)
                budget -= t
            lower = tuple(lo)
            extra = None
            for i, kk in enumerate(x - y for x, y in zip(e, lower)):
                if kk:
                    term = elements[i] ** kk
                    extra = term if extra is None else extra * term
            c = c * extra
        else:
            lower = e
        if lower in out:
            s = out[lower] + c
            if s:
                out[lower] = s
            else:
                del out[lower]
        else:
            out[lower] = c
    homog = LaurentPoly(out, poly.nvars)
    c0 = homog.coeff(t0)
    if c0 is None or not (hasattr(c0, "is_unit") and c0.is_unit()):
        raise AssertionError("marked coefficient failed to stay a unit")
    return homog, t0


# ---------------------------------------------------------------------------
# exhaustive refutation search

def _val_add(x, y):
    if isinstance(x, tuple):
        return tuple(a + b for a, b in zip(x, y))
    return x + y


def _monoid_term_table(mon_values, pool):
    """Per slot and pool entry, the monoid terms {exponent: coefficient}
    of the product, taken straight from the two numerators; an empty dict
    for a zero pool entry. None unless every factor is a FractionElem of
    one field over a trivial denominator (dens are normalized, so a
    single-term denominator is exactly 1)."""
    factors = [x for x in (*mon_values, *pool) if x]
    if not all(isinstance(x, FractionElem) and len(x.den.coeffs) == 1
               for x in factors):
        return None
    if len({x.field for x in factors}) > 1:
        return None
    table = []
    for mv in mon_values:
        row = []
        for c in pool:
            prod = {}
            if c:
                for g1, c1 in c.num.coeffs.items():
                    for g2, c2 in mv.num.coeffs.items():
                        g = g1 + g2
                        s = c1 * c2
                        if g in prod:
                            s = prod[g] + s
                            if not s:
                                del prod[g]
                                continue
                        prod[g] = s
            row.append(prod)
        table.append(row)
    return table


def _kernel_search(table, leaf_ok, chosen, pool, counts) -> bool:
    """Depth-first search over precomputed monoid terms, keeping the
    partial sum in one dict keyed by exponent id, updated in place and
    restored when a step returns.

    When every product is a single monoid term, a partial sum can only
    lose support exponents by later terms landing on exactly the same
    exponent, one exponent per slot: the support cannot exceed the slots
    left, and every support exponent must stay reachable by a later slot.
    A step's support follows from whether its term is new, cancels or
    merges, so these cuts are decided before any coefficient is added.
    Otherwise ids are ranked by exponent order and a partial sum whose
    valuation is strictly below every valuation the remaining slots can
    add is cut. Every cut removes only branches with no vanishing
    completion."""
    nslots = len(table)
    single = all(len(p) <= 1 for row in table for p in row)
    exponents = {g for row in table for p in row for g in p}
    ids = {g: i for i, g in enumerate(exponents if single else sorted(exponents))}
    terms = [[tuple((ids[g], x) for g, x in p.items()) for p in row]
             for row in table]
    acc = {}
    get = acc.get
    nodes = cut_support = cut_reach = cut_val = 0

    if single:
        def with_negation(p):
            (g, x), = p
            return g, x, -x

        steps = [[with_negation(p) if p else None for p in row] for row in terms]
        reach = [frozenset()] * (nslots + 1)
        for t in range(nslots - 1, -1, -1):
            reach[t] = reach[t + 1] | {s[0] for s in steps[t] if s}

        def dfs(t):
            nonlocal nodes, cut_support, cut_reach
            nodes += 1
            if t == nslots:
                return not acc and leaf_ok()
            left = nslots - t - 1
            later = reach[t + 1]
            size = len(acc)
            outside = [g for g in acc if g not in later]
            for c, step in zip(pool, steps[t]):
                if step is None:
                    new_size, bad = size, bool(outside)
                else:
                    g, x, neg = step
                    old = get(g)
                    if old is None:
                        new_size, bad = size + 1, bool(outside) or g not in later
                    elif old == neg:
                        new_size, bad = size - 1, any(k != g for k in outside)
                    else:
                        new_size, bad = size, bool(outside)
                if new_size:
                    if new_size > left:
                        cut_support += 1
                        continue
                    if bad:
                        cut_reach += 1
                        continue
                chosen[t] = c
                if step is not None:
                    if old is None:
                        acc[g] = x
                    elif new_size < size:
                        del acc[g]
                    else:
                        acc[g] = old + x
                if dfs(t + 1):
                    return True
                if step is not None:
                    if old is None:
                        del acc[g]
                    else:
                        acc[g] = old
            chosen[t] = None
            return False
    else:
        floor = [len(ids)] * (nslots + 1)
        for t in range(nslots - 1, -1, -1):
            slot_min = min((g for p in terms[t] for g, _ in p), default=len(ids))
            floor[t] = min(slot_min, floor[t + 1])

        def dfs(t):
            nonlocal nodes, cut_val
            nodes += 1
            if t == nslots:
                return not acc and leaf_ok()
            later = floor[t + 1]
            for c, step in zip(pool, terms[t]):
                saved = [(g, get(g)) for g, _ in step]
                for g, x in step:
                    old = get(g)
                    if old is None:
                        acc[g] = x
                    else:
                        s = old + x
                        if s:
                            acc[g] = s
                        else:
                            del acc[g]
                if acc and min(acc) < later:
                    cut_val += 1
                else:
                    chosen[t] = c
                    if dfs(t + 1):
                        return True
                for g, old in saved:
                    if old is None:
                        del acc[g]
                    else:
                        acc[g] = old
            chosen[t] = None
            return False

    found = dfs(0)
    counts.update(nodes=nodes, cut_by_support=cut_support,
                  cut_by_reach=cut_reach, cut_by_valuation=cut_val)
    return found


def _generic_search(mon_values, leaf_ok, chosen, pool, counts) -> bool:
    """Depth-first search over ring elements: any ring with a valuation,
    cut by the valuation alone."""
    nslots = len(mon_values)
    pool_vals = [c.valuation() for c in pool if c]
    suffix_min = [None] * (nslots + 1)
    for t in range(nslots - 1, -1, -1):
        base = mon_values[t].valuation()
        later = suffix_min[t + 1]
        if base is None:
            suffix_min[t] = later
            continue
        term_min = min(_val_add(base, pv) for pv in pool_vals)
        suffix_min[t] = term_min if later is None else min(term_min, later)
    nodes = cut_val = 0

    def dfs(t, acc):
        nonlocal nodes, cut_val
        nodes += 1
        if t == nslots:
            return not acc and leaf_ok()
        later = suffix_min[t + 1]
        for c in pool:
            nxt = acc + c * mon_values[t] if c else acc
            if nxt and (later is None or nxt.valuation() < later):
                cut_val += 1
                continue
            chosen[t] = c
            if dfs(t + 1, nxt):
                return True
        chosen[t] = None
        return False

    found = dfs(0, mon_values[0] - mon_values[0])
    counts.update(nodes=nodes, cut_by_support=0, cut_by_reach=0,
                  cut_by_valuation=cut_val)
    return found


def _exponents_of_degree(n: int, d: int):
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in _exponents_of_degree(n - 1, d - first):
            out.append((first,) + rest)
    out.sort()
    return out


def independence_search(elements, matrix: OrderMatrix | None, max_degree: int, pool,
                        *, exact_degree: int | None = None,
                        require_unit: bool = False,
                        stats: dict | None = None) -> LaurentPoly | None:
    """First vanishing combination over the coefficient pool, or None.

    Monomials up to max_degree (or of exactly exact_degree) are assigned
    pool coefficients depth-first, monomials in degree-then-lex order and
    the pool in its given order. Branches that can never cancel are cut;
    every cut preserves which solution is found first.

    When every monomial value and nonzero pool entry is a FractionElem of
    one field over denominator 1, an incremental kernel runs over the
    precomputed monoid terms of each slot and pool product. If all those
    products are single monoid terms it cuts a partial sum whose support
    exceeds the slots left or holds an exponent no later slot reaches;
    otherwise it cuts a partial sum whose valuation is strictly below
    every valuation the remaining slots can add. Any other input (a
    nontrivial denominator, elements of W) takes a generic search over
    ring elements with the valuation cut alone.

    The accepted combination must have a coefficient-one monomial minimal
    over its support under the matrix or, with require_unit, some unit
    coefficient.

    A stats dict, when given, receives nodes (search nodes entered) and
    cut_by_support, cut_by_reach and cut_by_valuation (branches cut).
    """
    if not elements:
        raise ValueError("independence_search needs at least one element")
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if exact_degree is not None and exact_degree < 0:
        raise ValueError(f"exact_degree must be nonnegative, got {exact_degree}")
    n = len(elements)
    if exact_degree is not None:
        exps = _exponents_of_degree(n, exact_degree)
    else:
        exps = [e for d in range(max_degree + 1) for e in _exponents_of_degree(n, d)]
    mon_values = [evaluate(LaurentPoly.monomial(e, Fraction(1), n), elements)
                  if any(e) else _one_of(elements[0]) for e in exps]
    pool = list(pool)
    chosen = [None] * len(exps)

    def leaf_ok():
        support = {e: c for e, c in zip(exps, chosen) if c}
        if not support:
            return False
        if require_unit:
            return any(hasattr(c, "is_unit") and c.is_unit() for c in support.values())
        cand = LaurentPoly(support, n)
        for e in minimal_monomials(cand, matrix):
            c = cand.terms[e]
            if c == one_like(c):
                return True
        return False

    counts = stats if stats is not None else {}
    if not any(pool):
        counts.update(nodes=0, cut_by_support=0, cut_by_reach=0,
                      cut_by_valuation=0)
        return None
    table = _monoid_term_table(mon_values, pool)
    if table is not None:
        found = _kernel_search(table, leaf_ok, chosen, pool, counts)
    else:
        found = _generic_search(mon_values, leaf_ok, chosen, pool, counts)
    if found:
        return LaurentPoly({e: c for e, c in zip(exps, chosen) if c}, n)
    return None


def phi_refutation_check(poly: LaurentPoly, elements):
    """The constant-part image of the minimal weighted component.

    Writing each element as v^(w_i) * unit_i, the lowest weight w among
    the polynomial's monomials contributes the only candidate terms for
    the v^w part of the evaluated sum; the image of that part under
    evaluation at v = 0 is returned together with w. A vanishing
    evaluation forces the image to vanish, so a nonzero image certifies a
    nonzero value of exact value w."""
    splits = [a.value_unit_split() for a in elements]
    weights = [g for g, _ in splits]
    units = [u for _, u in splits]
    w, comp = weighted_components(poly, weights)[0]
    image = None
    for e, c in comp.terms.items():
        term = c.const_coefficient()
        for u, k in zip(units, e):
            uc = u.const_coefficient()
            for _ in range(k):
                term = term * uc
        image = term if image is None else image + term
    return w, image
