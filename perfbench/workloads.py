"""The four benchmark workloads: search, witness, orders and cli.

Each workload turns a seed into a fixed list of operations ("ops") before
any timing starts; a pass runs them in order, one caller, each op starting
after the previous one returned (a closed loop with one client). An op is
one library call chain and returns a result; its ``check`` runs untimed
after the op and returns ``None`` when the result is correct, otherwise
the reason. The library is reached only through ``lib.<module>.<name>``
at call time, so a tracer that rebinds module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import random
import re
from fractions import Fraction

WHY = {
    "search": "independence_search refutations and first hits: the layer the "
              "search-kernel rewrite targets; positive and generic-path cases "
              "keep a fast-path-only win from looking general",
    "witness": "seeded build-then-verify over every witness builder, no "
               "search: measures rings, laurent and witness; an orders change "
               "should stay flat here",
    "orders": "seeded order matrices, each reused for hundreds of "
              "compare_exponents calls: isolates orders and QuadScalar "
              "sign/compare",
    "cli": "in-process monowit.cli.main over every verb with text inputs: "
           "the only load on parsing, suites and cli; each matrix is parsed "
           "and used once",
}


class Op:
    """One timed operation: ``call()`` runs it, ``check(result)`` judges it."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def _expect(cond, reason):
    return None if cond else reason


def _fe(lib, terms, field=None):
    """A FractionElem with the given monoid terms {exponent: coefficient}."""
    rings = lib.rings
    return rings.FractionElem(rings.MonoidRingElem(field or rings.QQ, terms))


# ---------------------------------------------------------------------------
# search

def _search_cases(lib):
    """Fixed cases: (name, elements, matrix, max_degree, pool, options,
    expected first hit as text or None for a refutation)."""
    sc, orders, rings = lib.scalars, lib.orders, lib.rings
    q = sc.QuadScalar
    one, zero_e, half, two = q(1), q(0), q(Fraction(1, 2)), q(2)
    QU = rings.QU

    v, vs, vh, v2 = (_fe(lib, {g: 1}) for g in (one, sc.SQRT2, half, two))
    c1, c0 = _fe(lib, {zero_e: 1}), _fe(lib, {})
    rv, ruv = _fe(lib, {one: 1}, QU), _fe(lib, {one: sc.RatFun1.var()}, QU)
    r1, r0 = _fe(lib, {zero_e: 1}, QU), _fe(lib, {}, QU)
    r_pool = [r0, r1, -r1, rv, -rv, ruv, -ruv]
    v_pool = [c0, c1, -c1, vh, -vh, v, -v, vs, -vs]
    lex2 = orders.lex_matrix(2)
    graded = orders.OrderMatrix([[1, 1]])

    def default_pool(elements):
        """The CLI's default: 0, 1, -1 and each element with both signs."""
        one = elements[0].one()
        return [one - one, one, -one] + [x for e in elements for x in (e, -e)]

    hits = [
        ("v_hit_lex", [v, v2], lex2, "(1)*X1*X2 + (-1*v)*X1^2"),
        ("v_hit_graded", [v, v2], graded, "(1)*X1*X2 + (-1*v)*X1^2"),
        ("v_hit_sum", [v + v2, v], lex2, "(1)*X2 + (1)*X2^2 + (-1)*X1"),
    ]
    cases = [
        ("r_refute_d2", [rv, ruv], graded, 2, r_pool, {}, None),
        ("v_refute_d2", [v, vs], orders.OrderMatrix([[one, sc.SQRT2]]), 2,
         v_pool, {}, None),
        ("r_unit_d1", [rv, ruv], None, 0, r_pool,
         {"exact_degree": 1, "require_unit": True}, None),
        ("r_unit_d2", [rv, ruv], None, 0, r_pool,
         {"exact_degree": 2, "require_unit": True}, None),
        # (v + v^sqrt2) is not a single monoid term: the generic path
        ("v_generic_d2", [v + vs, v], lex2, 2, [c0, c1, -c1, v, -v], {}, None),
    ]
    cases += [(name, els, m, 2, default_pool(els), {}, hit)
              for name, els, m, hit in hits]
    return cases


def search_space(lib, case) -> int:
    """|pool|^slots, computed from the inputs: the leaves a search without
    pruning would visit."""
    _, elements, _, max_degree, pool, options, _ = case
    n = len(elements)
    if options.get("exact_degree") is not None:
        degrees = [options["exact_degree"]]
    else:
        degrees = range(max_degree + 1)
    slots = sum(len(list(_compositions(n, d))) for d in degrees)
    return len(pool) ** slots


def _compositions(n, d):
    return (c for c in itertools.product(range(d + 1), repeat=n) if sum(c) == d)


def search_inputs(lib, seed):
    cases = _search_cases(lib)
    random.Random(f"search:{seed}").shuffle(cases)
    return {"cases": cases}


def search_ops(lib, inputs):
    ops = []
    for case in inputs["cases"]:
        name, elements, matrix, max_degree, pool, options, expected = case

        def call(elements=elements, matrix=matrix, max_degree=max_degree,
                 pool=pool, options=options):
            return lib.witness.independence_search(elements, matrix,
                                                   max_degree, pool, **options)

        def check(found, elements=elements, matrix=matrix, expected=expected):
            if expected is None:
                return _expect(found is None, f"refutation found {found}")
            if found is None or str(found) != expected:
                return f"first hit {found} differs from {expected}"
            ok, reason = lib.witness.verify_witness(
                lib.witness.Witness(found, matrix), elements)
            return _expect(ok, f"hit does not verify: {reason}")
        ops.append(Op(name, call, check))
    return ops


# ---------------------------------------------------------------------------
# witness

WITNESS_ROUNDS = 66
_KINDS = ("any", "unit", "maxideal")


def _nonzero(draw):
    while True:
        x = draw()
        if x:
            return x


# The witness builders raise elements to a power k set by a ratio of
# valuations (for the pipelines, of image valuations in quot_v_lex_oracle),
# and since quotients do not cancel, term counts grow like T^k for inputs
# with T stored terms. Exponent-pool differences such as 3/2 - sqrt2 make k
# reach 17 and one op run for minutes, past the benchmark's time limit, and
# a handful of large-k draws would dominate a pass. A draw is therefore
# redrawn when k * T exceeds MAX_BLOWUP, and the redraws are counted;
# smaller blow-ups stay in, so witness.coeff_terms_max still measures them.
#
# k is predicted with the benchmark's own exact arithmetic on the printed
# exponents, never with the library's scalars or orders, so a change to
# the code under test cannot change which inputs are drawn.
MAX_BLOWUP = 12

# For each fixed matrix of the workloads, the scaled inverse L of the
# integer total order vdim_witness refines it to (the matrix itself when it
# is square and unimodular, [[1,1],[1,0]] for the graded row [[1,1]]): the
# elements' pull-backs have valuations g_i = sum_j val_j * L[j][i].
SCALED_INVERSE = {
    "1,0;0,1": ((1, 0), (0, 1)),
    "1,1;1,0": ((0, 1), (1, -1)),
    "2,1;1,1": ((1, -1), (-1, 2)),
    "1,1": ((0, 1), (1, -1)),
}
_QUAD_TEXT = re.compile(r"(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?) s2)?")


def quad(text):
    """(a, b) for a printed exponent a + b*sqrt2 ("a", "a+b s2", "a-b s2")."""
    a, sign, b = _QUAD_TEXT.fullmatch(text).groups()
    return Fraction(a), Fraction(b or 0) * (-1 if sign == "-" else 1)


def qsign(x):
    a, b = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb      # a^2 = 2 b^2 only at 0


def qlin(xs, coeffs):
    """sum of x_j * c_j for quads x_j and integers c_j."""
    return (sum(x[0] * c for x, c in zip(xs, coeffs)),
            sum(x[1] * c for x, c in zip(xs, coeffs)))


def qfloor_ratio(p, q, mode):
    """floor or ceil of p/q for quads p >= 0, q > 0, exactly."""
    (a, b), (c, d) = p, q
    norm = c * c - 2 * d * d                    # nonzero: sqrt2 is irrational
    x, y = (a * c - 2 * b * d) / norm, (b * c - a * d) / norm
    if mode == "ceil":
        x, y = -x, -y
    n = math.floor(x + y * math.sqrt(2))
    while qsign((x - n, y)) < 0:
        n -= 1
    while qsign((x - n - 1, y)) >= 0:
        n += 1
    return -n if mode == "ceil" else n


def _min_exponent(elem):
    exps = [quad(str(g)) for g in elem.coeffs]
    low = exps[0]
    for e in exps[1:]:
        if qsign((e[0] - low[0], e[1] - low[1])) < 0:
            low = e
    return low


def valuation(x):
    """Valuation of a quotient num/den (num's lowest exponent minus den's),
    None for zero."""
    if not x.num.coeffs:
        return None
    n, d = _min_exponent(x.num), _min_exponent(x.den)
    return n[0] - d[0], n[1] - d[1]


def _valuations(elements):
    return [valuation(x) for x in elements]


def oracle_power(matrix, vals):
    """The power vdim_witness(matrix, elements) raises to, predicted from
    the elements' valuations (None for zero); 0 when no power is taken."""
    if any(v is None for v in vals):
        return 0
    L = SCALED_INVERSE[matrix]
    g = [qlin(vals, [row[i] for row in L]) for i in range(len(vals))]
    if any(qsign(x) <= 0 for x in g):
        return 0
    return qfloor_ratio(g[0], g[1], "ceil")


def _image_valuations(vals, entries):
    """Valuations of monomial_images(elements, entries)."""
    if any(v is None for v in vals):
        return vals
    return [qlin(vals, [row[i] for row in entries]) for i in range(len(entries[0]))]


def stored_terms(elements) -> int:
    """Stored monoid terms of the elements, numerators plus denominators."""
    return sum(len(x.num.coeffs) + len(x.den.coeffs) for x in elements)


class Draws:
    """Seeded inputs from the public generators, with the bounded blow-up
    described above; counts the redraws."""

    TDIM, GRADED = "1,1;1,0", "1,1"

    def __init__(self, lib, rng):
        self.lib, self.rng = lib, rng
        OM = lib.orders.OrderMatrix
        self.tdim, self.graded = OM([[1, 1], [1, 0]]), OM([[1, 1]])
        self.tdim_ent = ((1, 1), (1, 0))
        self.redrawn = 0

    def _bounded(self, draw, power, values=lambda x: x):
        while True:
            x = draw()
            if power(x) * stored_terms(values(x)) <= MAX_BLOWUP:
                return x
            self.redrawn += 1

    def _v(self, kind):
        return self.lib.rings.random_fraction_elem(self.rng, self.lib.rings.QQ, kind)

    def _pair_power(self, pair):
        """The larger power a pair builder takes over both variable orders."""
        va, vb = _valuations(pair)
        if va is None or vb is None or qsign(va) <= 0 or qsign(vb) <= 0:
            return 0
        return max(qfloor_ratio(va, vb, "floor"), qfloor_ratio(vb, va, "floor")) + 1

    def v_pair(self, ka, kb):
        return self._bounded(lambda: [self._v(ka), self._v(kb)], self._pair_power)

    def r_pair(self, ka, kb):
        draw = self.lib.rings.random_r_element
        return self._bounded(
            lambda: [_nonzero(lambda: draw(self.rng, k)) for k in (ka, kb)],
            self._pair_power)

    def w_pair(self):
        draw = self.lib.rings.random_w_element
        return [_nonzero(lambda: draw(self.rng, "any")) for _ in range(2)]

    def vdim_pair(self, matrix, ka, kb):
        """A pair for vdim_witness under ``matrix``, a key of SCALED_INVERSE."""
        return self._bounded(lambda: [self._v(ka), self._v(kb)],
                             lambda a: oracle_power(matrix, _valuations(a)))

    def homogenize_pair(self):
        return self._bounded(
            lambda: [_nonzero(lambda: self._v("maxideal")) for _ in range(2)],
            lambda a: oracle_power(self.GRADED, _valuations(a)))

    def transport_pair(self, ka, kb):
        # the images (a1 a2, a1) under tdim carry about twice the input terms
        return self._bounded(
            lambda: [self._v(ka), self._v(kb)],
            lambda a: 2 * oracle_power(self.TDIM, _image_valuations(
                _valuations(a), self.tdim_ent)))

    def overring_pair(self):
        """Two OverringElements under tdim: overring_lex_witness scales the
        first value by den^2, then runs vdim_witness on monomial images."""
        def power(elements):
            vals = _valuations([e.value for e in elements])
            if vals[0] is not None:
                d = valuation(elements[0].den)
                vals[0] = vals[0][0] + 2 * d[0], vals[0][1] + 2 * d[1]
            return oracle_power(self.TDIM, _image_valuations(vals, self.tdim_ent))
        return self._bounded(
            lambda: self.lib.suites._random_overring_pair_common_den(self.rng),
            power, lambda els: [e.value for e in els])


def witness_inputs(lib, seed):
    """Per round: 2 v_pair, 2 r_pair, 4 w_pair, 4 vdim, 1 overring,
    1 homogenize and 1 transport op. Kinds cycle by round so every seed
    gets the same mix."""
    OM = lib.orders.OrderMatrix
    w_mats = [OM([[1, 1]]), OM([[lib.scalars.QuadScalar(1), lib.scalars.SQRT2]]),
              OM([[2, 1]]), OM([[1, 1], [2, 2]])]
    vdim_mats = [(lib.orders.lex_matrix(2), "1,0;0,1"), (OM([[1, 1], [1, 0]]), "1,1;1,0"),
                 (OM([[2, 1], [1, 1]]), "2,1;1,1"), (OM([[1, 1]]), "1,1")]
    draws = Draws(lib, random.Random(f"witness:{seed}"))
    rounds = []
    for i in range(WITNESS_ROUNDS):
        ka, kb = _KINDS[i % 3], _KINDS[(i // 3) % 3]
        rounds.append({
            "v": draws.v_pair(ka, kb),
            "r": draws.r_pair(ka, kb),
            "w": [(m, *draws.w_pair()) for m in w_mats],
            "vdim": [(m, draws.vdim_pair(key, ka, kb)) for m, key in vdim_mats],
            "overring": draws.overring_pair(),
            "homogenize": draws.homogenize_pair(),
            "transport": draws.transport_pair(ka, kb),
        })
    return {"rounds": rounds, "tdim": draws.tdim, "graded": draws.graded,
            "redrawn": draws.redrawn}


def _verified(lib, w, elements):
    ok, reason = lib.witness.verify_witness(w, elements)
    return w, ok, reason


def _check_verified(result):
    _, ok, reason = result
    return _expect(ok, f"witness does not verify: {reason}")


def witness_ops(lib, inputs):
    W = lib.witness
    ops = []
    tdim, graded = inputs["tdim"], inputs["graded"]
    for rd in inputs["rounds"]:
        a, b = rd["v"]
        for swap in (False, True):
            ops.append(Op("v_pair", functools.partial(
                lambda a, b, s: _verified(lib, W.v_pair_witness(a, b, swap=s), [a, b]),
                a, b, swap), _check_verified))
        a, b = rd["r"]
        for swap in (False, True):
            ops.append(Op("r_pair", functools.partial(
                lambda a, b, s: _verified(lib, W.r_pair_witness(a, b, swap=s), [a, b]),
                a, b, swap), _check_verified))
        for m, a, b in rd["w"]:
            ops.append(Op("w_pair", functools.partial(
                lambda m, a, b: _verified(lib, W.w_pair_witness(m, a, b), [a, b]),
                m, a, b), _check_verified))
        for m, els in rd["vdim"]:
            ops.append(Op("vdim", functools.partial(
                lambda m, els: _verified(lib, W.vdim_witness(m, els), els),
                m, els), _check_verified))

        def overring(elements=rd["overring"]):
            values = [e.value for e in elements]
            return _verified(lib, W.overring_lex_witness(tdim, elements), values)
        ops.append(Op("overring", overring, _check_verified))

        def homogenize(a=rd["homogenize"]):
            w = W.vdim_witness(graded, a)
            homog, t0 = W.homogenize_witness(w.poly, a)
            vanishes = lib.laurent.evaluate(homog, a) == 0
            return homog, t0, vanishes

        def check_homogenize(result):
            homog, t0, vanishes = result
            if not vanishes:
                return "homogenized polynomial does not vanish"
            if len({sum(e) for e in homog.terms}) != 1:
                return "result is not homogeneous"
            return _expect(homog.coeff(t0).is_unit(), "marked coefficient is not a unit")
        ops.append(Op("homogenize", homogenize, check_homogenize))

        def transport(a=rd["transport"]):
            images = W.monomial_images(a, lib.orders.int_entries(tdim))
            w, ok1, reason1 = _verified(lib, W.vdim_witness(tdim, images), images)
            t, ok2, reason2 = _verified(lib, W.transport_witness_to_lex(w), a)
            return t, ok1 and ok2, reason1 or reason2
        ops.append(Op("transport", transport, _check_verified))
    return ops


def coeff_terms(c) -> int:
    """Stored terms of a coefficient: numerator plus denominator."""
    if hasattr(c, "value"):                       # WElem: its RatFun2
        c = c.value
    if hasattr(c, "num"):
        return _terms(c.num) + _terms(c.den)
    return 1


def _terms(x) -> int:
    if hasattr(x, "coeffs"):                      # MonoidRingElem
        return sum(coeff_terms(c) for c in x.coeffs.values())
    return len(x)                                 # RatFun1 tuple, RatFun2 dict


def output_terms(result):
    """(terms, largest coefficient's terms) of the polynomial an op
    produced, or None when it produced none."""
    if isinstance(result, tuple):
        result = result[0]
    poly = getattr(result, "poly", result)
    if not hasattr(poly, "terms"):
        return None
    return len(poly.terms), max(coeff_terms(c) for c in poly.terms.values())


# ---------------------------------------------------------------------------
# orders

ORDERS_BLOCKS = 2
# One weight per matrix shape (2 or 3 columns; 1, 2 or n rows), each shape
# 3 integer to 2 sqrt2 matrices; an assumption for coverage, not a
# measured usage mix.
_ORDER_CELLS = [(n, rows, kind) for n in (2, 3) for rows in ("one", "two", "n")
                for kind in ("int", "int", "int", "sqrt2", "sqrt2")]
BOX_SIDE = {2: 8, 3: 4}


def order_box(n):
    """The exponent vectors one op orders: {0..7}^2 or {0..3}^3, 64 either
    way, so a batch costs about the same for both widths."""
    return list(itertools.product(range(BOX_SIDE[n]), repeat=n))


def _random_valid_matrix(lib, rng, n, rows, kind):
    q = lib.scalars.QuadScalar
    nrows = {"one": 1, "two": 2, "n": n}[rows]
    while True:
        if kind == "int":
            raw = [[(rng.randint(-3, 3), 0) for _ in range(n)] for _ in range(nrows)]
        else:
            raw = [[(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                   for _ in range(nrows)]
        m = lib.orders.OrderMatrix([[q(a, b) for a, b in row] for row in raw])
        if lib.orders.validate_matrix(m):
            return m, raw


def _random_laurent(lib, rng, n):
    terms = {}
    for _ in range(rng.randint(2, 6)):
        e = tuple(rng.randint(-3, 3) for _ in range(n))
        terms[e] = _nonzero(lambda: lib.rings.random_fraction_elem(rng, lib.rings.QQ))
    return lib.laurent.LaurentPoly(terms, n)


def orders_inputs(lib, seed):
    """ORDERS_BLOCKS blocks of the 30 cells: columns 2 or 3, one row, two
    rows or n rows, 3 integer to 2 sqrt2 matrices; entries from the seed."""
    rng = random.Random(f"orders:{seed}")
    items = []
    for _ in range(ORDERS_BLOCKS):
        for n, rows, kind in _ORDER_CELLS:
            m, raw = _random_valid_matrix(lib, rng, n, rows, kind)
            items.append((m, raw, _random_laurent(lib, rng, n)))
    rng.shuffle(items)
    return {"items": items}


def orders_ops(lib, inputs):
    ops = []
    for m, raw, poly in inputs["items"]:
        def call(m=m, poly=poly):
            orders, laurent = lib.orders, lib.laurent
            cls = orders.classify(m)
            n = m.ncols
            box = order_box(n)
            box.sort(key=functools.cmp_to_key(
                lambda e, f: orders.compare_exponents(m, e, f)))
            nm = orders.normalize_rows(m)
            steps = [orders.compare_exponents(m, e, f) for e, f in zip(box, box[1:])]
            agree = all(orders.compare_exponents(nm, e, f) == s
                        for (e, f), s in zip(zip(box, box[1:]), steps))
            lc = None
            if cls.is_rational and cls.is_total_order and m.nrows == n:
                image = laurent.apply_monomial_map(poly, orders.int_entries(m))
                lc = (laurent.leading_coefficient(poly, m),
                      laurent.leading_coefficient(image, orders.lex_matrix(n)))
            return cls, box, steps, agree, lc

        def check(result, raw=raw):
            cls, box, steps, agree, lc = result
            if not agree:
                return "normalize_rows changed a neighbour comparison"
            if lc is not None and lc[0] != lc[1]:
                return "leading coefficient changed under transport"
            for (e, f), s in zip(zip(box, box[1:]), steps):
                want = _oracle_compare(raw, e, f)
                if s != want or s > 0:
                    return f"compare {e} {f} gave {s}, independent sign {want}"
                if cls.is_total_order and s == 0:
                    return f"tie {e} {f} under a total order"
            return None
        ops.append(Op(f"n{m.ncols}r{m.nrows}", call, check))
    return ops


def _oracle_compare(raw, e, f):
    """Independent sign of M*(e - f) from the integer entry pairs (a, b)
    of a + b*sqrt2, without the library's scalars."""
    for row in raw:
        a = sum(x * (i - j) for (x, _), i, j in zip(row, e, f))
        b = sum(y * (i - j) for (_, y), i, j in zip(row, e, f))
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or sb == 0:
            s = sa
        elif sa == 0:
            s = sb
        else:                       # opposite signs: compare a^2 with 2 b^2
            s = sa if a * a > 2 * b * b else sb
        if s:
            return s
    return 0


# ---------------------------------------------------------------------------
# cli

# One weight per verb, CLI_PER_VERB commands each, with witness split evenly
# over the V, R and W rings; suite runs once per named suite (each is a
# whole batch of library ops, and a repeat at the fixed suite seed would
# add no coverage). These proportions are an assumption for coverage, not
# a measured usage mix.
CLI_PER_VERB = 24
CLI_MIX = {"compare": CLI_PER_VERB, "classify": CLI_PER_VERB,
           "witness_v": CLI_PER_VERB // 3, "witness_r": CLI_PER_VERB // 3,
           "witness_w": CLI_PER_VERB // 3, "verify": CLI_PER_VERB,
           "transport": CLI_PER_VERB, "vdim": CLI_PER_VERB,
           "overring": CLI_PER_VERB, "homogenize": CLI_PER_VERB,
           "search": CLI_PER_VERB, "malformed": CLI_PER_VERB}
CLI_SUITES = ("lPrelim", "pW", "tDim", "tVdimA", "tVdimB")
# Suite inputs are drawn inside the suites and cannot be bounded like the
# other draws, so every workload seed runs the suites at this fixed seed.
CLI_SUITE_SEED = 7
_VDIM_TEXTS = tuple(SCALED_INVERSE)
_MALFORMED = [
    ["classify", "--matrix=1,x"],
    ["witness", "--ring", "V", "v^(", "v"],
    ["witness", "--ring", "Q", "v", "v"],
    ["compare", "--matrix=1,0;0,1", "1,0", "1"],
    ["witness", "--ring", "V", "u", "v"],
    ["vdim", "--matrix=1,1;1", "v", "v"],
]


def _matrix_text(rng, n, nrows, irrational):
    def entry():
        a = rng.randint(-3, 3)
        if irrational and rng.random() < 0.5:
            b = rng.randint(-2, 2)
            return f"{a}{'+' if b >= 0 else '-'}{abs(b)} s2"
        return str(a)
    return ";".join(",".join(entry() for _ in range(n)) for _ in range(nrows))


def _valid_matrix_text(lib, rng, n):
    while True:
        text = _matrix_text(rng, n, rng.choice([1, 2, n]), rng.random() < 0.4)
        if lib.orders.validate_matrix(lib.parsing.parse_matrix(text)):
            return text


def cli_inputs(lib, seed):
    """Argument lists, one per command, in a fixed per-pass mix."""
    rings = lib.rings
    rng = random.Random(f"cli:{seed}")
    QQ = rings.QQ
    draws = Draws(lib, rng)

    def elem(kind="any"):
        return str(rings.random_fraction_elem(rng, QQ, kind))

    def short(maxideal=False):
        return str(rings.FractionElem(rings.random_monoid_elem(
            rng, QQ, max_terms=2, min_positive=maxideal)))

    commands = []
    for kind, count in CLI_MIX.items():
        for i in range(count):
            if kind == "compare":
                n = rng.choice([2, 3])
                left = ",".join(str(rng.randint(0, 4)) for _ in range(n))
                right = ",".join(str(rng.randint(0, 4)) for _ in range(n))
                argv = ["compare", f"--matrix={_valid_matrix_text(lib, rng, n)}",
                        left, right]
            elif kind == "classify":
                n = rng.choice([2, 3])
                argv = ["classify",
                        f"--matrix={_matrix_text(rng, n, rng.choice([1, 2, n]), i % 5 >= 3)}"]
            elif kind in ("witness_v", "witness_r"):
                ring = kind[-1].upper()
                ka, kb = _KINDS[i % 3], _KINDS[(i // 3) % 3]
                pair = draws.v_pair(ka, kb) if ring == "V" else draws.r_pair(ka, kb)
                argv = ["witness", "--ring", ring] + (["--swap"] if i % 2 else []) + \
                    ["--"] + [str(x) for x in pair]
            elif kind == "witness_w":
                m = ["1,1", "1,0+1 s2", "2,1", "1,1;2,2"][i % 4]
                argv = ["witness", "--ring", "W", f"--matrix={m}", "--"] + \
                    [str(x) for x in draws.w_pair()]
            elif kind == "verify":
                # (X2 - r X1)(1 + X1 + X2) vanishes at (a, r a); X2 is minimal
                a, r = short(), short()
                m = ["1,0;0,1", "1,1", "1,1;1,0"][i % 3]
                poly = (f"X2 + X2^2 + (1 - ({r}))*X1*X2 + -1*({r})*X1"
                        f" + -1*({r})*X1^2")
                argv = ["verify", "--ring", "V", f"--matrix={m}", "--poly", poly,
                        "--", a, f"({r})*({a})"]
            elif kind == "transport":
                # under M = [[1,1],[1,0]] the images of (a, b) are (a b, a);
                # X2 - b^-1 X1 is a witness for them when b is a unit
                a, b = short(), elem("unit")
                s = f"1/({b})"
                poly = f"X2 + -1*({s})*X1 + X1*X2 + -1*({s})*X1^2"
                argv = ["transport", "--ring", "V", "--matrix=1,1;1,0", "--poly",
                        poly, "--", a, b]
            elif kind == "vdim":
                m = _VDIM_TEXTS[i % 4]
                pair = draws.vdim_pair(m, _KINDS[i % 3], _KINDS[(i // 3) % 3])
                argv = ["vdim", f"--matrix={m}", "--"] + [str(x) for x in pair]
            elif kind == "overring":
                pair = draws.overring_pair()
                argv = ["overring", "--matrix=1,1;1,0", "--den", str(pair[0].den),
                        "--"] + [str(e.value) for e in pair]
            elif kind == "homogenize":
                # X1 - r X2^k vanishes at (r b^k, b) for b in the maximal ideal
                b, r, k = short(maxideal=True), short(), 2 + i % 2
                a = "*".join([f"({r})"] + [f"({b})"] * k)
                argv = ["homogenize", "--poly", f"X1 + -1*({r})*X2^{k}", "--", a, b]
            elif kind == "search":
                g = ["1", "1/2", "3/2", "0+1 s2", "2", "1/2+1 s2"][i % 6]
                m = ["1,0;0,1", "1,1"][(i // 6) % 2]
                argv = ["search", "--ring", "V", f"--matrix={m}", "--max-degree", "2",
                        f"v^({g})", f"v^({g})*v^({g})"]
            else:
                argv = list(_MALFORMED[i % len(_MALFORMED)])
            commands.append((kind, argv))
    for name in CLI_SUITES:
        commands.append(("suite", ["suite", "--name", name, "--seed", str(CLI_SUITE_SEED),
                                   "--scale", "2", "--strip-timing"]))
    rng.shuffle(commands)
    return {"commands": commands, "redrawn": draws.redrawn}


def run_cli(lib, argv):
    """cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as ex:          # argparse usage errors
            code = ex.code
    return code, out.getvalue(), err.getvalue()


def cli_ops(lib, inputs):
    ops = []
    for kind, argv in inputs["commands"]:
        first = {}

        def check(result, kind=kind, argv=argv, first=first):
            code, out, _ = result
            if "out" in first:
                return _expect((code, out) == first["out"],
                               "output differs from the first pass")
            first["out"] = (code, out)
            return _check_cli(lib, kind, argv, code, out)
        ops.append(Op(kind, functools.partial(run_cli, lib, argv), check))
    return ops


def _check_cli(lib, kind, argv, code, out):
    if kind == "malformed":
        return _expect(code == 2 and not out, f"malformed input exited {code}")
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    P, O = lib.parsing, lib.orders
    if kind == "compare":
        m = P.parse_matrix(argv[1].split("=", 1)[1])
        e = tuple(int(x) for x in argv[2].split(","))
        f = tuple(int(x) for x in argv[3].split(","))
        want = {-1: "LESS", 0: "EQUAL", 1: "GREATER"}[O.compare_exponents(m, e, f)]
        return _expect(doc["result"] == want, f"compare gave {doc['result']}, direct {want}")
    if kind == "classify":
        m = P.parse_matrix(argv[1].split("=", 1)[1])
        if not O.validate_matrix(m):
            return _expect(doc["valid"] is False, "invalid matrix reported valid")
        c = O.classify(m)
        got = (doc["rational"], doc["graded"], doc["total_order"], doc["rank"])
        want = (c.is_rational, c.is_graded, c.is_total_order, c.rank)
        return _expect(got == want, f"classify gave {got}, direct {want}")
    if kind == "verify":
        return _expect(doc["ok"] is True, "verify rejected a valid witness")
    if kind == "homogenize":
        return _expect(doc["ok"] is True, "homogenize check failed")
    if kind == "search":
        if doc["found"] is None:
            return "positive search found nothing"
        m = P.parse_matrix(argv[3].split("=", 1)[1])
        els = [P.parse_element(t, "V") for t in argv[-2:]]
        poly = P.parse_poly(doc["found"], "V", 2)
        ok, reason = lib.witness.verify_witness(lib.witness.Witness(poly, m), els)
        return _expect(ok, f"search hit does not verify: {reason}")
    if kind == "suite":
        return _expect(doc["summary"]["failed"] == 0, "suite reported failures")
    return _expect(doc.get("verified") is True, "witness not verified")


def inputs_text(x) -> str:
    """A canonical text of a workload's inputs, from the printed forms of
    the library values, so two runs can show they drew the same inputs."""
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(inputs_text(y) for y in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{inputs_text(v)}"
                              for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))) + "}"
    return str(x)


WORKLOADS = {
    "search": (search_inputs, search_ops),
    "witness": (witness_inputs, witness_ops),
    "orders": (orders_inputs, orders_ops),
    "cli": (cli_inputs, cli_ops),
}
