"""Shared test helpers: the parameter grid, an independently derived
idempotent-basis oracle for the cyclic family, hand-built diagram fixtures,
and a session-level algebra cache.

Everything here is computed from first principles (definitions of the
structures themselves), never by calling the code paths under test, so the
main suite can compare engine output against these values exactly.
"""

import os
from fractions import Fraction
from math import gcd

from hopfg import builtin_algebra, solve_integrals
from hopfg.algebra import GradedTensor, GradedVector, HopfGAlgebra
from hopfg.cyclo import Cyclo
from hopfg.diagrams import (
    Crossing,
    CrossingEnd,
    DotPassage,
    DottedComponent,
    KirbyDiagram,
    UndottedComponent,
)
from hopfg.groups import cyclic_group


def O(c):
    return CrossingEnd(c, True)


def U(c):
    return CrossingEnd(c, False)


def D(x, down=True):
    return DotPassage(x, down)


# -- parameter grid -----------------------------------------------------------


def grid():
    """All (k, l, d) triples; HOPFG_TEST_GRID=small shrinks local runs."""
    if os.environ.get("HOPFG_TEST_GRID") == "small":
        return [(1, 1, 0), (1, 2, 1), (2, 3, 1), (1, 4, 3), (3, 2, 1)]
    return [(k, l, d) for k in (1, 2, 3) for l in range(1, 7) for d in range(l)]


def spec_of(k, l, d):
    return f"cyclic:k={k},l={l},d={d}"


_BANK = {}


def bank(spec):
    """Cached (algebra, integral data) per builtin spec string."""
    got = _BANK.get(spec)
    if got is None:
        H = builtin_algebra(spec)
        got = (H, solve_integrals(H))
        _BANK[spec] = got
    return got


# -- idempotent oracle for the cyclic family ----------------------------------


def idempotent(H, a):
    """E_a = (1/l) sum_i omega^{-ia} g^{ik}, the a-th character idempotent
    of the identity grade."""
    l = H.dims[H.group.identity_index]
    inv_l = Cyclo.rational(1, l, conductor=H.conductor)
    return GradedVector(
        H.group.identity,
        {i: inv_l * Cyclo.zeta(l, (-i * a) % l) for i in range(l)},
    )


def oracle_r_tensor(H, d):
    """R_d = sum_{i,j} omega^{d i j} E_i (x) E_j, assembled from idempotents."""
    l = H.dims[H.group.identity_index]
    e = H.group.identity
    out = {}
    for a in range(l):
        ea = idempotent(H, a).entries
        for b in range(l):
            w = Cyclo.zeta(l, (d * a * b) % l)
            for i, vi in ea.items():
                for j, vj in idempotent(H, b).entries.items():
                    key = (i, j)
                    term = w * vi * vj
                    acc = out.get(key)
                    term = term if acc is None else acc + term
                    if term:
                        out[key] = term
                    elif acc is not None:
                        del out[key]
    return GradedTensor((e, e), out)


def tensor_coprod_leg(H, t, pos, nfactors):
    """Replace tensor leg pos with its iterated-coproduct expansion."""
    grades = t.grades[:pos] + (t.grades[pos],) * nfactors + t.grades[pos + 1:]
    one = Cyclo.one(H.conductor)
    out = {}
    for key, cv in t.entries.items():
        base = GradedVector(t.grades[pos], {key[pos]: one})
        for sub, sv in H.coproduct_power(base, nfactors).entries.items():
            nk = key[:pos] + sub + key[pos + 1:]
            w = out.get(nk)
            w = cv * sv if w is None else w + cv * sv
            if w:
                out[nk] = w
            elif nk in out:
                del out[nk]
    return GradedTensor(grades, out)


# -- hand-built diagram fixtures ----------------------------------------------


def braid_closure():
    """Closure of a positive three-crossing braid on three strands; the
    crossings 0, 1, 2 form an applicable I-3 site."""
    return KirbyDiagram(
        dotted=(),
        undotted=(
            UndottedComponent(0, (O(0), O(1), U(1), U(2))),
            UndottedComponent(1, (U(0), O(2))),
        ),
        crossings=tuple(Crossing(i, True) for i in range(3)),
    )


def two_kinks():
    """A single unknotted component with two positive kinks (writhe 2)."""
    return KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, (O(0), U(0), O(1), U(1))),),
        crossings=(Crossing(0, True), Crossing(1, True)),
    )


def pair_crossing_through_disk(sign):
    """Move II-2 site: one strand runs twice through a dot's disk and
    crosses itself once; left has the crossing above the disk, right has it
    below.  Both passages are downward, so any color of order dividing 2
    works."""
    left = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 3), (0, 1))),),
        undotted=(UndottedComponent(0, (O(0), D(0), U(0), D(0))),),
        crossings=(Crossing(0, sign),),
    )
    right = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 2))),),
        undotted=(UndottedComponent(0, (D(0), O(0), D(0), U(0))),),
        crossings=(Crossing(0, sign),),
    )
    return left, right


def pair_strand_behind_disk(sign):
    """Move II-3 site: a transverse strand passes behind both arcs of a
    component that runs twice through a dot; left crosses below the disk,
    right crosses above it."""
    left = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 2))),),
        undotted=(
            UndottedComponent(0, (D(0), O(0), D(0), O(1))),
            UndottedComponent(1, (U(0), U(1))),
        ),
        crossings=(Crossing(0, sign), Crossing(1, sign)),
    )
    right = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 1), (0, 3))),),
        undotted=(
            UndottedComponent(0, (O(0), D(0), O(1), D(0))),
            UndottedComponent(1, (U(0), U(1))),
        ),
        crossings=(Crossing(0, sign), Crossing(1, sign)),
    )
    return left, right


def pair_strand_in_front_of_disk(sign):
    """Move II-4 site: mirror of the II-3 site with the transverse strand
    passing in front, met in the opposite order."""
    trans = (O(1), O(0))
    left = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 2))),),
        undotted=(
            UndottedComponent(0, (D(0), U(0), D(0), U(1))),
            UndottedComponent(1, trans),
        ),
        crossings=(Crossing(0, sign), Crossing(1, sign)),
    )
    right = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 1), (0, 3))),),
        undotted=(
            UndottedComponent(0, (U(0), D(0), U(1), D(0))),
            UndottedComponent(1, trans),
        ),
        crossings=(Crossing(0, sign), Crossing(1, sign)),
    )
    return left, right


def pair_loop_around_strands():
    """Move III-2 site: an undotted loop encircling both arcs of a component
    that runs twice through a dot, versus the split state."""
    before = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 1), (0, 4))),),
        undotted=(
            UndottedComponent(0, (O(0), D(0), U(2), O(1), D(0), U(3))),
            UndottedComponent(1, (U(0), U(1), O(3), O(2))),
        ),
        crossings=tuple(Crossing(i, True) for i in range(4)),
    )
    after = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 1))),),
        undotted=(
            UndottedComponent(0, (D(0), D(0))),
            UndottedComponent(1, ()),
        ),
        crossings=(),
    )
    return before, after


def parallel_pair_of_kink():
    """Blackboard-framed double of the single-kink component: two copies,
    each with its own kink, clasped together (four positive crossings)."""
    return KirbyDiagram(
        dotted=(),
        undotted=(
            UndottedComponent(0, (O(0), O(1), U(0), U(2))),
            UndottedComponent(1, (O(2), O(3), U(1), U(3))),
        ),
        crossings=tuple(Crossing(i, True) for i in range(4)),
    )


def kink_through_disk():
    """A component with one positive kink that runs down through a dot's
    disk before the crossing and back up after it; flat for every color."""
    return KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 2))),),
        undotted=(UndottedComponent(0, (D(0), O(0), D(0, False), U(0))),),
        crossings=(Crossing(0, True),),
    )


def kink_with_split_unknot():
    """The single positive kink plus a disjoint zero-framed unknot."""
    return KirbyDiagram(
        dotted=(),
        undotted=(
            UndottedComponent(0, (O(0), U(0))),
            UndottedComponent(1, ()),
        ),
        crossings=(Crossing(0, True),),
    )


def two_dots_chain():
    """One component passing down through two distinct dots; the coloring
    forces the colors to be mutually inverse."""
    return KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0),)), DottedComponent(1, ((0, 1),))),
        undotted=(UndottedComponent(0, (D(0), D(1))),),
        crossings=(),
    )


# -- a four-dimensional Hopf algebra with no two-sided integral ---------------


def non_unimodular_h4():
    """Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx; its left and right
    integral spaces differ, so no two-sided integral exists."""
    one = Cyclo.one(1)
    m1 = Cyclo.rational(-1)
    G = cyclic_group(1)
    product = {(0, 0): {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: m1}, (2, 2): {}, (2, 3): {},
        (3, 0): {3: one}, (3, 1): {2: m1}, (3, 2): {}, (3, 3): {},
    }}
    coproduct = [[
        {(0, 0): one},
        {(1, 1): one},
        {(2, 0): one, (1, 2): one},
        {(3, 1): one, (0, 3): one},
    ]]
    counit = [[one, one, Cyclo.zero(1), Cyclo.zero(1)]]
    antipode = [[{0: one}, {1: one}, {3: m1}, {2: one}]]
    crossing = {(0, 0): [{i: one} for i in range(4)]}
    return HopfGAlgebra(
        G, (4,), 1, product, {0: one}, coproduct, counit, antipode,
        crossing, {(0, 0): one}, basis_names=[["1", "g", "x", "gx"]],
    )


def rational(n, d=1):
    return Cyclo.rational(Fraction(n, d))


# -- reference cyclotomic arithmetic ------------------------------------------
#
# The sparse representation Cyclo had before its dense int form: a scalar is
# (n, {exponent: Fraction}) reduced mod Phi_n, and Phi_n comes from dividing
# x^n - 1 by Phi_d for every proper divisor d.  The differential test in
# test_cyclo.py compares Cyclo with these functions exactly.


def _ref_divide_exact(num, den):
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dn]
        quot[k] = c
        if c:
            for j in range(dn + 1):
                num[k + j] -= c * den[j]
    assert not any(num), "non-exact polynomial division"
    return quot


_REF_PHI = {}


def ref_cyclotomic(n):
    """Phi_n, ascending integer coefficients, by divisor division."""
    got = _REF_PHI.get(n)
    if got is None:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _ref_divide_exact(poly, ref_cyclotomic(d))
        got = _REF_PHI[n] = tuple(poly)
    return got


_REF_ROWS = {}


def _ref_rows(n):
    """x^e mod Phi_n as dense rows, for deg(Phi_n) <= e < n."""
    got = _REF_ROWS.get(n)
    if got is None:
        phi = ref_cyclotomic(n)
        deg = len(phi) - 1
        rows = {}
        cur = [-c for c in phi[:deg]]
        for e in range(deg, n):
            rows[e] = tuple(cur)
            lead = cur[deg - 1]
            cur = [0] + cur[: deg - 1]
            if lead:
                for j in range(deg):
                    cur[j] -= lead * phi[j]
        got = _REF_ROWS[n] = (deg, rows)
    return got


def ref_reduce(n, raw):
    """{exponent: rational} with any int exponents, reduced mod Phi_n."""
    deg, rows = _ref_rows(n)
    out = {}
    for e, v in raw.items():
        if not v:
            continue
        e %= n
        if e < deg:
            out[e] = out.get(e, 0) + Fraction(v)
        else:
            for j, r in enumerate(rows[e]):
                if r:
                    out[j] = out.get(j, 0) + Fraction(v) * r
    return {e: v for e, v in out.items() if v}


def ref_lift(a, n):
    m, c = a
    assert n % m == 0
    return n, ref_reduce(n, {e * (n // m): v for e, v in c.items()})


def _ref_align(a, b):
    n = a[0] * b[0] // gcd(a[0], b[0])
    return ref_lift(a, n), ref_lift(b, n)


def ref_add(a, b):
    (n, x), (_, y) = _ref_align(a, b)
    out = dict(x)
    for e, v in y.items():
        out[e] = out.get(e, 0) + v
    return n, {e: v for e, v in out.items() if v}


def ref_neg(a):
    return a[0], {e: -v for e, v in a[1].items()}


def ref_mul(a, b):
    (n, x), (_, y) = _ref_align(a, b)
    raw = {}
    for e1, v1 in x.items():
        for e2, v2 in y.items():
            raw[e1 + e2] = raw.get(e1 + e2, 0) + v1 * v2
    return n, ref_reduce(n, raw)


def ref_conjugate(a):
    n, c = a
    return n, ref_reduce(n, {-e % n: v for e, v in c.items()})


def ref_equal(a, b):
    (_, x), (_, y) = _ref_align(a, b)
    return x == y


# -- term-by-term expansion of the invariant ----------------------------------
#
# The bracket as the evaluate.py docstring defines it, with no contraction:
# every expansion term picks one entry of every site tensor, each undotted
# component multiplies its slot elements in traversal order from the unit
# and applies lam, and the bracket sums the term coefficient times the
# component values.  Site tensors are built here from the structure tables;
# only the scalar type and the solved integrals are shared with the engine.


def _ref_coproduct_power(H, a, vec, k):
    """Delta^{(k-1)} of a grade-a vector, splitting the first factor each
    time (the engine splits the last)."""
    zero = Cyclo.zero(H.conductor)
    terms = {(i,): v for i, v in vec.items()}
    for _ in range(k - 1):
        nxt = {}
        for idx, v in terms.items():
            for pq, c in H.coproduct[a][idx[0]].items():
                key = pq + idx[1:]
                nxt[key] = nxt.get(key, zero) + v * c
        terms = {key: v for key, v in nxt.items() if v}
    return terms


def _ref_antipode_at(H, a, terms, f):
    """S applied to factor f (of grade a) of a tensor."""
    zero = Cyclo.zero(H.conductor)
    out = {}
    for idx, v in terms.items():
        for j, c in H.antipode[a][idx[f]].items():
            key = idx[:f] + (j,) + idx[f + 1:]
            out[key] = out.get(key, zero) + v * c
    return {key: v for key, v in out.items() if v}


def expansion_sites(H, ints, cd):
    """(scalar, sites): the product of eps(Lambda) over dots without
    passages, and one (entries, slots) per dot with passages and per
    crossing, where entries is a list of (index tuple, coefficient) and
    slot f is ((undotted id, event position), grade index)."""
    d = cd.diagram
    G = H.group
    e = G.identity_index
    scalar = Cyclo.one(H.conductor)
    sites = []
    for x in d.dotted:
        a = cd.colors[x.id].index
        vec = ints.integral(a).entries if H.dims[a] else {}
        if not x.passages:
            eps = Cyclo.zero(H.conductor)
            for i, v in vec.items():
                eps = eps + v * H.counit[a][i]
            scalar = scalar * eps
            continue
        terms = _ref_coproduct_power(H, a, vec, len(x.passages))
        slots = []
        for f, (u, p) in enumerate(x.passages):
            down = d.undotted_by_id(u).events[p].down
            if not down:
                terms = _ref_antipode_at(H, a, terms, f)
            slots.append(((u, p), a if down else G.inverses[a]))
        sites.append((sorted(terms.items()), slots))
    ends = {}
    for u in d.undotted:
        for p, ev in enumerate(u.events):
            if isinstance(ev, CrossingEnd):
                ends[ev.crossing, ev.over] = (u.id, p)
    for c in d.crossings:
        terms = dict(H.rmatrix)
        if not c.positive:
            terms = _ref_antipode_at(H, e, terms, 0)
        sites.append((sorted(terms.items()),
                      [(ends[c.id, True], e), (ends[c.id, False], e)]))
    return scalar, sites


def expansion_invariant(H, ints, cd):
    """The invariant of cd summed term by term over the expansion; the
    number of terms is the product of the site entry counts."""
    d = cd.diagram
    G = H.group
    zero = Cyclo.zero(H.conductor)
    scalar, sites = expansion_sites(H, ints, cd)
    # each component's value is looked up by the basis elements at its
    # events, in traversal order, once the last site it touches is chosen
    last = {u.id: -1 for u in d.undotted}
    for s, (_, slots) in enumerate(sites):
        for (u, _), _ in slots:
            last[u] = s
    done_at = [[u for u in d.undotted if last[u.id] == s] for s in range(len(sites))]
    values = {}

    def component_value(u, chosen):
        word = tuple(chosen[u.id, p] for p in range(len(u.events)))
        got = values.get((u.id, word))
        if got is None:
            g, vec = G.identity_index, dict(H.unit)
            for h, i in word:
                nxt = {}
                for x, v in vec.items():
                    for y, c in H.product[g, h][x, i].items():
                        nxt[y] = nxt.get(y, zero) + v * c
                g, vec = G.table[g][h], {y: v for y, v in nxt.items() if v}
            got = zero
            for x, v in vec.items():
                got = got + v * ints.lam_values[x]
            values[u.id, word] = got
        return got

    chosen = {}
    for u in d.undotted:
        if last[u.id] < 0:
            scalar = scalar * component_value(u, chosen)

    def expand(s, coeff):
        if not coeff:
            return zero
        if s == len(sites):
            return coeff
        entries, slots = sites[s]
        total = zero
        for idx, v in entries:
            for ((u, p), g), i in zip(slots, idx):
                chosen[u, p] = (g, i)
            c = coeff * v
            for u in done_at[s]:
                c = c * component_value(u, chosen)
            total = total + expand(s + 1, c)
        return total

    bracket = expand(0, scalar)
    exponent = len(d.dotted) - len(d.undotted)
    norm = Cyclo.rational(Fraction(H.dims[G.identity_index]) ** exponent,
                          conductor=H.conductor)
    return norm * bracket


def expansion_size(H, ints, cd):
    """Number of terms expansion_invariant sums."""
    size = 1
    for entries, _ in expansion_sites(H, ints, cd)[1]:
        size *= len(entries)
    return size
