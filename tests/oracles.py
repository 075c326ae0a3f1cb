"""Shared test helpers: the parameter grid, an independently derived
idempotent-basis oracle for the cyclic family, hand-built diagram fixtures,
and a session-level algebra cache.

Everything here is computed from first principles (definitions of the
structures themselves), never by calling the code paths under test, so the
main suite can compare engine output against these values exactly.
"""

from fractions import Fraction
import itertools
from math import gcd

from hopfg import builtin_algebra, solve_integrals
from hopfg.algebra import GradedVector, HopfGAlgebra
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
    """All (k, l, d) triples."""
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
    of the identity grade, as a sparse vector."""
    l = H.dims[H.group.identity_index]
    inv_l = Cyclo.rational(1, l, conductor=H.conductor)
    return {i: inv_l * Cyclo.zeta(l, (-i * a) % l) for i in range(l)}


def lam(ints, x):
    """The cointegral lam on a sparse grade-1 vector x, read off its values
    on the basis (ints.lam_values)."""
    return sum((v * ints.lam_values[i] for i, v in x.items()), Cyclo.zero(1))


def oracle_r_tensor(H, d):
    """R_d = sum_{i,j} omega^{d i j} E_i (x) E_j, assembled from idempotents,
    as a sparse 2-tensor."""
    l = H.dims[H.group.identity_index]
    out = {}
    for a in range(l):
        ea = idempotent(H, a)
        for b in range(l):
            w = Cyclo.zeta(l, (d * a * b) % l)
            for i, vi in ea.items():
                for j, vj in idempotent(H, b).items():
                    key = (i, j)
                    term = w * vi * vj
                    acc = out.get(key)
                    term = term if acc is None else acc + term
                    if term:
                        out[key] = term
                    elif acc is not None:
                        del out[key]
    return out


def tensor_coprod_leg(H, t, pos, nfactors):
    """Replace leg pos of a sparse tensor whose factors are all of grade 1
    with its iterated-coproduct expansion."""
    e, one = H.group.identity, Cyclo.one(H.conductor)
    out = {}
    for key, cv in t.items():
        base = GradedVector(e, {key[pos]: one})
        for sub, sv in H.coproduct_power(base, nfactors).entries.items():
            nk = key[:pos] + sub + key[pos + 1:]
            w = out.get(nk)
            w = cv * sv if w is None else w + cv * sv
            if w:
                out[nk] = w
            elif nk in out:
                del out[nk]
    return out


def ref_tensor_mul(H, ga, s, gb, t):
    """The slotwise product s*t of two sparse tensors of one arity, whose
    factors have grade indices ga and gb, term by term over pairs of
    entries: factor p of a pair is e_i e_j read from H.product, and every
    scalar is multiplied, one or not."""
    out = {}
    for ka, va in s.items():
        for kb, vb in t.items():
            terms = [((), va * vb)]
            for x, y, i, j in zip(ga, gb, ka, kb):
                vec = H.product[x, y][i][j]
                terms = [(key + (u,), c * w) for key, c in terms for u, w in vec.items()]
            for key, c in terms:
                w = out.get(key)
                w = c if w is None else w + c
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
    return out


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


def dot_with_passages(k):
    """One dot that a single component passes through k times, alternately
    down and up; flat for every color when k is even.  Each down-up pair
    cancels, so the value is that of the dot beside a bare unknot."""
    return KirbyDiagram(
        dotted=(DottedComponent(0, tuple((0, p) for p in range(k))),),
        undotted=(UndottedComponent(0, tuple(D(0, p % 2 == 0) for p in range(k))),),
        crossings=(),
    )


def dots_between_two_components(n):
    """n dots, each passed down by component 0 and up by component 1, so
    the fold opens one axis per dot: at kac-paljutkin each dot site has 20
    entries and the table grows about eightfold per dot."""
    return KirbyDiagram(
        dotted=tuple(DottedComponent(i, ((0, i), (1, i))) for i in range(n)),
        undotted=(UndottedComponent(0, tuple(D(i) for i in range(n))),
                  UndottedComponent(1, tuple(D(i, False) for i in range(n)))),
        crossings=(),
    )


def kink_on_clasp(positive, over_first):
    """A kink (crossing 0, either sign, either end first) on a component
    that also clasps a second one (crossings 1 and 2)."""
    kink = (O(0), U(0)) if over_first else (U(0), O(0))
    return KirbyDiagram(
        dotted=(),
        undotted=(
            UndottedComponent(0, kink + (O(1), U(2))),
            UndottedComponent(1, (U(1), O(2))),
        ),
        crossings=(Crossing(0, positive), Crossing(1, True), Crossing(2, True)),
    )


def parallel_pair(signs, over_twice, y_reversed):
    """Crossings 0 and 1 with cyclically adjacent ends on both components:
    X = component 0 runs down and back up through a dot around them, and
    Y = component 1 carries a positive kink (crossing 2) after them.  X is
    over at both (a Reidemeister-II pair) or over at 0 and under at 1 (a
    clasp); Y meets them in X's order or reversed."""
    xb, yb = (O(1), U(1)) if over_twice else (U(1), O(1))
    y = (yb, U(0)) if y_reversed else (U(0), yb)
    return KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 3))),),
        undotted=(
            UndottedComponent(0, (D(0), O(0), xb, D(0, False))),
            UndottedComponent(1, y + (O(2), U(2))),
        ),
        crossings=(Crossing(0, signs[0]), Crossing(1, signs[1]), Crossing(2, True)),
    )


def three_parallel_crossings():
    """Component 0 passes over component 1 three times in a row, at
    crossings 0 (+), 1 (-) and 2 (+), and component 1 meets them in
    reverse: both (0, 1) and (1, 2) are parallel pairs."""
    return KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 3), (0, 4))),),
        undotted=(
            UndottedComponent(0, (O(0), O(1), O(2), D(0), D(0, False))),
            UndottedComponent(1, (U(2), U(1), U(0))),
        ),
        crossings=(Crossing(0, True), Crossing(1, False), Crossing(2, True)),
    )


def one_event_components():
    """One crossing between two components of one event each, so each
    end is its own neighbour without being a kink or a pair."""
    return KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, (O(0),)), UndottedComponent(1, (U(0),))),
        crossings=(Crossing(0, True),),
    )


def db2():
    """DB_2: a component K running twice down through dot 0, as the
    closure of the braid sigma_1 about the dot's axis (crossing 0), and a
    0-framed meridian clasping K (crossings 1 and 2); one 3-handle.  Its
    value depends on the connection."""
    return KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 2))),),
        undotted=(
            UndottedComponent(0, (D(0), O(0), D(0), U(0), O(1), U(2))),
            UndottedComponent(1, (U(1), O(2))),
        ),
        crossings=tuple(Crossing(i, True) for i in range(3)),
        h3=1,
        h4=1,
    )


def two_dots_chain():
    """One component passing down through two distinct dots; the coloring
    forces the colors to be mutually inverse."""
    return KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0),)), DottedComponent(1, ((0, 1),))),
        undotted=(UndottedComponent(0, (D(0), D(1))),),
        crossings=(),
    )


def product_of_two_dots():
    """One component running down through dot 1, then dot 0, then up
    through dot 2: its one relation leaves the colors of dots 0 and 1 free
    and fixes that of dot 2, so under a non-abelian group the side a move
    conjugates or multiplies on shows."""
    return KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 1),)), DottedComponent(1, ((0, 0),)),
                DottedComponent(2, ((0, 2),))),
        undotted=(UndottedComponent(0, (D(1), D(0), D(2, False))),),
        crossings=(),
    )


# -- a four-dimensional Hopf algebra with no two-sided integral ---------------


def non_unimodular_h4():
    """Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx; its left and right
    integral spaces differ, so no two-sided integral exists."""
    one = Cyclo.one(1)
    m1 = Cyclo.rational(-1)
    G = cyclic_group(1)
    product = {(0, 0): [
        [{0: one}, {1: one}, {2: one}, {3: one}],
        [{1: one}, {0: one}, {3: one}, {2: one}],
        [{2: one}, {3: m1}, {}, {}],
        [{3: one}, {2: m1}, {}, {}],
    ]}
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


# -- small structures on which integral solving fails ---------------------------
# The constructor checks structure, not axioms, so each of these loads.


def _trivially_graded(name, product, unit, coproduct, counit, antipode):
    """An algebra over the trivial group with the given maps on H_1,
    conductor 1, the identity crossing and R = e0 (x) e0."""
    one = Cyclo.one(1)
    return HopfGAlgebra(
        cyclic_group(1), (len(counit),), 1, {(0, 0): product}, unit, [coproduct],
        [counit], [antipode], {(0, 0): [{i: one} for i in range(len(counit))]},
        {(0, 0): one}, name=name,
    )


def dual_numbers():
    """k[x]/(x^2) with D(x) = x (x) 1 + 1 (x) x and eps(x) = 0: the
    two-sided integrals are the multiples of x, where the counit vanishes."""
    one, zero = Cyclo.one(1), Cyclo.zero(1)
    return _trivially_graded(
        "dual numbers", [[{0: one}, {1: one}], [{1: one}, {}]], {0: one},
        [{(0, 0): one}, {(1, 0): one, (0, 1): one}], [one, zero],
        [{0: one}, {1: Cyclo.rational(-1)}])


def zero_product():
    """Two basis vectors whose products and counit values are all 0 (with
    D(e_i) = e_i (x) e_i): every vector is a two-sided integral."""
    one, zero = Cyclo.one(1), Cyclo.zero(1)
    return _trivially_graded(
        "zero product", [[{}, {}], [{}, {}]], {0: one},
        [{(0, 0): one}, {(1, 1): one}], [zero, zero], [{0: one}, {1: one}])


def cointegral_off_the_integral():
    """k x k with orthogonal idempotents e0, e1, unit e0 + e1, eps = (1, 0),
    D(e0) = e0 (x) e0 and D(e1) = e0 (x) e1 + e1 (x) e0 + e1 (x) e1: the
    integrals are the multiples of e0 and the cointegrals those of e1*,
    which vanishes on e0."""
    one, zero = Cyclo.one(1), Cyclo.zero(1)
    return _trivially_graded(
        "cointegral off the integral", [[{0: one}, {}], [{}, {1: one}]], {0: one, 1: one},
        [{(0, 0): one}, {(0, 1): one, (1, 0): one, (1, 1): one}], [one, zero],
        [{0: one}, {1: one}])


def z2_group_algebra(f_times_1=True, f_squared=True):
    """k[Z_2] graded by Z_2: 1 in grade 1 and f in grade a, every coproduct,
    counit, antipode and crossing value 1, except that f*1 or f*f is 0
    where its flag is false.  Solving gives L_1 = 1 and L_a = f*1; with
    f*f = 0 the left integral law fails at (a, a), and with f*1 = 0 the
    right one at (1, a)."""
    one = Cyclo.one(1)
    product = {(0, 0): [[{0: one}]], (0, 1): [[{0: one}]],
               (1, 0): [[{0: one} if f_times_1 else {}]],
               (1, 1): [[{0: one} if f_squared else {}]]}
    return HopfGAlgebra(
        cyclic_group(2), (1, 1), 1, product, {0: one}, [[{(0, 0): one}]] * 2,
        [[one]] * 2, [[{0: one}]] * 2, {(b, a): [{0: one}] for b in range(2) for a in range(2)},
        {(0, 0): one}, name="Z_2 line",
    )


# -- the Drinfeld double of S3, whose R legs do not commute ---------------------


def double_s3():
    """D(S3) graded over the trivial group: basis delta_a x (index 6a + x,
    a and x permutations of range(3) in sorted order), with
    (delta_a x)(delta_b y) = [a = x b x^-1] delta_a xy,
    Delta(delta_a x) = sum_{bc = a} delta_b x (x) delta_c x,
    S(delta_a x) = delta_{x^-1 a^-1 x} x^-1 and R = sum_g delta_g (x) g.
    Its R legs, delta_g and g, do not commute, so the order in which a
    merged crossing site multiplies them shows."""
    perms = sorted(itertools.permutations(range(3)))
    n = len(perms)
    idx = {p: i for i, p in enumerate(perms)}
    mul = [[idx[tuple(p[i] for i in q)] for q in perms] for p in perms]
    inv = [idx[tuple(sorted(range(3), key=p.__getitem__))] for p in perms]
    e = idx[(0, 1, 2)]
    one, zero = Cyclo.one(1), Cyclo.zero(1)

    def conj(x, a):
        return mul[mul[x][a]][inv[x]]

    def basis(a, x):
        return a * n + x

    pairs = [(a, x) for a in range(n) for x in range(n)]
    product = [[{basis(a, mul[x][y]): one} if a == conj(x, b) else {} for b, y in pairs]
               for a, x in pairs]
    coproduct = [{(basis(b, x), basis(mul[inv[b]][a], x)): one for b in range(n)}
                 for a, x in pairs]
    counit = [one if a == e else zero for a, _ in pairs]
    antipode = [{basis(conj(inv[x], inv[a]), inv[x]): one} for a, x in pairs]
    rmatrix = {(basis(g, e), basis(h, g)): one for g in range(n) for h in range(n)}
    return HopfGAlgebra(
        cyclic_group(1), (n * n,), 1, {(0, 0): product}, {basis(a, e): one for a in range(n)},
        [coproduct], [counit], [antipode], {(0, 0): [{i: one} for i in range(n * n)]},
        rmatrix, name="D(S3)",
    )


def merged_crossing_site(H, d, ids):
    """The crossings ids of d multiplied out into one site, read off the
    diagram: every term picks one entry of each crossing's R or
    (S (x) id)(R), and each component that meets them multiplies the basis
    elements at their ends in its traversal order, starting after the
    event that is not one of them (so each such component must have one).
    Factor 0 is read on the component of ids[0]'s over end, and factor 1,
    if any, on the other."""
    e = H.group.identity_index
    zero, one = Cyclo.zero(H.conductor), Cyclo.one(H.conductor)
    sites = {}
    for c in d.crossings:
        if c.id in ids:
            terms = dict(H.rmatrix)
            if not c.positive:
                terms = _ref_antipode_at(H, e, terms, 0)
            sites[c.id] = sorted(terms.items())
    reads = {}  # component id -> its (crossing, tensor factor) ends in order
    for u in d.undotted:
        ends = [(p, ev.crossing, 0 if ev.over else 1) for p, ev in enumerate(u.events)
                if isinstance(ev, CrossingEnd) and ev.crossing in ids]
        if ends:
            k = len(u.events)
            ps = {p for p, _, _ in ends}
            start = next(p for p in sorted(ps) if (p - 1) % k not in ps)
            ends.sort(key=lambda t: (t[0] - start) % k)
            reads[u.id] = [(c, f) for _, c, f in ends]
    first = next(u.id for u in d.undotted if (ids[0], 0) in reads.get(u.id, ()))
    words = [reads[first]] + [w for uid, w in reads.items() if uid != first]
    out = {}
    for choice in itertools.product(*(sites[c] for c in ids)):
        picked = {c: t for c, (t, _) in zip(ids, choice)}
        coeff = one
        for _, v in choice:
            coeff = coeff * v
        tensor = {(): coeff}
        for word in words:
            vec = dict(H.unit)
            for c, f in word:
                nxt = {}
                for x, v in vec.items():
                    for y, w in H.product[e, e][x][picked[c][f]].items():
                        nxt[y] = nxt.get(y, zero) + v * w
                vec = {y: v for y, v in nxt.items() if v}
            tensor = {t + (y,): v * w for t, v in tensor.items() for y, w in vec.items()}
        for t, v in tensor.items():
            out[t] = out.get(t, zero) + v
    return sorted((t, v) for t, v in out.items() if v)


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
    events = {u.id: u.events for u in d.undotted}
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
            down = events[u][p].down
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
                    for y, c in H.product[g, h][x][i].items():
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
