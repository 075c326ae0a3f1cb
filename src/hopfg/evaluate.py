"""Evaluation of colored Kirby diagrams against a Hopf G-algebra.

Each dotted component with color alpha and k passages contributes the
k-fold tensor (S^s1 (x) ... (x) S^sk)(Delta^{(k-1)}(Lambda_alpha)),
factor i assigned to the i-th passage point in disk order; each
crossing contributes R (positive) or (S (x) id)(R) (negative), first
factor to the over strand.  Per expansion term, the slot elements on
each undotted component are multiplied in traversal order and fed to
lam; the bracket is the sum over all terms of the product of component
evaluations.  The invariant multiplies the bracket by
dim(H_1)^(dotted - undotted).

The expansion is contracted as a sparse tensor network rather than
enumerated term by term.  Its sites are the dots' tensors and the
crossing sites: a kink is pre-multiplied into one factor, and a clasp or
Reidemeister-II pair of crossings into one two-factor site when that
has fewer entries than the two R sites (see _crossing_sites).  Each
factor of a merged site is one slot, at the first of the adjacent ends
it multiplies.  The engine folds one component at a time, keeping a state table
keyed by (running product basis index, pending tensor-factor indices of
partially consumed sites).  Merging equal keys keeps the table near
dim^(1 + open factors) instead of the product of all site entry counts.

How wide the table gets depends on the order the components are folded
in and on the slot each one starts from, so a plan picks both before
the fold.  Its predicted cost sums, over the slots in fold order, the
predicted table width (the product of dims[grade] over the open axes)
times the entry count of the site a slot opens (1 for a slot that
closes an axis).  The cheapest of the length-sorted order and a greedy
order from every first component wins, each component at its cheapest
start.  Every plan gives the same value: component values are scalars
that commute, and lam(xy) = lam(yx) for x and y of inverse grades, so a
component's value does not depend on its start.

Compiling (``_Compiled``) does what no coloring changes: it validates
the diagram and records each dot's passage signs, the crossing sites,
every component's slots and, as an int ratio, the crossing sites'
contents times lam's and the unit's once per component.  Binding a
coloring multiplies that ratio by its dot sites' contents, takes the
plan from the compiled diagram's memo, folds, and builds the bracket
(and the value, dim(H_1)^exponent times it) as a Cyclo from the folded
numerators over the ratio.  ``evaluate``, ``evaluate_summed`` and
``contraction_plan`` check on every call that the integrals belong to
H, then read the compiled diagram that the integrals keep under the
diagram (``_compile``), compiling it on first use: so a diagram is
compiled once per IntegralData while it is kept, each plan key is
planned once (the memo keeps (order, starts, cost)), and
``evaluate_summed`` enumerates the flat connections once and keeps
them.  An error is raised on every call and never kept.  What is kept
lives as long as its IntegralData and grows with the distinct diagrams
evaluated against it, up to MAX_COMPILED of them.  It saves work where
one IntegralData meets a diagram again: every connection of a diagram
through ``evaluate``, ``contraction_plan`` next to ``evaluate``, or a
fixed set of diagrams evaluated again and again.  The
value is multilinear in the sites, so each is built once as (content,
primitive numerators) (``algebra.primitive``) and kept by ``algebra._kept``:
dot sites and lam on the IntegralData, crossing sites and the unit and
product rows (``_product_view``) on the algebra, a crossing site only
once a compiled diagram uses it (``_used_sites``).  The fold computes
in Z[zeta_n]: a value is a numerator tuple (``Cyclo.num``), multiplied
by ``cyclo.mul_nums`` and added entrywise, and ``one.num`` (a row's ``one``)
is skipped on either side (unit rule).  A step keeps its terms apart by
the content of the product row each passes through: a lone content goes
into the bind's ratio, and mixed ones are scaled by ints to their common
content, once per key (``_merged``).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from math import gcd, lcm, prod

from .algebra import HopfGAlgebra, _kept, add_into, apply_rows_at, cyclos, primitive, slot_rows
from .cyclo import Cyclo, _make, add_nums_into, mul_nums
from .diagrams import (
    ColoredDiagram,
    CrossingEnd,
    KirbyDiagram,
    require_coloring,
    require_valid,
)
from .groups import Record, enumerate_homs
from .integrals import IntegralData
from . import diagrams

# The entries of one dot's site, bounded before the site is built (see
# _Compiled.sites).  At kac-paljutkin, k = 10 alternating passages give
# 1,048,580 entries (bound 8 * 4^9 = 2^21) in 18.5 s with a 556 MB peak,
# and k = 12 would need about 9 GB.  It also bounds the (table entry, site
# entry) pairs of each site the fold opens (_Compiled.bind).
MAX_SITE_ENTRIES = 1 << 21

# The compiled diagrams one IntegralData keeps (see _compile); compiling
# one more drops the first, so memory stays bounded however many distinct
# diagrams are evaluated.  A compiled builtin diagram holds about 1.4 KB.
MAX_COMPILED = 64


class EvaluationError(ValueError):
    """Integrals or colors that do not belong to the algebra, a site or a
    fold past its cap, or an internal consistency failure; a malformed
    ColoredDiagram raises diagrams.DiagramError or diagrams.ColoringError
    instead."""


class InvariantValue(Record, mutable=True):
    __slots__ = ("value", "bracket", "exponent")  # exponent: dotted minus undotted count

    def __init__(self, value, bracket, exponent):  # built once per connection
        self.value, self.bracket, self.exponent = value, bracket, exponent

    def __eq__(self, other):  # an InvariantValue by its fields, anything else by value
        return super().__eq__(other) if isinstance(other, InvariantValue) else self.value == other


class SummedInvariant(Record, mutable=True):
    __slots__ = ("total", "values", "homs")  # values: per-connection InvariantValue, in order

    def __init__(self, total, values, homs):  # built once per evaluate_summed
        self.total, self.values, self.homs = total, values, homs

    @property
    def hom_count(self) -> int:
        return len(self.values)


class _Planner:
    """Predicted cost of folding the components in a given order, each
    from a given start slot.

    A site is a dot's tensor or a crossing site: R, a kink's one factor,
    or a merged clasp or II pair, whose factors are runs of adjacent ends
    (one slot each).  An open axis is a pending tensor factor of a
    partially consumed site, and the state table is predicted to hold the
    product of dims[grade] over the open axes.  A slot whose axis is open
    costs one pass over the table and closes the axis; a slot of an
    unopened site costs a pass times the site's entry count and opens the
    site's other factors.  Which axes a component leaves open does not
    depend on its start, so for a fixed order the cheapest start of each
    component is the best one.  Of equally cheap starts, the one at the
    least slot wins (no slot occurs twice), so the start does not depend
    on the stored rotation either.  An axis is a bit of an int.
    """

    def __init__(self, dims, sizes, comp_slots):
        self.comp_slots = comp_slots
        bits = {}
        self.axis_dim = axis_dim = {}
        for slots in comp_slots:
            for site, factor, _, sg in slots:
                bit = bits[site, factor] = 1 << len(bits)
                axis_dim[bit] = dims[sg]
        # per slot: (axis, axes it opens, their width, entry count)
        self.steps = []
        self.axes = []
        for slots in comp_slots:
            steps = []
            mask = 0
            for site, factor, arity, _ in slots:
                bit = bits[site, factor]
                others, width = 0, 1
                for f in range(arity):
                    if f != factor:
                        other = bits[site, f]
                        others |= other
                        width *= axis_dim[other]
                steps.append((bit, others, width, sizes[site]))
                mask |= bit
            self.steps.append(steps)
            self.axes.append(mask)
        self.memo = {}

    def width(self, mask: int) -> int:
        """Predicted table width of the open axes in mask."""
        w = 1
        while mask:
            bit = mask & -mask
            w *= self.axis_dim[bit]
            mask ^= bit
        return w

    def rotations(self, c: int, pre: int):
        """(costs, best, out): the predicted cost of folding component c
        from each of its slots when the axes pre of its own slots are
        open, its best start slot, and the axes it leaves open."""
        got = self.memo.get((c, pre))
        if got is not None:
            return got
        axis_dim = self.axis_dim
        steps = self.steps[c]
        size = len(steps)
        ring = steps + steps
        w0 = self.width(pre)
        costs = []
        live = pre
        for r in range(size):
            live, w, cost = pre, w0, 0
            for bit, others, width, n in ring[r:r + size]:
                if live & bit:
                    cost += w
                    w //= axis_dim[bit]
                    live ^= bit
                else:
                    cost += w * n
                    w *= width
                    live |= others
            costs.append(cost)
        slots = self.comp_slots[c]
        best = min(range(size), key=lambda r: (costs[r], slots[r]), default=0)
        got = self.memo[c, pre] = (costs or [0], best, live)
        return got

    def run(self, order, starts=None):
        """(cost, starts) of folding in the given order, from the given
        start slots or, by default, from each component's best one."""
        open_axes = total = 0
        chosen = []
        for i, c in enumerate(order):
            pre = open_axes & self.axes[c]
            costs, best, out = self.rotations(c, pre)
            start = best if starts is None else starts[i]
            chosen.append(start)
            open_axes ^= pre
            total += costs[start] * self.width(open_axes)
            open_axes |= out
        return total, tuple(chosen)

    def greedy(self, first: int):
        """Fold order that starts with component first and then always
        folds the component that is cheapest to fold next."""
        order = [first]
        open_axes = self.rotations(first, 0)[2]
        rest = [c for c in range(len(self.steps)) if c != first]
        while len(rest) > 1:
            best = None
            for c in rest:
                pre = open_axes & self.axes[c]
                costs, start, out = self.rotations(c, pre)
                cost = costs[start] * self.width(open_axes ^ pre)
                if best is None or cost < best[0]:
                    best = (cost, c, open_axes ^ pre | out)
            _, c, open_axes = best
            order.append(c)
            rest.remove(c)
        return tuple(order + rest)

    def by_length(self):
        """The components, shortest first (stable)."""
        return tuple(sorted(range(len(self.steps)), key=lambda c: len(self.steps[c])))

    def plan(self):
        """(order, starts, cost): the cheapest of the length-sorted order
        and one greedy order per first component, each at its best start
        slots; the length-sorted order wins a tie."""
        order = self.by_length()
        cost, starts = self.run(order)
        if len(order) < 2:  # the one order
            return order, starts, cost
        for cand in dict.fromkeys(map(self.greedy, range(len(order)))):
            ccost, cstarts = self.run(cand)
            if ccost < cost:
                order, starts, cost = cand, cstarts, ccost
        return order, starts, cost


@_kept
def _product_view(H: HopfGAlgebra) -> tuple:
    """(primitive(unit), views): views[a, b] = (contents, rows) over the
    supported grade pairs, e_i e_j being the int ratio contents[i][j] times
    rows[i][j], of int coefficients at H's conductor.  A product with a
    denominator or a lesser conductor is split by ``primitive``, any other
    has content (1, 1), and a table of only those is its own rows."""
    one, views = H.one(), {}
    ones = [[(1, 1)] * max(H.dims)] * max(H.dims)
    for table in {id(t): t for t in H.product.values()}.values():
        split = [[None if all(v.den == 1 and v.n == one.n for v in x.values())
                  else primitive(x, one) for x in row] for row in table]
        views[id(table)] = (ones, table) if not any(map(any, split)) else (
            [[s[0] if s else (1, 1) for s in row] for row in split],
            [[cyclos(s[1], one) if s else x for s, x in zip(row, xs)]
             for row, xs in zip(split, table)])
    return primitive(H.unit, one), {
        ab: views[id(H.product[ab])] for ab in itertools.product(H.support, repeat=2)}


@_kept
def _used_sites(H: HopfGAlgebra) -> dict:
    """{(signs, words): _crossing_site(H, signs, words)} of the crossing
    sites compiled diagrams use (see _crossing_sites)."""
    return {}


def _crossing_site(H: HopfGAlgebra, signs: tuple, words: tuple) -> tuple:
    """(content, sorted primitive entries) of crossings with the given
    signs (R for True, (S_1 (x) id)(R) for False) multiplied out, content
    times entries: factor f is the product of the one or two ends words[f]
    lists in order, an end being (crossing, 0 for its over factor or 1 for
    its under one)."""
    one, rows = H.one(), H.product[(H.group.identity_index,) * 2]
    rs = [(H.rmatrix if s else H.r_inverse_raw()).items() for s in signs]
    out = {}
    for terms in itertools.product(*rs):
        tensor = {(): prod((w for _, w in terms[1:]), start=terms[0][1])}
        for word in words:
            i, *j = (terms[k][0][f] for k, f in word)
            vec = rows[i][j[0]] if j else {i: one}
            tensor = {t + (i,): v if x is one else x if v is one else v * x
                      for t, v in tensor.items() for i, x in vec.items()}
        for t, v in tensor.items():
            add_into(out, t, v)
    content, out = primitive(out, one)
    return content, sorted(out.items())


@_kept
def _dot_site(integrals: IntegralData, a: int, downs: tuple) -> tuple:
    """(content, sorted primitive entries, factor grades) of the site
    (S^s1 (x) ... (x) S^sk)(Delta^(k-1)(L_a)), content times entries, for
    k >= 1 passages, s_i = 1 where downs[i] is false (an up passage); no
    entries when it is zero."""
    H = integrals.algebra
    entries = H.coproduct_power(a, integrals.integrals[a], len(downs)).entries
    grades = [a] * len(downs)
    for f, down in enumerate(downs):
        if not down:
            entries = apply_rows_at(entries, f, slot_rows(H.antipode[a]), H.one())
            grades[f] = H.group.inverses[a]
    content, entries = primitive(entries, H.one())
    return content, sorted(entries.items()), tuple(grades)


@_kept
def _lam_view(integrals: IntegralData) -> tuple:
    """(content, {i: lam(e_i) / content}) over the nonzero values of lam."""
    return primitive({i: v for i, v in enumerate(integrals.lam_values) if v},
                     integrals.algebra.one())


def _crossing_sites(H: HopfGAlgebra, d: KirbyDiagram, runs, first: int) -> list:
    """The (content, entries) of d's crossing sites, numbered from first in order of
    their least crossing id; slot (site, factor, arity) goes to
    runs[k][p] when it starts at event p of component k.

    A kink (a crossing whose ends are cyclically adjacent) is one factor,
    its ends multiplied in traversal order.  Two crossings whose ends are
    cyclically adjacent on a component X and on another component Y (a
    clasp or a Reidemeister-II pair) are one site, factor 0 the product
    of the two ends on X (the component of the lesser crossing's over
    end) and factor 1 of those on Y, when it has fewer entries than the
    two R sites together; pairs are taken in crossing-id order.  Where a
    component holds just the two ends, the kink's over end or the lesser
    crossing's end comes first, so no choice depends on the stored start
    events.  Every other crossing keeps its R site, factor 0 on the over
    end.  A site is built at most once per call, and H keeps it
    (_used_sites) only once a diagram uses it, so a merge tried and not
    taken is not kept."""
    at = {(ev.crossing, ev.over): (k, p) for k, u in enumerate(d.undotted)
          for p, ev in enumerate(u.events) if isinstance(ev, CrossingEnd)}
    signs = {c.id: c.positive for c in d.crossings}

    def word(a, b):  # ends a and b in traversal order, or None if not adjacent
        (ka, pa), (kb, pb) = at[a], at[b]
        n = len(d.undotted[ka].events)
        if ka == kb and pb == (pa + 1) % n:
            return (a, b)
        return (b, a) if ka == kb and pa == (pb + 1) % n else None

    used, built = _used_sites(H), {}  # key -> site; a lone crossing's key is its sign

    def key(words):  # ends per factor -> the arguments of _crossing_site
        ids = sorted({c for w in words for c, _ in w})
        return (tuple(signs[c] for c in ids),
                tuple(tuple((ids.index(c), 1 - over) for c, over in w) for w in words))

    def site(words):
        k = key(words)
        if k not in built:
            built[k] = used.get(k) or _crossing_site(H, *k)
        return built[k]

    def lone(c):
        return ((c, True),), ((c, False),)

    groups = {c: (w,) for c in signs if (w := word((c, True), (c, False)))}
    adjacent = {tuple(sorted((ev.crossing, nxt.crossing)))
                for u in d.undotted for ev, nxt in zip(u.events, u.events[1:] + u.events[:1])
                if isinstance(ev, CrossingEnd) and isinstance(nxt, CrossingEnd)
                and ev.crossing != nxt.crossing}  # not the one end of a 1-event component
    taken = set(groups)
    for a, b in sorted(adjacent):
        if a in taken or b in taken or at[a, True][0] == at[a, False][0]:
            continue
        xb = (b, at[b, True][0] == at[a, True][0])
        words = (word((a, True), xb), word((a, False), (b, not xb[1])))
        if None not in words and (len(site(words)[1])
                                  < len(site(lone(a))[1]) * len(site(lone(b))[1])):
            groups[a] = words
            taken.update((a, b))
    for c in signs.keys() - taken:
        groups[c] = lone(c)
    sites = []
    for i, (c, words) in enumerate(sorted(groups.items())):
        sites.append(used.setdefault(key(words), site(words)))
        for f, w in enumerate(words):
            k, p = at[w[0]]
            runs[k][p] = (first + i, f, len(words))
    return sites


class _Compiled:
    """The color-free part of evaluating a diagram d with some integrals, and
    the binding of a coloring to it.  A slot is (site, factor, arity): the
    dots with passages are sites 0, 1, ... in dot order, the crossing sites
    follow (see _crossing_sites).  skeleton[k] lists component k's slots in
    traversal order and positions[k] the event each slot starts at; plans
    keeps (order, starts, cost) per plan key and homs d's flat connections
    once enumerated.  It holds no reference to its integrals, which keep it
    (see _compile)."""

    __slots__ = ("zero", "exponent", "norm", "dot_ids", "signs", "crossing_entries", "unit",
                 "views", "lam", "scale", "skeleton", "positions", "plans", "homs")

    def __init__(self, integrals: IntegralData, d: KirbyDiagram):
        require_valid(d)
        H = integrals.algebra
        self.zero = Cyclo.zero(H.conductor)
        self.exponent = e = len(d.dotted) - len(d.undotted)
        dim1 = H.dims[H.group.identity_index]
        self.norm = (dim1 ** e, 1) if e >= 0 else (1, dim1 ** -e)  # dim(H_1)^exponent
        self.dot_ids = tuple(x.id for x in d.dotted)
        events = {u.id: u.events for u in d.undotted}
        self.signs = tuple(tuple(events[ru][rp].down for ru, rp in x.passages) for x in d.dotted)
        dots = [x for x in d.dotted if x.passages]
        comp = {u.id: k for k, u in enumerate(d.undotted)}
        runs = [{} for _ in d.undotted]  # event position -> the slot starting there
        for site, x in enumerate(dots):
            for f, (ru, rp) in enumerate(x.passages):
                runs[comp[ru]][rp] = (site, f, len(x.passages))
        crossings = _crossing_sites(H, d, runs, len(dots))
        self.crossing_entries = tuple(entries for _, entries in crossings)
        (unit_content, self.unit), self.views = _product_view(H)
        lam_content, self.lam = _lam_view(integrals)
        contents = [c for c, _ in crossings] + [lam_content, unit_content] * len(d.undotted)
        self.scale = (prod(p for p, _ in contents), prod(q for _, q in contents))
        self.skeleton = tuple(tuple(slot for _, slot in sorted(r.items())) for r in runs)
        self.positions = tuple(tuple(sorted(r)) for r in runs)
        self.plans, self.homs = {}, None

    def sites(self, integrals: IntegralData, grades):
        """(site_entries, comp_slots, scale) for the coloring with the given
        grade index per dot, a slot gaining its grade as a fourth entry, and
        self.scale times the dot sites' contents.  None when a dot's L_a is
        0; a dot with no passages contributes eps(L_a) = 1.  Raises EvaluationError when a
        dot's site may exceed MAX_SITE_ENTRIES by the bound
        nnz(L_a) * max_i |Delta_a(e_i)|^(k-1) * max_i |S_a(e_i)|^(up passages)."""
        H, entries, site_grades, (num, den) = integrals.algebra, [], [], self.scale
        for x, a, signs in zip(self.dot_ids, grades, self.signs):
            if not integrals.integrals[a]:
                return None
            if not signs:
                continue
            bound = (len(integrals.integrals[a])
                     * max(map(len, H.coproduct[a]), default=0) ** max(len(signs) - 1, 0)
                     * max(map(len, H.antipode[a]), default=0) ** signs.count(False))
            if bound > MAX_SITE_ENTRIES:
                shown = bound if bound < 1 << 64 else f"over 2^{bound.bit_length() - 1}"
                raise EvaluationError(
                    f"dot {x} at grade {H.group.names[a]} has {len(signs)} passages, "
                    f"so its site may hold {shown} entries, more than {MAX_SITE_ENTRIES}")
            (p, q), site, sg = _dot_site(integrals, a, signs)
            num, den = num * p, den * q
            entries.append(site)
            site_grades.append(sg)
        e = H.group.identity_index
        site_grades += [(e, e)] * len(self.crossing_entries)
        comp_slots = [[(site, f, n, site_grades[site][f]) for site, f, n in slots]
                      for slots in self.skeleton]
        return [*entries, *self.crossing_entries], comp_slots, (num, den)

    def plan(self, dims, sizes, comp_slots, planner=None):
        """(order, starts, cost) for the sites of one coloring, kept under
        what the planner reads: the site entry counts and the dims of the
        slot grades (a tie between starts is broken by the slot's (site,
        factor), which no two slots share).  A miss plans with planner,
        the caller's _Planner of these sites, or a new one."""
        key = (*sizes, *(dims[s[3]] for slots in comp_slots for s in slots))
        got = self.plans.get(key)
        if got is None:
            got = self.plans[key] = (planner or _Planner(dims, sizes, comp_slots)).plan()
        return got

    def bind(self, integrals: IntegralData, grades) -> InvariantValue:
        """The invariant of the coloring with the given grade index per
        dot: the planned fold of its sites (see _Planner for the plan)."""
        H, zero = integrals.algebra, self.zero
        n, G = H.conductor, H.group
        bound = self.sites(integrals, grades)
        if bound is None:
            return InvariantValue(zero, zero, self.exponent)
        site_entries, comp_slots, (num, den) = bound
        order, starts, _ = self.plan(H.dims, list(map(len, site_entries)), comp_slots)
        row_one = Cyclo.one(n)  # rows hold Cyclo values, read by their numerators
        unit, one, mul = self.unit, row_one.num, mul_nums
        e, lam, views = G.identity_index, self.lam, self.views

        # between components the state maps pending-axis tuples to numerators;
        # registry lists the open (site, factor) pairs the axes refer to
        state = {(): one}
        registry = []
        for comp, r in zip(order, starts):
            slots = comp_slots[comp]
            acc_g = e
            within = {}
            for axes, v in state.items():
                for xi, xv in unit.items():
                    within[(xi, axes)] = v if xv is one else mul(n, v, xv)
            for site, factor, arity, sg in slots[r:] + slots[:r]:
                contents, rows = views[acc_g, sg]  # e_x e_i = contents[x][i] rows[x][i]
                parts = defaultdict(dict)  # the step's terms by the content of their row
                if (site, factor) in registry:
                    p = registry.index((site, factor))
                    for (x, axes), v in within.items():
                        a = axes[p]
                        part = parts[contents[x][a]]
                        naxes = axes[:p] + axes[p + 1:]
                        for y, c in rows[x][a].items():
                            add_nums_into(part, (y, naxes),
                                          v if c is row_one else mul(n, v, c.num))
                    registry.pop(p)
                else:
                    entries = site_entries[site]
                    if (pairs := len(within) * len(entries)) > MAX_SITE_ENTRIES:
                        raise EvaluationError(
                            f"the fold would open a site of {len(entries)} entries over a "
                            f"table of {len(within)}: {pairs} pairs, more than {MAX_SITE_ENTRIES}")
                    split = [(t[factor], t[:factor] + t[factor + 1:], w) for t, w in entries]
                    for (x, axes), v in within.items():
                        crow, row = contents[x], rows[x]
                        for i, suffix, w in split:
                            vw = w if v is one else v if w is one else mul(n, v, w)
                            part = parts[crow[i]]
                            ext = axes + suffix
                            for y, c in row[i].items():
                                add_nums_into(part, (y, ext),
                                              vw if c is row_one else mul(n, vw, c.num))
                    registry.extend((site, f) for f in range(arity) if f != factor)
                (cp, cq), within = _merged(parts)
                num, den = num * cp, den * cq
                if not within:
                    break
                acc_g = G.table[acc_g][sg]
            state = {}
            for (x, axes), v in within.items():
                lv = lam.get(x)
                if lv is not None:
                    add_nums_into(state, axes, v if lv is one else mul(n, v, lv))
            if not state:
                break
        if registry and state:
            raise EvaluationError("dangling tensor factors after contraction")
        s, (p, q) = state.get((), zero.num), self.norm
        bracket = _make(n, [x * num for x in s], den)
        value = bracket if p == q else _make(n, [x * (num * p) for x in s], den * q)
        return InvariantValue(value, bracket, self.exponent)


def _merged(parts: dict) -> tuple:
    """(c0, terms): a fold step's parts, {row content: terms}, as one table
    over their common content c0, the gcd of the contents' numerators over
    the lcm of their denominators; a part of content c is scaled by the int
    c / c0 once per key, and a lone part is kept as it is."""
    live = {c: t for c, t in parts.items() if t}
    if len(live) < 2:
        return live.popitem() if live else ((1, 1), live)
    cp, cq = gcd(*(p for p, _ in live)), lcm(*(q for _, q in live))
    out = live.pop((cp, cq), {})
    for (p, q), terms in live.items():
        k = p // cp * (cq // q)
        for key, v in terms.items():
            add_nums_into(out, key, tuple([x * k for x in v]))
    return (cp, cq), out


def contraction_plan(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram):
    """(order, starts, cost, stored_cost): the plan ``evaluate`` folds cd
    by, as component indices in fold order and the event each starts
    from (a merged slot's first end), its predicted cost, and the
    predicted cost of the length-sorted order from every stored event 0
    (from the merged slot holding it).  None when a dot alone makes the
    value zero and nothing is folded."""
    compiled, grades = _compile_colored(H, integrals, cd)
    bound = compiled.sites(integrals, grades)
    if bound is None:
        return None
    site_entries, comp_slots, _ = bound
    sizes = list(map(len, site_entries))
    planner = _Planner(H.dims, sizes, comp_slots)
    order, starts, cost = compiled.plan(H.dims, sizes, comp_slots, planner)
    positions = compiled.positions
    # the slot holding event 0: the first one, or a last one that wraps round
    stored = [0 if not ps or ps[0] == 0 else len(ps) - 1 for ps in positions]
    by_length = planner.by_length()
    stored_cost, _ = planner.run(by_length, [stored[c] for c in by_length])
    events = tuple(positions[c][r] if positions[c] else 0 for c, r in zip(order, starts))
    return order, events, cost, stored_cost


@_kept
def _compiled(integrals: IntegralData) -> dict:
    """{diagram: _Compiled} for integrals, in the order compiled."""
    return {}


def _compile(H: HopfGAlgebra, integrals: IntegralData, d: KirbyDiagram) -> _Compiled:
    """d compiled for integrals of H, kept by them under d (an equal
    diagram reads the same entry) among their last MAX_COMPILED compiled;
    an error is raised on every call and never kept."""
    if integrals.algebra is not H:
        raise EvaluationError("integral data belongs to a different algebra")
    kept = _compiled(integrals)
    compiled = kept.get(d)
    if compiled is None:
        compiled = _Compiled(integrals, d)
        if len(kept) == MAX_COMPILED:
            del kept[next(iter(kept))]  # the first compiled
        kept[d] = compiled
    return compiled


def _compile_colored(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram):
    """(compiled diagram, grade index per dot); cd's diagram is validated
    when it is compiled."""
    compiled = _compile(H, integrals, cd.diagram)
    # colors are read as grade indices of H, so their group must have H's
    # group table (element names may differ)
    for x in cd.colors.values():
        if x.group is not H.group and x.group.table != H.group.table:
            raise EvaluationError(
                f"the coloring group (order {x.group.order}) is not the algebra's "
                f"grading group (order {H.group.order})")
    require_coloring(cd)
    return compiled, [cd.color_of(x.id).index for x in cd.diagram.dotted]


def evaluate(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram) -> InvariantValue:
    compiled, grades = _compile_colored(H, integrals, cd)
    return compiled.bind(integrals, grades)


def evaluate_summed(H: HopfGAlgebra, integrals: IntegralData,
                    d: KirbyDiagram) -> SummedInvariant:
    """Sum of the invariant over all flat connections, i.e. over all
    homomorphisms from the diagram's fundamental group into H's group."""
    compiled = _compile(H, integrals, d)
    if compiled.homs is None:  # kept only once enumerated within MAX_HOM_STEPS
        compiled.homs = tuple(enumerate_homs(diagrams.fundamental_presentation(d), H.group))
    homs = compiled.homs
    # every enumerated hom is flat and into H's group
    values = tuple(compiled.bind(integrals, [g.index for g in hom.images]) for hom in homs)
    return SummedInvariant(sum((iv.value for iv in values), compiled.zero),
                           values, homs)
