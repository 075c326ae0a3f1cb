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

Compiling (``_Compiled``) does, once per (algebra, integrals, diagram),
what no coloring changes: it validates the diagram and records each
dot's passage signs, the crossing sites, every component's slots and,
as an int ratio, the crossing sites' contents times lam's once per
component.  Binding a coloring multiplies that ratio by its dot sites'
contents, takes the plan from the compiled diagram's memo, folds, and
scales the bracket by the ratio unless it is 1.  ``evaluate`` compiles
and binds one coloring; ``evaluate_summed`` compiles once and binds
every flat connection.  The value is multilinear in the sites, so each
is cached as (content, primitive entries) (``algebra.primitive``), dot
sites on the IntegralData and crossing sites on the algebra (both
immutable), and product rows too (``H.primitive_products``).  The fold
multiplies primitive entries, each row content once per state and entry,
and lam's primitive values, skipping ``one`` on either side (unit rule).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .algebra import MAX_SITE_ENTRIES, HopfGAlgebra, add_into
from .cyclo import Cyclo
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
        for cand in dict.fromkeys(map(self.greedy, range(len(order)))):
            ccost, cstarts = self.run(cand)
            if ccost < cost:
                order, starts, cost = cand, cstarts, ccost
        return order, starts, cost


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
    end."""
    at = {(ev.crossing, ev.over): (k, p) for k, u in enumerate(d.undotted)
          for p, ev in enumerate(u.events) if isinstance(ev, CrossingEnd)}
    signs = {c.id: c.positive for c in d.crossings}

    def word(a, b):  # ends a and b in traversal order, or None if not adjacent
        (ka, pa), (kb, pb) = at[a], at[b]
        n = len(d.undotted[ka].events)
        if ka == kb and pb == (pa + 1) % n:
            return (a, b)
        return (b, a) if ka == kb and pa == (pb + 1) % n else None

    def site(words):  # ends per factor -> H.crossing_site
        ids = sorted({c for w in words for c, _ in w})
        return H.crossing_site(tuple(signs[c] for c in ids),
                               tuple(tuple((ids.index(c), 1 - over) for c, over in w)
                                     for w in words))

    lone_sites = {}  # sign -> site: a lone crossing's site depends on its sign only

    def lone_site(c):
        return lone_sites.get(signs[c]) or lone_sites.setdefault(
            signs[c], site((((c, True),), ((c, False),))))

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
                                  < len(lone_site(a)[1]) * len(lone_site(b)[1])):
            groups[a] = words
            taken.update((a, b))
    for c in signs.keys() - taken:
        groups[c] = ((c, True),), ((c, False),)
    sites = []
    for i, (c, words) in enumerate(sorted(groups.items())):
        sites.append(site(words) if c in taken else lone_site(c))
        for f, w in enumerate(words):
            k, p = at[w[0]]
            runs[k][p] = (first + i, f, len(words))
    return sites


class _Compiled:
    """The color-free part of evaluating a diagram d, and the binding of a
    coloring to it.  A slot is (site, factor, arity): the dots with
    passages are sites 0, 1, ... in dot order, the crossing sites follow
    (see _crossing_sites).  skeleton[k] lists component k's slots in
    traversal order and positions[k] the event each slot starts at."""

    def __init__(self, H: HopfGAlgebra, integrals: IntegralData, d: KirbyDiagram):
        if integrals.algebra is not H:
            raise EvaluationError("integral data belongs to a different algebra")
        require_valid(d)
        self.H, self.integrals = H, integrals
        self.zero, self.one = Cyclo.zero(H.conductor), Cyclo.one(H.conductor)
        self.exponent = len(d.dotted) - len(d.undotted)
        self.norm = Cyclo.rational(Fraction(H.dims[H.group.identity_index]) ** self.exponent,
                                   conductor=H.conductor)
        self.dot_ids = [x.id for x in d.dotted]
        events = {u.id: u.events for u in d.undotted}
        self.signs = [tuple(events[ru][rp].down for ru, rp in x.passages) for x in d.dotted]
        dots = [x for x in d.dotted if x.passages]
        comp = {u.id: k for k, u in enumerate(d.undotted)}
        runs = [{} for _ in d.undotted]  # event position -> the slot starting there
        for site, x in enumerate(dots):
            for f, (ru, rp) in enumerate(x.passages):
                runs[comp[ru]][rp] = (site, f, len(x.passages))
        self.crossings = _crossing_sites(H, d, runs, len(dots))
        self.crossing_entries = [entries for _, entries in self.crossings]
        self.views = H.primitive_products()
        lam_content, self.lam = integrals.primitive_lam
        contents = [c for c, _ in self.crossings] + [lam_content] * len(d.undotted)
        self.scale = (prod(p for p, _ in contents), prod(q for _, q in contents))
        self.skeleton = [[slot for _, slot in sorted(r.items())] for r in runs]
        self.positions = [sorted(r) for r in runs]
        self.plans = {}

    def sites(self, grades):
        """(site_entries, comp_slots, scale) for the coloring with the given
        grade index per dot, a slot gaining its grade as a fourth entry, and
        self.scale times the dot sites' contents.  None when a dot's L_a is
        0; a dot with no passages contributes eps(L_a) = 1.  Raises EvaluationError when a
        dot's site may exceed MAX_SITE_ENTRIES by the bound
        nnz(L_a) * max_i |Delta_a(e_i)|^(k-1) * max_i |S_a(e_i)|^(up passages)."""
        H, entries, site_grades, (num, den) = self.H, [], [], self.scale
        for x, a, signs in zip(self.dot_ids, grades, self.signs):
            if not self.integrals.integrals[a]:
                return None
            if not signs:
                continue
            bound = (len(self.integrals.integrals[a])
                     * max(map(len, H.coproduct[a]), default=0) ** max(len(signs) - 1, 0)
                     * max(map(len, H.antipode[a]), default=0) ** signs.count(False))
            if bound > MAX_SITE_ENTRIES:
                shown = bound if bound < 1 << 64 else f"over 2^{bound.bit_length() - 1}"
                raise EvaluationError(
                    f"dot {x} at grade {H.group.names[a]} has {len(signs)} passages, "
                    f"so its site may hold {shown} entries, more than {MAX_SITE_ENTRIES}")
            (p, q), site, sg = self.integrals.dot_site(a, signs)
            num, den = num * p, den * q
            entries.append(site)
            site_grades.append(sg)
        e = H.group.identity_index
        site_grades += [(e, e)] * len(self.crossings)
        comp_slots = [[(site, f, n, site_grades[site][f]) for site, f, n in slots]
                      for slots in self.skeleton]
        return entries + self.crossing_entries, comp_slots, (num, den)

    def plan(self, site_entries, comp_slots):
        """(planner, (order, starts, cost)) for the sites of one coloring,
        kept under what the planner reads: the site entry counts and the
        dims of the slot grades (a tie between starts is broken by the
        slot's (site, factor), which no two slots share)."""
        dims = self.H.dims
        sizes = [len(x) for x in site_entries]
        key = (tuple(sizes), tuple(dims[s[3]] for slots in comp_slots for s in slots))
        got = self.plans.get(key)
        if got is None:
            planner = _Planner(dims, sizes, comp_slots)
            got = self.plans[key] = (planner, planner.plan())
        return got

    def bind(self, grades) -> InvariantValue:
        """The invariant of the coloring with the given grade index per
        dot: the planned fold of its sites (see _Planner for the plan)."""
        zero = self.zero
        bound = self.sites(grades)
        if bound is None:
            return InvariantValue(zero, zero, self.exponent)
        site_entries, comp_slots, (num, den) = bound
        order, starts, _ = self.plan(site_entries, comp_slots)[1]
        H, G, unit, one = self.H, self.H.group, self.H.unit, self.one
        e, lam, views = G.identity_index, self.lam, self.views

        # between components the state maps pending-axis tuples to scalars;
        # registry lists the open (site, factor) pairs the axes refer to
        state = {(): one}
        registry = []
        for comp, r in zip(order, starts):
            slots = comp_slots[comp]
            acc_g = e
            within = {}
            for axes, v in state.items():
                for xi, xv in unit.items():
                    within[(xi, axes)] = v if xv is one else v * xv
            for site, factor, arity, sg in slots[r:] + slots[:r]:
                contents, rows = views[acc_g, sg]  # e_x e_i = contents[x][i] rows[x][i]
                nxt = {}
                if (site, factor) in registry:
                    p = registry.index((site, factor))
                    for (x, axes), v in within.items():
                        a = axes[p]
                        vk = v if (k := contents[x][a]) is one else k if v is one else v * k
                        naxes = axes[:p] + axes[p + 1:]
                        for y, c in rows[x][a].items():
                            add_into(nxt, (y, naxes), vk if c is one else vk * c)
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
                            vw = w if v is one else v if w is one else v * w
                            if (k := crow[i]) is not one:
                                vw = vw * k
                            ext = axes + suffix
                            for y, c in row[i].items():
                                add_into(nxt, (y, ext), vw if c is one else vw * c)
                    registry.extend((site, f) for f in range(arity) if f != factor)
                within = nxt
                if not within:
                    break
                acc_g = G.table[acc_g][sg]
            state = {}
            for (x, axes), v in within.items():
                lv = lam.get(x)
                if lv is not None:
                    add_into(state, axes, v if lv is one else v * lv)
            if not state:
                break
        if registry and state:
            raise EvaluationError("dangling tensor factors after contraction")
        bracket = state.get((), zero)
        if bracket and num != den:
            bracket = bracket * Cyclo.rational(num, den, H.conductor)
        return InvariantValue(self.norm * bracket, bracket, self.exponent)


def contraction_plan(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram):
    """(order, starts, cost, stored_cost): the plan ``evaluate`` folds cd
    by, as component indices in fold order and the event each starts
    from (a merged slot's first end), its predicted cost, and the
    predicted cost of the length-sorted order from every stored event 0
    (from the merged slot holding it).  None when a dot alone makes the
    value zero and nothing is folded."""
    compiled, grades = _compile_colored(H, integrals, cd)
    bound = compiled.sites(grades)
    if bound is None:
        return None
    site_entries, comp_slots, _ = bound
    planner, (order, starts, cost) = compiled.plan(site_entries, comp_slots)
    positions = compiled.positions
    # the slot holding event 0: the first one, or a last one that wraps round
    stored = [0 if not ps or ps[0] == 0 else len(ps) - 1 for ps in positions]
    by_length = planner.by_length()
    stored_cost, _ = planner.run(by_length, [stored[c] for c in by_length])
    events = tuple(positions[c][r] if positions[c] else 0 for c, r in zip(order, starts))
    return order, events, cost, stored_cost


def _compile_colored(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram):
    """(compiled diagram, grade index per dot); validates cd's diagram once."""
    compiled = _Compiled(H, integrals, cd.diagram)
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
    return compiled.bind(grades)


def evaluate_summed(H: HopfGAlgebra, integrals: IntegralData,
                    d: KirbyDiagram) -> SummedInvariant:
    """Sum of the invariant over all flat connections, i.e. over all
    homomorphisms from the diagram's fundamental group into H's group."""
    compiled = _Compiled(H, integrals, d)
    pres = diagrams.fundamental_presentation(d)
    homs = tuple(enumerate_homs(pres, H.group))
    # every enumerated hom is flat and into H's group
    values = tuple(compiled.bind([g.index for g in hom.images]) for hom in homs)
    return SummedInvariant(sum((iv.value for iv in values), Cyclo.zero(H.conductor)),
                           values, homs)
