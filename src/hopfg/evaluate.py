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
enumerated term by term: the engine folds one component at a time,
keeping a state table keyed by (running product basis index, pending
tensor-factor indices of partially consumed sites).  Merging equal
keys keeps the table near dim^(1 + open factors) instead of the
product of all site entry counts.

How wide the table gets depends on the order the components are folded
in and on the event each one starts from, so a plan picks both before
the fold.  Its predicted cost sums, over the slots in fold order, the
predicted table width (the product of dims[grade] over the open axes)
times the entry count of the site a slot opens (1 for a slot that
closes an axis).  The cheapest of the length-sorted order and a greedy
order from every first component wins, each component at its cheapest
start event.  Every plan gives the same value: component values are
scalars that commute, and lam(xy) = lam(yx) for x and y of inverse
grades, so a component's value does not depend on its start event.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import HopfGAlgebra, add_into, apply_rows_at, slot_rows
from .cyclo import Cyclo
from .diagrams import (
    ColoredDiagram,
    CrossingEnd,
    KirbyDiagram,
    connected_sum,
    require_colored,
)
from .groups import GroupHom, enumerate_homs
from .integrals import IntegralData
from . import diagrams


class EvaluationError(RuntimeError):
    """Integrals or colors that do not belong to the algebra, or an
    internal consistency failure; a malformed ColoredDiagram raises
    diagrams.DiagramError or diagrams.ColoringError instead."""


@dataclass
class InvariantValue:
    value: Cyclo
    bracket: Cyclo
    exponent: int  # dotted count minus undotted count

    def __eq__(self, other):
        if isinstance(other, InvariantValue):
            return (
                self.value == other.value
                and self.bracket == other.bracket
                and self.exponent == other.exponent
            )
        return self.value == other


@dataclass
class SummedInvariant:
    total: Cyclo
    values: tuple  # per-connection InvariantValue, in enumeration order
    homs: tuple

    @property
    def hom_count(self) -> int:
        return len(self.values)


def _site_tensors(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram):
    """Expansion tensor per site, plus the slot list of every component.

    Returns (site_entries, comp_slots, coeff0) where a slot is
    (site, factor, arity, slot grade index) and coeff0 collects the
    scalar contributions of dots with no passages.
    """
    d = cd.diagram
    G = H.group
    e = G.identity_index
    one = Cyclo.one(H.conductor)
    zero = Cyclo.zero(H.conductor)

    coeff0 = one
    for x in d.dotted:
        a = cd.color_of(x.id).index
        if H.dims[a] == 0:  # H_a = 0, so Lambda_a = 0
            return None, None, zero
        if x.passages:
            continue
        coeff0 = coeff0 * H.counit_raw(a, integrals.integral(a).entries)
        if not coeff0:
            return None, None, zero

    site_entries = []
    passage_slot = {}  # (undotted id, event pos) -> slot
    for x in d.dotted:
        if not x.passages:
            continue
        a = cd.color_of(x.id).index
        k = len(x.passages)
        entries = H.coproduct_power(integrals.integral(a), k).entries
        grades = [a] * k
        for factor, (ru, rp) in enumerate(x.passages):
            ev = d.undotted_by_id(ru).events[rp]
            if not ev.down:
                entries = apply_rows_at(entries, factor, slot_rows(H.antipode[a]))
                grades[factor] = G.inverses[a]
        site = len(site_entries)
        site_entries.append(sorted(entries.items()))
        for factor, ref in enumerate(x.passages):
            passage_slot[ref] = (site, factor, k, grades[factor])

    crossing_slot = {}
    r_entries = {}  # sign -> sorted R or (S (x) id)(R), built once per call
    for c in d.crossings:
        if c.positive not in r_entries:
            raw = H.rmatrix if c.positive else H.r_inverse_raw()
            r_entries[c.positive] = sorted(raw.items())
        crossing_slot[c.id] = len(site_entries)
        site_entries.append(r_entries[c.positive])

    comp_slots = []
    for u in d.undotted:
        slots = []
        for pos, ev in enumerate(u.events):
            if isinstance(ev, CrossingEnd):
                slots.append((crossing_slot[ev.crossing], 0 if ev.over else 1, 2, e))
            else:
                slots.append(passage_slot[(u.id, pos)])
        comp_slots.append(slots)
    return site_entries, comp_slots, coeff0


class _Planner:
    """Predicted cost of folding the components in a given order, each
    from a given start event.

    An open axis is a pending tensor factor of a partially consumed site,
    and the state table is predicted to hold the product of dims[grade]
    over the open axes.  A slot whose axis is open costs one pass over
    the table and closes the axis; a slot of an unopened site costs a
    pass times the site's entry count and opens the site's other
    factors.  Which axes a component leaves open does not depend on its
    start event, so for a fixed order the cheapest start of each
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
        from each of its start events when the axes pre of its own slots
        are open, its best start event, and the axes it leaves open."""
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
        if not costs:
            got = self.memo[c, pre] = ([0], 0, live)
            return got
        slots = self.comp_slots[c]
        best = min(range(size), key=lambda r: (costs[r], slots[r]))
        got = self.memo[c, pre] = (costs, best, live)
        return got

    def run(self, order, starts=None):
        """(cost, starts) of folding in the given order, from the given
        start events or, by default, from each component's best one."""
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
        events; the length-sorted order wins a tie."""
        order = self.by_length()
        cost, starts = self.run(order)
        for cand in dict.fromkeys(map(self.greedy, range(len(order)))):
            ccost, cstarts = self.run(cand)
            if ccost < cost:
                order, starts, cost = cand, cstarts, ccost
        return order, starts, cost


def contraction_plan(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram):
    """(order, starts, cost, stored_cost): the plan ``evaluate`` folds cd
    by, as component indices in fold order and the event each starts
    from, its predicted cost, and the predicted cost of the length-sorted
    order from every stored event 0.  None when a dot alone makes the
    value zero and nothing is folded."""
    _check_inputs(H, integrals, cd)
    site_entries, comp_slots, coeff0 = _site_tensors(H, integrals, cd)
    if not coeff0:
        return None
    planner = _Planner(H.dims, [len(x) for x in site_entries], comp_slots)
    order, starts, cost = planner.plan()
    stored_cost, _ = planner.run(planner.by_length(), (0,) * len(comp_slots))
    return order, starts, cost, stored_cost


def _check_inputs(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram):
    if integrals.algebra is not H:
        raise EvaluationError("integral data belongs to a different algebra")
    # colors are read as grade indices of H, so their group must have H's
    # group table (element names may differ)
    for x in cd.colors.values():
        if x.group is not H.group and x.group.table != H.group.table:
            raise EvaluationError(
                f"the coloring group (order {x.group.order}) is not the algebra's "
                f"grading group (order {H.group.order})")
    require_colored(cd)


def evaluate(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram) -> InvariantValue:
    _check_inputs(H, integrals, cd)
    d = cd.diagram
    G = H.group
    e = G.identity_index
    zero = Cyclo.zero(H.conductor)
    exponent = len(d.dotted) - len(d.undotted)

    site_entries, comp_slots, coeff0 = _site_tensors(H, integrals, cd)
    if not coeff0:
        return InvariantValue(zero, zero, exponent)

    # fold in the planned order, each component from its planned start
    # event (see _Planner for the cost model)
    sizes = [len(x) for x in site_entries]
    order, starts, _ = _Planner(H.dims, sizes, comp_slots).plan()
    lam = integrals.lam_values
    unit = H.unit
    product = H.product

    # between components the state maps pending-axis tuples to scalars;
    # registry lists the open (site, factor) pairs the axes refer to
    state = {(): coeff0}
    registry = []
    for comp, r in zip(order, starts):
        slots = comp_slots[comp]
        acc_g = e
        within = {}
        for axes, v in state.items():
            for xi, xv in unit.items():
                within[(xi, axes)] = v * xv
        for site, factor, arity, sg in slots[r:] + slots[:r]:
            tab = product[(acc_g, sg)]
            nxt = {}
            if (site, factor) in registry:
                p = registry.index((site, factor))
                for (x, axes), v in within.items():
                    a = axes[p]
                    naxes = axes[:p] + axes[p + 1:]
                    for y, c in tab[(x, a)].items():
                        add_into(nxt, (y, naxes), v * c)
                registry.pop(p)
            else:
                remaining = [f for f in range(arity) if f != factor]
                entries = site_entries[site]
                for (x, axes), v in within.items():
                    for t, w0 in entries:
                        ext = axes + tuple(t[f] for f in remaining)
                        vw = v * w0
                        for y, c in tab[(x, t[factor])].items():
                            add_into(nxt, (y, ext), vw * c)
                registry.extend((site, f) for f in remaining)
            within = nxt
            if not within:
                break
            acc_g = G.table[acc_g][sg]
        state = {}
        for (x, axes), v in within.items():
            lv = lam[x]
            if lv:
                add_into(state, axes, v * lv)
        if not state:
            break
    if registry and state:
        raise EvaluationError("dangling tensor factors after contraction")
    bracket = state.get((), zero)
    norm = Cyclo.rational(Fraction(H.dims[e]) ** exponent, conductor=H.conductor)
    value = norm * bracket
    return InvariantValue(value, bracket, exponent)


def evaluate_summed(H: HopfGAlgebra, integrals: IntegralData,
                    d: KirbyDiagram) -> SummedInvariant:
    """Sum of the invariant over all flat connections, i.e. over all
    homomorphisms from the diagram's fundamental group into H's group."""
    pres = diagrams.fundamental_presentation(d)
    homs = tuple(enumerate_homs(pres, H.group))
    values = []
    total = Cyclo.zero(H.conductor)
    for hom in homs:
        cd = diagrams.color(d, hom)
        iv = evaluate(H, integrals, cd)
        values.append(iv)
        total = total + iv.value
    return SummedInvariant(total, tuple(values), homs)


def connected_sum_check(H: HopfGAlgebra, integrals: IntegralData,
                        da: KirbyDiagram, db: KirbyDiagram,
                        hom_a: GroupHom, hom_b: GroupHom):
    """Compare evaluate(A # B) with evaluate(A) * evaluate(B); returns
    (equal, sum value, product value)."""
    cda = diagrams.color(da, hom_a)
    cdb = diagrams.color(db, hom_b)
    va = evaluate(H, integrals, cda)
    vb = evaluate(H, integrals, cdb)
    dsum = connected_sum(da, db)
    hom_sum = GroupHom(hom_a.target, hom_a.images + hom_b.images)
    vsum = evaluate(H, integrals, diagrams.color(dsum, hom_sum))
    product = va.value * vb.value
    return vsum.value == product, vsum.value, product
