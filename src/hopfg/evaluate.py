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
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import HopfGAlgebra, add_into, apply_rows_at, slot_rows
from .cyclo import Cyclo
from .diagrams import (
    ColoredDiagram,
    CrossingEnd,
    DiagramError,
    DotPassage,
    KirbyDiagram,
    connected_sum,
    require_valid,
)
from .groups import FiniteGroup, GroupHom, enumerate_homs
from .integrals import IntegralData
from . import diagrams


class EvaluationError(RuntimeError):
    """Internal consistency failure (grade telescoping, missing colors)."""


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
        if x.passages:
            continue
        a = cd.color_of(x.id).index
        if H.dims[a] == 0:
            return None, None, zero
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
            if not isinstance(ev, DotPassage) or ev.dot != x.id:
                raise DiagramError(
                    f"dot {x.id} passage list points at a non-matching event")
            if not ev.down:
                entries = apply_rows_at(entries, factor, slot_rows(H.antipode[a]))
                grades[factor] = G.inverses[a]
        site = len(site_entries)
        site_entries.append(sorted(entries.items()))
        for factor, ref in enumerate(x.passages):
            passage_slot[ref] = (site, factor, k, grades[factor])

    crossing_slot = {}
    for c in d.crossings:
        entries = H.rmatrix if c.positive else H.r_inverse_raw()
        site = len(site_entries)
        site_entries.append(sorted(entries.items()))
        crossing_slot[c.id] = site

    comp_slots = []
    for u in d.undotted:
        slots = []
        for pos, ev in enumerate(u.events):
            if isinstance(ev, CrossingEnd):
                slots.append((crossing_slot[ev.crossing], 0 if ev.over else 1, 2, e))
            else:
                ref = (u.id, pos)
                if ref not in passage_slot:
                    raise DiagramError(
                        f"passage event at {ref} is missing from dot {ev.dot}")
                slots.append(passage_slot[ref])
        g = e
        for _, _, _, sg in slots:
            g = G.table[g][sg]
        if g != e:
            raise EvaluationError(
                f"grades along undotted component {u.id} do not telescope to 1")
        comp_slots.append(slots)
    return site_entries, comp_slots, coeff0


def evaluate(H: HopfGAlgebra, integrals: IntegralData, cd: ColoredDiagram) -> InvariantValue:
    if integrals.algebra is not H:
        raise EvaluationError("integral data belongs to a different algebra")
    d = cd.diagram
    require_valid(d)
    G = H.group
    e = G.identity_index
    zero = Cyclo.zero(H.conductor)
    exponent = len(d.dotted) - len(d.undotted)
    dim1 = Cyclo.rational(H.dims[e], conductor=H.conductor)

    site_entries, comp_slots, coeff0 = _site_tensors(H, integrals, cd)
    if not coeff0:
        return InvariantValue(zero, zero, exponent)

    # fold small components first to retire their sites early
    comp_slots = sorted(comp_slots, key=len)
    lam = integrals.lam_values
    unit = H.unit
    product = H.product

    # between components the state maps pending-axis tuples to scalars;
    # registry lists the open (site, factor) pairs the axes refer to
    state = {(): coeff0}
    registry = []
    for slots in comp_slots:
        acc_g = e
        within = {}
        for axes, v in state.items():
            for xi, xv in unit.items():
                within[(xi, axes)] = v * xv
        for site, factor, arity, sg in slots:
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
    value = (dim1 ** exponent) * bracket
    return InvariantValue(value, bracket, exponent)


def evaluate_summed(H: HopfGAlgebra, integrals: IntegralData, d: KirbyDiagram,
                    G: FiniteGroup | None = None) -> SummedInvariant:
    """Sum of the invariant over all flat connections, i.e. over all
    homomorphisms from the diagram's fundamental group into G."""
    if G is None:
        G = H.group
    pres = diagrams.fundamental_presentation(d)
    homs = tuple(enumerate_homs(pres, G))
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
