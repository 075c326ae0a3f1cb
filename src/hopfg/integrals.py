"""Exact solving of two-sided integrals and the dual cointegral.

The grade-1 integral and the functional lam each solve an exact linear
system, reduced by the kernel's one elimination (``echelon_add``, which
inverts no scalar) and solved by back substitution; both solution spaces
must be one dimensional.  Each is normalized after solving, so the only
scalars inverted are eps(L_1), lam(L_1) and one counit value per further
grade.  Integrals in the other grades follow from the translation law
x*L_1 = eps(x)*L_alpha and the whole family is re-verified against both
one-sided laws before being returned.

Translation needs a basis vector x of H_alpha with eps(x) != 0, and every
supported grade has one: the counit law (HG4) gives
x = (eps (x) id)D(x) for every x in H_alpha, so an eps that vanished on
a nonzero H_alpha would force every x to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (GradedVector, HopfGAlgebra, IntegralError, add_into, apply_rows_at,
                      echelon_add, scaled_raw, slot_rows)
from .cyclo import Cyclo


def _two_sided_rows(n, entries):
    """The sparse rows, one by one, of the system M v = 0 for every n x n
    matrix M whose (row, column, value) entries entries(i, mirror) yields,
    for i < n and mirror False and True; repeated positions add up."""
    for i in range(n):
        for mirror in (False, True):
            mat = {}
            for r, c, v in entries(i, mirror):
                add_into(mat.setdefault(r, {}), c, v)
            yield from mat.values()


def _one_dimensional(H: HopfGAlgebra, entries, what: str) -> dict:
    """The solution, up to scale, of the two-sided system on H_1 that
    entries describes (see _two_sided_rows), as a sparse vector; `what`
    names the space in the IntegralError raised when it is not one
    dimensional.  The rows go into one echelon (``echelon_add``); back
    substitution in reverse echelon order sets each pivot's entry from the
    entries set before it, scaling those by the pivot's coefficient
    instead of dividing by it."""
    d1, one = H.dims[H.group.identity_index], H.one()
    echelon = []
    for row in _two_sided_rows(d1, entries):
        echelon_add(echelon, row, one)
    if len(echelon) != d1 - 1:
        raise IntegralError(f"{what} has dimension {d1 - len(echelon)}, not 1")
    pivots = {c for c, _ in echelon}
    x = {next(i for i in range(d1) if i not in pivots): one}
    for c, row in reversed(echelon):
        s = sum((r * x[t] for t, r in row.items() if t in x), H.zero())
        x = scaled_raw(x, row[c], one)
        if s:
            x[c] = -s
    return x


@dataclass
class IntegralData:
    """Normalized integrals per grade plus the cointegral on H_1.

    lam_values[i] is lam applied to the i-th grade-1 basis vector; the
    normalization is lam(L_1) = 1 and eps(L_a) = 1 in every supported grade
    (``solve_integrals`` certifies it; L_a = 0 elsewhere), so the evaluator
    takes a dot without passages to contribute 1.  An instance, like its
    algebra, is treated as immutable after construction: ``dot_site``
    keeps what it computes from both.
    """

    algebra: HopfGAlgebra
    integrals: tuple
    lam_values: tuple
    _sites: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def integral(self, grade) -> GradedVector:
        idx = grade if isinstance(grade, int) else grade.index
        return self.integrals[idx]

    def dot_site(self, a: int, downs: tuple):
        """(sorted entries, factor grades) of (S^s1 (x) ... (x) S^sk)(Delta^(k-1)(L_a))
        for k >= 1 passages, s_i = 1 where downs[i] is false (an up
        passage); no entries when it is zero.  Built once per (a, downs)."""
        site = self._sites.get((a, downs))
        if site is None:
            H = self.algebra
            entries = H.coproduct_power(self.integrals[a], len(downs)).entries
            grades = [a] * len(downs)
            for f, down in enumerate(downs):
                if not down:
                    entries = apply_rows_at(entries, f, slot_rows(H.antipode[a]), H.one())
                    grades[f] = H.group.inverses[a]
            site = self._sites[a, downs] = (sorted(entries.items()), tuple(grades))
        return site


def solve_integrals(H: HopfGAlgebra) -> IntegralData:
    G = H.group
    e = G.identity_index
    d1 = H.dims[e]
    cond = H.conductor
    zero = Cyclo.zero(cond)
    prod = H.product[e, e]

    # L_1 with x*L = eps(x)L = L*x for every grade-1 basis vector x
    def integral_law(i, mirror):
        for j in range(d1):
            for t, v in (prod[j][i] if mirror else prod[i][j]).items():
                yield t, j, v
            yield j, j, -H.counit[e][i]

    int1_raw = _one_dimensional(H, integral_law, "two-sided integral space in grade 1")

    eps_val = H.counit_raw(e, int1_raw)
    if not eps_val:
        raise IntegralError("integral is not normalizable: counit vanishes on it")
    scale = eps_val.inverse()
    int1_raw = {i: v * scale for i, v in int1_raw.items()}

    # cointegral lam on H_1: (id (x) lam)D(x) = lam(x)1 and its mirror
    def cointegral_law(i, mirror):
        for (p, q), v in H.coproduct[e][i].items():
            yield (q, p, v) if mirror else (p, q, v)
        for p, up in H.unit.items():
            yield p, i, -up

    lam = _one_dimensional(H, cointegral_law, "cointegral space on grade 1")
    lam_on_l1 = sum((v * lam[i] for i, v in int1_raw.items() if i in lam), zero)
    if not lam_on_l1:
        raise IntegralError("cointegral vanishes on the integral, cannot normalize")
    lam_scale = lam_on_l1.inverse()
    lam_vals = tuple(lam[i] * lam_scale if i in lam else zero for i in range(d1))

    # translate L_1 through the grades: x*L_1 = eps(x)L_alpha
    integrals = [None] * G.order
    integrals[e] = int1_raw
    for a in H.support:
        if a == e:
            continue
        i = next((i for i in range(H.dims[a]) if H.counit[a][i]), None)
        if i is None:
            raise IntegralError(
                f"counit vanishes on grade {G.names[a]}, so no integral "
                f"translates to it (the counit law fails there)")
        inv = H.counit[a][i].inverse()
        integrals[a] = H.mul_raw(a, e, {i: inv}, int1_raw)

    _verify_family(H, integrals)

    out = tuple(
        GradedVector(G.element(a), integrals[a] or {}) for a in range(G.order)
    )
    return IntegralData(H, out, lam_vals)


def _verify_family(H: HopfGAlgebra, integrals):
    """Raise IntegralError unless x L_b = eps(x) L_ab and L_b x = eps(x) L_ba
    for every basis vector x of every supported grade a and every
    supported b.  They also give eps(L_a) = 1, by linearity in x: the left
    law at (a, 1) gives L_a L_1 = eps(L_a) L_a and the right one at (1, a)
    L_a L_1 = eps(L_1) L_a = L_a; and L_a = 0 would make eps vanish on
    H_{a^-1} (x L_a = eps(x) L_1 there), which translation rules out."""
    G = H.group
    one = H.one()
    for a in H.support:
        for b in H.support:
            ab = G.table[a][b]
            ba = G.table[b][a]
            for i in range(H.dims[a]):
                eps_i = H.counit[a][i]
                lhs = H.mul_raw(a, b, {i: one}, integrals[b])
                if lhs != scaled_raw(integrals[ab], eps_i, one):
                    raise IntegralError(
                        f"left integral law fails at grades "
                        f"({G.names[a]},{G.names[b]}) basis {i}")
                lhs = H.mul_raw(b, a, integrals[b], {i: one})
                if lhs != scaled_raw(integrals[ba], eps_i, one):
                    raise IntegralError(
                        f"right integral law fails at grades "
                        f"({G.names[b]},{G.names[a]}) basis {i}")
