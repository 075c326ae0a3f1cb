"""Exact solving of two-sided integrals and the dual cointegral.

The grade-1 integral and the functional lam are found as nullspaces of
exact linear systems; both spaces must be one dimensional.  Integrals in
the other grades follow from the translation law x*L_1 = eps(x)*L_alpha
and the whole family is re-verified against both one-sided laws before
being returned.

Translation needs a basis vector x of H_alpha with eps(x) != 0, and every
supported grade has one: the counit law (HG4) gives
x = (eps (x) id)D(x) for every x in H_alpha, so an eps that vanished on
a nonzero H_alpha would force every x to be zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (GradedVector, HopfGAlgebra, IntegralError, add_into, apply_rows_at,
                      scaled_raw, slot_rows)
from .cyclo import Cyclo, render_scalar


def _nullspace(rows, ncols, conductor):
    """Basis of the right nullspace of the matrix with the given sparse
    rows ({column: nonzero Cyclo}), one dense list per basis vector."""
    zero = Cyclo.zero(conductor)
    one = Cyclo.one(conductor)
    mat = [dict(r) for r in rows if r]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(mat)) if c in mat[k]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = {j: v * inv for j, v in mat[r].items()}
        for k in range(len(mat)):
            if k != r and c in mat[k]:
                f = mat[k][c]
                for j, v in mat[r].items():
                    add_into(mat[k], j, -(f * v))
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for ri, pc in enumerate(pivot_cols):
            vec[pc] = -mat[ri].get(fc, zero)
        basis.append(vec)
    return basis


def _two_sided_rows(n, entries):
    """Sparse rows of the system M v = 0 for every n x n matrix M whose
    (row, column, value) entries entries(i, mirror) yields, for i < n and
    mirror False and True; repeated positions add up."""
    rows = []
    for i in range(n):
        for mirror in (False, True):
            mat = {}
            for r, c, v in entries(i, mirror):
                add_into(mat.setdefault(r, {}), c, v)
            rows.extend(mat.values())
    return rows


def _one_dimensional(H: HopfGAlgebra, entries, what: str) -> list:
    """The solution, up to scale, of the two-sided system on H_1 that
    entries describes (see _two_sided_rows); `what` names the space in
    the IntegralError raised when it is not one dimensional."""
    d1 = H.dims[H.group.identity_index]
    space = _nullspace(_two_sided_rows(d1, entries), d1, H.conductor)
    if len(space) != 1:
        raise IntegralError(f"{what} has dimension {len(space)}, not 1")
    return space[0]


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

    def eval_lambda(self, x: GradedVector) -> Cyclo:
        if not x.grade.is_identity():
            raise IntegralError("lam is only defined on grade 1")
        total = Cyclo.zero(self.algebra.conductor)
        for i, v in x.entries.items():
            total = total + v * self.lam_values[i]
        return total


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

    int1 = _one_dimensional(H, integral_law, "two-sided integral space in grade 1")
    int1_raw = {i: v for i, v in enumerate(int1) if v}

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

    lam_vals = _one_dimensional(H, cointegral_law, "cointegral space on grade 1")
    lam_on_l1 = sum((int1_raw[i] * lam_vals[i] for i in int1_raw), zero)
    if not lam_on_l1:
        raise IntegralError("cointegral vanishes on the integral, cannot normalize")
    lam_scale = lam_on_l1.inverse()
    lam_vals = tuple(v * lam_scale for v in lam_vals)

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
    for a in H.support:
        val = H.counit_raw(a, integrals[a])
        if val != one:
            raise IntegralError(
                f"counit of the grade {G.names[a]} integral is "
                f"{render_scalar(val)}, not 1")
