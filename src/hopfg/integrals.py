"""Exact solving of two-sided integrals and the dual cointegral.

The grade-1 integral and the functional lam are found as nullspaces of
exact linear systems; both spaces must be one dimensional.  Integrals in
the other grades follow from the translation law x*L_1 = eps(x)*L_alpha
and the whole family is re-verified against both one-sided laws before
being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedVector, HopfGAlgebra, IntegralError
from .cyclo import Cyclo, render_scalar


def _nullspace(rows, ncols, conductor):
    """Basis of the right nullspace of the given dense Cyclo matrix."""
    zero = Cyclo.zero(conductor)
    one = Cyclo.one(conductor)
    mat = [list(r) for r in rows if any(r)]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pr = next((k for k in range(r, len(mat)) if mat[k][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [v * inv for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][c]:
                f = mat[k][c]
                mat[k] = [a - f * b for a, b in zip(mat[k], mat[r])]
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
            vec[pc] = -mat[ri][fc]
        basis.append(vec)
    return basis


@dataclass
class IntegralData:
    """Normalized integrals per grade plus the cointegral on H_1.

    lam_values[i] is lam applied to the i-th grade-1 basis vector; the
    normalization is eps(L_1) = 1 and lam(L_1) = 1.
    """

    algebra: HopfGAlgebra
    integrals: tuple
    lam_values: tuple

    def integral(self, grade) -> GradedVector:
        idx = grade if isinstance(grade, int) else grade.index
        return self.integrals[idx]

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

    int1_raw = _grade_integral(H, e, "two-sided integral space in grade 1")

    eps_val = H.counit_raw(e, int1_raw)
    if not eps_val:
        raise IntegralError("integral is not normalizable: counit vanishes on it")
    scale = eps_val.inverse()
    int1_raw = {i: v * scale for i, v in int1_raw.items()}

    # cointegral lam on H_1: (id (x) lam)D(x) = lam(x)1 and its mirror
    rows = []
    for i in range(d1):
        di = H.coproduct[e][i]
        left = [[zero] * d1 for _ in range(d1)]
        right = [[zero] * d1 for _ in range(d1)]
        for (p, q), v in di.items():
            left[p][q] = left[p][q] + v
            right[q][p] = right[q][p] + v
        for p, up in H.unit.items():
            left[p][i] = left[p][i] - up
            right[p][i] = right[p][i] - up
        rows.extend(left)
        rows.extend(right)
    lam_space = _nullspace(rows, d1, cond)
    if len(lam_space) != 1:
        raise IntegralError(
            f"cointegral space on grade 1 has dimension {len(lam_space)}, not 1")
    lam_vals = lam_space[0]
    lam_on_l1 = sum((int1_raw[i] * lam_vals[i] for i in int1_raw), zero)
    if not lam_on_l1:
        raise IntegralError("cointegral vanishes on the integral, cannot normalize")
    lam_scale = lam_on_l1.inverse()
    lam_vals = tuple(v * lam_scale for v in lam_vals)

    # translate L_1 through the grades: x*L_1 = eps(x)L_alpha
    integrals = [None] * G.order
    integrals[e] = int1_raw
    for a in H.support:
        if integrals[a] is not None:
            continue
        i = next((i for i in range(H.dims[a]) if H.counit[a][i]), None)
        if i is None:
            continue
        inv = H.counit[a][i].inverse()
        integrals[a] = H.mul_raw(a, e, {i: inv}, int1_raw)
    # leftover grades (counit identically zero there): walk from known ones
    changed = True
    while changed:
        changed = False
        for a in H.support:
            if integrals[a] is not None:
                continue
            for g in H.support:
                i = next((i for i in range(H.dims[g]) if H.counit[g][i]), None)
                if i is None:
                    continue
                b = G.table[G.inverses[g]][a]
                if H.dims[b] and integrals[b] is not None:
                    inv = H.counit[g][i].inverse()
                    integrals[a] = H.mul_raw(g, b, {i: inv}, integrals[b])
                    changed = True
                    break
    for a in H.support:
        if integrals[a] is None:
            # scale genuinely undetermined by translation; pin the leading
            # coordinate and let the re-verification below judge the result
            integrals[a] = _grade_integral(
                H, a, f"integral space in grade {G.names[a]}")

    _verify_family(H, integrals)

    out = tuple(
        GradedVector(G.element(a), integrals[a] or {}) for a in range(G.order)
    )
    return IntegralData(H, out, lam_vals)


def _grade_integral(H: HopfGAlgebra, a: int, what: str) -> dict:
    """The L in H_a, up to scale, with x*L = eps(x)L = L*x for every
    grade-1 basis vector x; `what` names the space in the error raised
    when it is not one dimensional."""
    e = H.group.identity_index
    da = H.dims[a]
    zero = Cyclo.zero(H.conductor)
    rows = []
    for i in range(H.dims[e]):
        eps_i = H.counit[e][i]
        left = [[zero] * da for _ in range(da)]
        right = [[zero] * da for _ in range(da)]
        for j in range(da):
            for t, v in H.product[(e, a)][(i, j)].items():
                left[t][j] = left[t][j] + v
            for t, v in H.product[(a, e)][(j, i)].items():
                right[t][j] = right[t][j] + v
            left[j][j] = left[j][j] - eps_i
            right[j][j] = right[j][j] - eps_i
        rows.extend(left)
        rows.extend(right)
    space = _nullspace(rows, da, H.conductor)
    if len(space) != 1:
        raise IntegralError(f"{what} has dimension {len(space)}, not 1")
    return {i: v for i, v in enumerate(space[0]) if v}


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
                rhs = {t: v * eps_i for t, v in integrals[ab].items() if v * eps_i}
                if lhs != rhs:
                    raise IntegralError(
                        f"left integral law fails at grades "
                        f"({G.names[a]},{G.names[b]}) basis {i}")
                lhs = H.mul_raw(b, a, integrals[b], {i: one})
                rhs = {t: v * eps_i for t, v in integrals[ba].items() if v * eps_i}
                if lhs != rhs:
                    raise IntegralError(
                        f"right integral law fails at grades "
                        f"({G.names[b]},{G.names[a]}) basis {i}")
    for a in H.support:
        val = H.counit_raw(a, integrals[a])
        if val != one:
            raise IntegralError(
                f"counit of the grade {G.names[a]} integral is "
                f"{render_scalar(val)}, not 1")
