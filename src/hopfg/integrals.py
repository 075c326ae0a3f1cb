"""Exact solving of two-sided integrals and the dual cointegral.

The grade-1 integral and the functional lam each solve an exact linear
system, reduced by the kernel's one elimination (``echelon_add``, which
inverts no scalar) and solved by back substitution; both solution spaces
must be one dimensional.  Each is normalized after solving, so the only
scalars inverted are eps(L_1), lam(L_1) and one counit value per further
grade.  Integrals in the other grades follow from the translation law
x*L_1 = eps(x)*L_alpha and the whole family is re-verified against both
one-sided laws before being returned.

The x with x*L = eps(x)L = L*x contain 1 and are closed under products
(Larson & Sweedler, Amer. J. Math. 1969), so the grade-1 system takes
rows for x over ``algebra.grade_one_generators`` only; as the axioms may
be unchecked, the family check certifies the answer (its (1, 1) case is
the full law), and if any step fails all is solved again with the rows of
every basis vector, which raise every IntegralError.  The cointegral's
system is always the full one: its rows are the coproduct's entries,
cheaper to solve than generators of H_1* are to find.

Translation needs a basis vector x of H_alpha with eps(x) != 0, and every
supported grade has one: the counit law (HG4) gives
x = (eps (x) id)D(x) for every x in H_alpha, so an eps that vanished on
a nonzero H_alpha would force every x to be zero.
"""

from __future__ import annotations

from .algebra import (Graded, HopfGAlgebra, IntegralError, add_into, echelon_add,
                      grade_one_generators, scaled_raw)
from .groups import Record


def _two_sided_rows(keys, entries):
    """The sparse rows, one by one, of the system M v = 0 for every square
    matrix M whose (row, column, value) entries entries(k, mirror) yields,
    for k in keys and mirror False and True; repeated positions add up."""
    for k in keys:
        for mirror in (False, True):
            mat = {}
            for r, c, v in entries(k, mirror):
                add_into(mat.setdefault(r, {}), c, v)
            yield from mat.values()


def _one_dimensional(H: HopfGAlgebra, keys, entries, what: str) -> dict:
    """The solution, up to scale, of the two-sided system on H_1 that keys
    and entries describe (see _two_sided_rows), as a sparse vector; `what`
    names the space in the IntegralError raised when it is not one
    dimensional.  The rows go into one echelon (``echelon_add``) up to rank
    d1 - 1; back substitution in reverse echelon order sets each pivot's
    entry from those set before it, scaling them by the pivot's coefficient
    instead of dividing by it.  The echelon then spans the annihilator of
    the solution x, so a later row r is redundant exactly when r.x = 0."""
    d1, one, zero = H.dims[H.group.identity_index], H.one(), H.zero()
    rows, echelon = _two_sided_rows(keys, entries), []
    while len(echelon) < d1 - 1:
        row = next(rows, None)
        if row is None:
            raise IntegralError(f"{what} has dimension {d1 - len(echelon)}, not 1")
        echelon_add(echelon, row, one)
    pivots = {c for c, _ in echelon}
    x = {next(i for i in range(d1) if i not in pivots): one}
    for c, row in reversed(echelon):
        s = sum((r * x[t] for t, r in row.items() if t in x), zero)
        x = scaled_raw(x, row[c], one)
        if s:
            x[c] = -s
    if any(sum((r * x[t] for t, r in row.items() if t in x), zero) for row in rows):
        raise IntegralError(f"{what} has dimension 0, not 1")
    return x


class IntegralData(Record, mutable=True):
    """Normalized integrals per grade plus the cointegral on H_1.

    integrals[a] is L_a as a sparse vector and lam_values[i] is lam applied
    to the i-th grade-1 basis vector; the normalization is lam(L_1) = 1 and
    eps(L_a) = 1 in every supported grade (``solve_integrals`` certifies
    it; L_a = {} elsewhere), so the evaluator takes a dot without passages
    to contribute 1.  Like its algebra, an instance is treated as immutable:
    the evaluator's dot sites and view of lam are kept in ``_kept``
    (``algebra._kept``), which equality and repr ignore.
    """

    __slots__ = ("algebra", "integrals", "lam_values", "_kept")

    def __init__(self, algebra: HopfGAlgebra, integrals: tuple, lam_values: tuple):
        self.algebra, self.integrals, self.lam_values = algebra, integrals, lam_values
        self._kept = {}

    def integral(self, grade) -> Graded:
        idx = grade if isinstance(grade, int) else grade.index
        return Graded(self.algebra.group.element(idx), self.integrals[idx])


def solve_integrals(H: HopfGAlgebra) -> IntegralData:
    """The normalized integrals of every grade and the cointegral on H_1,
    solved on generators of H_1, else in full (see the module docstring)."""
    try:
        return _solve(H, True)
    except IntegralError:
        return _solve(H, False)


def _solve(H: HopfGAlgebra, on_generators: bool) -> IntegralData:
    """``solve_integrals`` with the grade-1 integral's rows taken for x over
    generators of H_1 where on_generators is true, else over the basis."""
    G = H.group
    e = G.identity_index
    d1 = H.dims[e]
    zero = H.zero()
    prod = H.product[e, e]

    # L_1 with x*L = eps(x)L = L*x for x = e_i, i over generators of H_1 or all
    def integral_law(i, mirror):
        for j in range(d1):
            for t, v in (prod[j][i] if mirror else prod[i][j]).items():
                yield t, j, v
            yield j, j, -H.counit[e][i]

    xs = grade_one_generators(H) if on_generators else range(d1)
    int1_raw = _one_dimensional(H, xs, integral_law, "two-sided integral space in grade 1")

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

    lam = _one_dimensional(H, range(d1), cointegral_law, "cointegral space on grade 1")
    lam_on_l1 = sum((v * lam[i] for i, v in int1_raw.items() if i in lam), zero)
    if not lam_on_l1:
        raise IntegralError("cointegral vanishes on the integral, cannot normalize")
    lam_scale = lam_on_l1.inverse()
    lam_vals = tuple(lam[i] * lam_scale if i in lam else zero for i in range(d1))

    # translate L_1 through the grades: x*L_1 = eps(x)L_alpha
    integrals = [{} for _ in range(G.order)]
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
    return IntegralData(H, tuple(integrals), lam_vals)


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
