"""Exhaustive axiom verification for Hopf G-algebras.

Every check runs over all supported grade tuples and all basis tuples,
in deterministic ascending order, and reports the first witness when it
fails.  Nothing is sampled; the dimensions involved make full sweeps
cheap.
"""

from __future__ import annotations

from .algebra import (
    DrinfeldError,
    GradedVector,
    HopfGAlgebra,
    _tensor_mul_raw,
    add_into,
    apply_rows,
    apply_rows_at,
    embed_two_raw,
    format_raw_tensor,
    format_raw_vector,
    slot_rows,
)
from .cyclo import render_scalar


class AxiomReport:
    """Outcome of verify_axioms: named checks with pass/fail and witnesses."""

    def __init__(self, algebra_name, checks):
        self.algebra_name = algebra_name
        self.checks = checks  # list of (name, ok, witness-or-None)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, witness) for name, ok, witness in self.checks if not ok]

    def lines(self):
        out = []
        for name, ok, witness in self.checks:
            if ok:
                out.append(f"[PASS] {name}")
            else:
                out.append(f"[FAIL] {name}: {witness}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _grade_names(H, idxs):
    return "(" + ",".join(H.group.names[a] for a in idxs) + ")"


def _add_all(out, raw):
    for key, v in raw.items():
        add_into(out, key, v)


def _both_slots(two_tensor, rows):
    """(f (x) f) of a 2-tensor, f given by int-keyed sparse rows."""
    rows = slot_rows(rows)
    return apply_rows_at(apply_rows_at(two_tensor, 0, rows), 1, rows)


def _unit_unit(H):
    return {(p, q): vp * vq for p, vp in H.unit.items() for q, vq in H.unit.items()}


def verify_axioms(H: HopfGAlgebra) -> AxiomReport:
    checks = [
        ("(HG1) product associative", _check_associative),
        ("(HG2) unit laws", _check_unit),
        ("(HG3) coproduct coassociative", _check_coassociative),
        ("(HG4) counit laws", _check_counit),
        ("(HG5) coproduct multiplicative", _check_coproduct_mult),
        ("(HG6) counit multiplicative", _check_counit_mult),
        ("(HG7) coproduct of unit", _check_coproduct_unit),
        ("(HG8) counit of unit", _check_counit_unit),
        ("(HG9) antipode laws", _check_antipode),
        ("antipode involutory", _check_involutory),
        ("(CHG1) crossing is a coalgebra isomorphism", _check_crossing_coalgebra),
        ("(CHG2) crossing multiplicative", _check_crossing_mult),
        ("(CHG3) crossing fixes unit", _check_crossing_unit),
        ("(CHG4) crossing composition", _check_crossing_comp),
        ("(QHG1) R splits left coproduct", _check_r_left),
        ("(QHG2) R splits right coproduct", _check_r_right),
        ("(QHG3) R intertwines coproduct and opposite", _check_r_intertwine),
        ("(QHG4) R fixed by crossing", _check_r_crossing),
        ("R invertible", _check_r_invertible),
        ("quantum Yang-Baxter", _check_yang_baxter),
    ]
    results = []
    for name, fn in checks:
        witness = fn(H)
        results.append((name, witness is None, witness))
    return AxiomReport(H.name, results)


# -- plain Hopf axioms -------------------------------------------------------


def _check_associative(H):
    one = H.one()
    for a in H.support:
        for b in H.support:
            ab = H.group.table[a][b]
            for c in H.support:
                bc = H.group.table[b][c]
                for i in range(H.dims[a]):
                    for j in range(H.dims[b]):
                        xy = H.mul_raw(a, b, {i: one}, {j: one})
                        for k in range(H.dims[c]):
                            lhs = H.mul_raw(ab, c, xy, {k: one})
                            yz = H.mul_raw(b, c, {j: one}, {k: one})
                            rhs = H.mul_raw(a, bc, {i: one}, yz)
                            if lhs != rhs:
                                abc = H.group.table[ab][c]
                                return (
                                    f"grades {_grade_names(H, (a, b, c))} basis ({i},{j},{k}): "
                                    f"(xy)z = {format_raw_vector(H, abc, lhs)} but "
                                    f"x(yz) = {format_raw_vector(H, abc, rhs)}"
                                )
    return None


def _check_unit(H):
    e = H.group.identity_index
    one = H.one()
    for a in H.support:
        for i in range(H.dims[a]):
            left = H.mul_raw(e, a, H.unit, {i: one})
            right = H.mul_raw(a, e, {i: one}, H.unit)
            want = {i: one}
            if left != want:
                return (
                    f"grade {H.group.names[a]} basis {i}: 1*x = {format_raw_vector(H, a, left)}"
                )
            if right != want:
                return (
                    f"grade {H.group.names[a]} basis {i}: x*1 = {format_raw_vector(H, a, right)}"
                )
    return None


def _check_coassociative(H):
    for a in H.support:
        delta = H.coproduct[a]
        for i in range(H.dims[a]):
            lhs = apply_rows_at(delta[i], 0, delta)
            rhs = apply_rows_at(delta[i], 1, delta)
            if lhs != rhs:
                return (
                    f"grade {H.group.names[a]} basis {i}: "
                    f"(D(x)id)D = {format_raw_tensor(H, (a, a, a), lhs)} but "
                    f"(id(x)D)D = {format_raw_tensor(H, (a, a, a), rhs)}"
                )
    return None


def _check_counit(H):
    for a in H.support:
        delta = H.coproduct[a]
        eps = H.counit[a]
        for i in range(H.dims[a]):
            left = {}
            right = {}
            for (p, q), v in delta[i].items():
                if eps[p]:
                    add_into(right, q, v * eps[p])
                if eps[q]:
                    add_into(left, p, v * eps[q])
            want = {i: H.one()}
            if left != want:
                return (
                    f"grade {H.group.names[a]} basis {i}: "
                    f"(id(x)eps)D = {format_raw_vector(H, a, left)}"
                )
            if right != want:
                return (
                    f"grade {H.group.names[a]} basis {i}: "
                    f"(eps(x)id)D = {format_raw_vector(H, a, right)}"
                )
    return None


def _check_coproduct_mult(H):
    for a in H.support:
        for b in H.support:
            ab = H.group.table[a][b]
            delta_ab = H.coproduct[ab]
            for i in range(H.dims[a]):
                for j in range(H.dims[b]):
                    lhs = apply_rows(delta_ab, H.product[(a, b)][(i, j)])
                    _, rhs = _tensor_mul_raw(H, (a, a), H.coproduct[a][i],
                                             (b, b), H.coproduct[b][j])
                    if lhs != rhs:
                        return (
                            f"grades {_grade_names(H, (a, b))} basis ({i},{j}): "
                            f"D(xy) = {format_raw_tensor(H, (ab, ab), lhs)} but "
                            f"D(x)D(y) = {format_raw_tensor(H, (ab, ab), rhs)}"
                        )
    return None


def _check_counit_mult(H):
    one = H.one()
    for a in H.support:
        for b in H.support:
            ab = H.group.table[a][b]
            for i in range(H.dims[a]):
                for j in range(H.dims[b]):
                    prod = H.mul_raw(a, b, {i: one}, {j: one})
                    lhs = H.counit_raw(ab, prod)
                    rhs = H.counit[a][i] * H.counit[b][j]
                    if lhs != rhs:
                        return (
                            f"grades {_grade_names(H, (a, b))} basis ({i},{j}): "
                            f"eps(xy) = {render_scalar(lhs)} but "
                            f"eps(x)eps(y) = {render_scalar(rhs)}"
                        )
    return None


def _check_coproduct_unit(H):
    e = H.group.identity_index
    lhs = apply_rows(H.coproduct[e], H.unit)
    rhs = _unit_unit(H)
    if lhs != rhs:
        return (
            f"D(1) = {format_raw_tensor(H, (e, e), lhs)} but "
            f"1(x)1 = {format_raw_tensor(H, (e, e), rhs)}"
        )
    return None


def _check_counit_unit(H):
    e = H.group.identity_index
    val = H.counit_raw(e, H.unit)
    if val != H.one():
        return f"eps(1) = {render_scalar(val)}"
    return None


def _check_antipode(H):
    e = H.group.identity_index
    for a in H.support:
        ainv = H.group.inverses[a]
        for i in range(H.dims[a]):
            eps = H.counit[a][i]
            want = {t: v * eps for t, v in H.unit.items() if v * eps}
            left = {}
            right = {}
            for (p, q), v in H.coproduct[a][i].items():
                _add_all(left, H.mul_raw(ainv, a, H.antipode[a][p], {q: v}))
                _add_all(right, H.mul_raw(a, ainv, {p: v}, H.antipode[a][q]))
            if left != want:
                return (
                    f"grade {H.group.names[a]} basis {i}: "
                    f"m(S(x)id)D(x) = {format_raw_vector(H, e, left)} but "
                    f"eps(x)1 = {format_raw_vector(H, e, want)}"
                )
            if right != want:
                return (
                    f"grade {H.group.names[a]} basis {i}: "
                    f"m(id(x)S)D(x) = {format_raw_vector(H, e, right)} but "
                    f"eps(x)1 = {format_raw_vector(H, e, want)}"
                )
    return None


def _check_involutory(H):
    one = H.one()
    for a in H.support:
        ainv = H.group.inverses[a]
        for i in range(H.dims[a]):
            twice = apply_rows(H.antipode[ainv], H.antipode[a][i])
            if twice != {i: one}:
                return (
                    f"grade {H.group.names[a]} basis {i}: "
                    f"S(S(x)) = {format_raw_vector(H, a, twice)}"
                )
    return None


# -- crossing axioms ---------------------------------------------------------


def _check_crossing_coalgebra(H):
    G = H.group
    one = H.one()
    for b in range(G.order):
        binv = G.inverses[b]
        for a in H.support:
            target = G.conj(b, a)
            phi = H.crossing[(b, a)]
            for i in range(H.dims[a]):
                back = apply_rows(H.crossing[(binv, target)], phi[i])
                if back != {i: one}:
                    return (
                        f"(beta,alpha)=({G.names[b]},{G.names[a]}) basis {i}: "
                        f"inverse crossing gives {format_raw_vector(H, a, back)}"
                    )
                lhs = apply_rows(H.coproduct[target], phi[i])
                rhs = _both_slots(H.coproduct[a][i], phi)
                if lhs != rhs:
                    return (
                        f"(beta,alpha)=({G.names[b]},{G.names[a]}) basis {i}: "
                        f"D(phi(x)) = {format_raw_tensor(H, (target, target), lhs)} but "
                        f"(phi(x)phi)D(x) = {format_raw_tensor(H, (target, target), rhs)}"
                    )
                lhs_eps = H.counit_raw(target, phi[i])
                if lhs_eps != H.counit[a][i]:
                    return (
                        f"(beta,alpha)=({G.names[b]},{G.names[a]}) basis {i}: "
                        f"eps(phi(x)) = {render_scalar(lhs_eps)} but "
                        f"eps(x) = {render_scalar(H.counit[a][i])}"
                    )
    return None


def _check_crossing_mult(H):
    G = H.group
    one = H.one()
    for b in range(G.order):
        for a in H.support:
            ca = G.conj(b, a)
            for c in H.support:
                cc = G.conj(b, c)
                ac = G.table[a][c]
                for i in range(H.dims[a]):
                    pi = H.crossing[(b, a)][i]
                    for j in range(H.dims[c]):
                        pj = H.crossing[(b, c)][j]
                        lhs = H.mul_raw(ca, cc, pi, pj)
                        prod = H.mul_raw(a, c, {i: one}, {j: one})
                        rhs = apply_rows(H.crossing[(b, ac)], prod)
                        if lhs != rhs:
                            tgt = G.conj(b, ac)
                            return (
                                f"(beta,alpha,gamma)=({G.names[b]},{G.names[a]},{G.names[c]}) "
                                f"basis ({i},{j}): phi(x)phi(y) = {format_raw_vector(H, tgt, lhs)} "
                                f"but phi(xy) = {format_raw_vector(H, tgt, rhs)}"
                            )
    return None


def _check_crossing_unit(H):
    G = H.group
    e = G.identity_index
    for b in range(G.order):
        img = apply_rows(H.crossing[(b, e)], H.unit)
        if img != H.unit:
            return (
                f"beta={G.names[b]}: phi(1) = {format_raw_vector(H, e, img)}"
            )
    return None


def _check_crossing_comp(H):
    G = H.group
    for b1 in range(G.order):
        for b2 in range(G.order):
            b12 = G.table[b1][b2]
            for a in H.support:
                mid = G.conj(b2, a)
                for i in range(H.dims[a]):
                    step = apply_rows(H.crossing[(b1, mid)], H.crossing[(b2, a)][i])
                    direct = H.crossing[(b12, a)][i]
                    if step != direct:
                        tgt = G.conj(b12, a)
                        return (
                            f"(beta,beta')=({G.names[b1]},{G.names[b2]}) grade "
                            f"{G.names[a]} basis {i}: composite = "
                            f"{format_raw_vector(H, tgt, step)} but direct = "
                            f"{format_raw_vector(H, tgt, direct)}"
                        )
    return None


# -- quasitriangular axioms --------------------------------------------------


def _r3(H, p1, p2):
    """R placed at slots p1 < p2 of a 3-tensor, the unit at the third."""
    return embed_two_raw(H, H.rmatrix, p1, p2, 3)


def _check_r_left(H):
    e = H.group.identity_index
    lhs = apply_rows_at(H.rmatrix, 0, H.coproduct[e])
    _, rhs = _tensor_mul_raw(H, (e,) * 3, _r3(H, 0, 2), (e,) * 3, _r3(H, 1, 2))
    if lhs != rhs:
        return (
            f"(D(x)id)R = {format_raw_tensor(H, (e, e, e), lhs)} but "
            f"R13*R23 = {format_raw_tensor(H, (e, e, e), rhs)}"
        )
    return None


def _check_r_right(H):
    e = H.group.identity_index
    lhs = apply_rows_at(H.rmatrix, 1, H.coproduct[e])
    _, rhs = _tensor_mul_raw(H, (e,) * 3, _r3(H, 0, 2), (e,) * 3, _r3(H, 0, 1))
    if lhs != rhs:
        return (
            f"(id(x)D)R = {format_raw_tensor(H, (e, e, e), lhs)} but "
            f"R13*R12 = {format_raw_tensor(H, (e, e, e), rhs)}"
        )
    return None


def _check_r_intertwine(H):
    e = H.group.identity_index
    for a in H.support:
        for i in range(H.dims[a]):
            dx = H.coproduct[a][i]
            dcop = {(q, p): v for (p, q), v in dx.items()}
            _, lhs = _tensor_mul_raw(H, (e, e), H.rmatrix, (a, a), dx)
            _, rhs = _tensor_mul_raw(H, (a, a), dcop, (e, e), H.rmatrix)
            if lhs != rhs:
                return (
                    f"grade {H.group.names[a]} basis {i}: "
                    f"R*D(x) = {format_raw_tensor(H, (a, a), lhs)} but "
                    f"Dcop(x)*R = {format_raw_tensor(H, (a, a), rhs)}"
                )
    return None


def _check_r_crossing(H):
    G = H.group
    e = G.identity_index
    for b in range(G.order):
        out = _both_slots(H.rmatrix, H.crossing[(b, e)])
        if out != H.rmatrix:
            return (
                f"beta={G.names[b]}: (phi(x)phi)R = "
                f"{format_raw_tensor(H, (e, e), out)}"
            )
    return None


def _check_r_invertible(H):
    e = H.group.identity_index
    rinv = H.r_inverse_raw()
    want = _unit_unit(H)
    _, left = _tensor_mul_raw(H, (e, e), rinv, (e, e), H.rmatrix)
    if left != want:
        return f"(S(x)id)R * R = {format_raw_tensor(H, (e, e), left)}"
    _, right = _tensor_mul_raw(H, (e, e), H.rmatrix, (e, e), rinv)
    if right != want:
        return f"R * (S(x)id)R = {format_raw_tensor(H, (e, e), right)}"
    return None


def _check_yang_baxter(H):
    e = H.group.identity_index
    g3 = (e, e, e)
    r12, r13, r23 = _r3(H, 0, 1), _r3(H, 0, 2), _r3(H, 1, 2)
    _, lhs = _tensor_mul_raw(H, g3, r12, g3, r13)
    _, lhs = _tensor_mul_raw(H, g3, lhs, g3, r23)
    _, rhs = _tensor_mul_raw(H, g3, r23, g3, r13)
    _, rhs = _tensor_mul_raw(H, g3, rhs, g3, r12)
    if lhs != rhs:
        return (
            f"R12*R13*R23 = {format_raw_tensor(H, g3, lhs)} but "
            f"R23*R13*R12 = {format_raw_tensor(H, g3, rhs)}"
        )
    return None


# -- Drinfeld element --------------------------------------------------------


def drinfeld_element(H: HopfGAlgebra) -> GradedVector:
    """The grade-1 element u = sum S(b)a over R = sum a (x) b.

    Certifies that u is invertible (against the closed-form candidate
    sum b * S(S(a))), central in H_1, fixed by the antipode, and has
    counit 1.  Raises DrinfeldError naming the identity that failed.
    """
    e = H.group.identity_index
    one = H.one()
    u: dict = {}
    uinv: dict = {}
    for (i, j), v in H.rmatrix.items():
        _add_all(u, H.mul_raw(e, e, H.antipode[e][j], {i: v}))
        s2 = apply_rows(H.antipode[e], H.antipode[e][i])
        _add_all(uinv, H.mul_raw(e, e, {j: v}, s2))

    if H.mul_raw(e, e, u, uinv) != H.unit or H.mul_raw(e, e, uinv, u) != H.unit:
        raise DrinfeldError("drinfeld element is not inverted by sum b*S^2(a)")
    for i in range(H.dims[e]):
        if H.mul_raw(e, e, u, {i: one}) != H.mul_raw(e, e, {i: one}, u):
            raise DrinfeldError(
                f"drinfeld element is not central in H_1: fails at basis index {i}")
    if apply_rows(H.antipode[e], u) != u:
        raise DrinfeldError("antipode does not fix the drinfeld element")
    if H.counit_raw(e, u) != one:
        raise DrinfeldError("counit of the drinfeld element is not 1")
    return GradedVector(H.group.identity, u)
