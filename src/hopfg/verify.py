"""Axiom verification for Hopf G-algebras, exact and never sampled.

Every check has a full sweep over all supported grade and basis tuples,
in ascending order, returning the first witness's text (``_witness``)
when it fails and None when it passes.  Six have a proof (``PROOFS``), a
smaller check that decides as the sweep would once the checks it rests
on passed; where it fails, or they did, the sweep runs and reports.
HG1, HG5, HG6 and CHG2 take only ``generators`` as first factor: the x
for which the law holds against all later factors contain 1 and are
closed under products, so they are all of H.  Yang-Baxter needs no
check: R12R13R23 = R12 (D(x)id)(R) = (Dcop(x)id)(R) R12 = R23R13R12
(Kassel, Quantum Groups, VIII.2), where each slot multiplies at most two
factors other than 1.  And (m(S(x)id)(x)id)(R13R23) = (S(x)id)(R) R and
(m(id(x)S)(x)id)(R13R23) = R (S(x)id)(R) are both 1 (x) (eps(x)id)(R).
"""

from __future__ import annotations

from .algebra import (
    DrinfeldError,
    Graded,
    HopfGAlgebra,
    _tensor_mul_raw,
    add_into,
    apply_rows,
    apply_rows_at,
    echelon_add,
    embed_two_raw,
    format_raw_tensor,
    format_raw_vector,
    scaled_raw,
    slot_rows,
)
from .cyclo import Cyclo, render_scalar


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


def _witness(H, where, grades, *sides):
    """The failure text '<where>: <label> <value> but <label> <value> ...'.

    Each side is a (label, value) pair, the label ending in its relation
    ('(xy)z =', 'inverse crossing gives').  A value is a scalar, a sparse
    vector of grade index grades, or a sparse tensor whose factors have
    the grade indices in the tuple grades.  Values are shown at H's
    conductor, so every exponent counts powers of one root of unity.
    """
    def show(v):
        if isinstance(v, Cyclo):
            return render_scalar(v.lift(H.conductor))
        v = {k: x.lift(H.conductor) for k, x in v.items()}
        if isinstance(grades, tuple):
            return format_raw_tensor(H, grades, v)
        return format_raw_vector(H, grades, v)
    text = " but ".join(f"{label} {show(v)}" for label, v in sides)
    return f"{where}: {text}" if where else text


def _grade_names(H, idxs):
    return "(" + ",".join(H.group.names[a] for a in idxs) + ")"


def _multiply_out(H, a, b, two_tensor):
    """m(x (x) y) summed over a 2-tensor whose factors lie in grades a and b."""
    rows, one, out = H.product[a, b], H.one(), {}
    for (p, q), v in two_tensor.items():
        for t, c in rows[p][q].items():
            add_into(out, t, v if c is one else c if v is one else v * c)
    return out


def _both_slots(H, two_tensor, rows):
    """(f (x) f) of a 2-tensor, f given by int-keyed sparse rows."""
    rows, one = slot_rows(rows), H.one()
    return apply_rows_at(apply_rows_at(two_tensor, 0, rows, one), 1, rows, one)


def _unit_unit(H):
    return {(p, q): vp * vq for p, vp in H.unit.items() for q, vq in H.unit.items()}


def verify_axioms(H: HopfGAlgebra) -> AxiomReport:
    """Every check of ``CHECKS``, by its proof where ``PROOFS`` has one and
    the checks it rests on passed, else by its full sweep."""
    found, gens = {}, None
    # checks with a proof run last; of them only HG1 is rested on, and first
    for key in sorted(CHECKS, key=PROOFS.__contains__):
        needs, proof = PROOFS.get(key, ((), None))
        proved = (proof is not None and all(found[k] is None for k in needs)
                  and proof(H, gens := gens or generators(H)) is None)
        found[key] = None if proved else CHECKS[key][1](H)
    return AxiomReport(H.name, [(name, found[key] is None, found[key])
                                for key, (name, _) in CHECKS.items()])


def generators(H: HopfGAlgebra) -> dict:
    """Basis indices gens[a] per supported grade a that generate H with 1:
    in grade, then index order, each basis element outside the span of 1,
    the generators and their right products by generators becomes one.
    The span is kept by ``echelon_add``, inverting no scalar."""
    G, one = H.group, H.one()
    rows = {a: [] for a in H.support}  # grade -> echelon rows (pivot, row)
    gens, todo = {a: [] for a in H.support}, []  # todo: (b, v, c, j) for v e_j, v in H_b

    def grow(a, v):
        if v := echelon_add(rows[a], v, one):
            todo.extend((a, v, b, j) for b in gens for j in gens[b])
        return bool(v)

    grow(G.identity_index, dict(H.unit))
    for a in H.support:
        for i in range(H.dims[a]):
            if grow(a, {i: one}):
                gens[a].append(i)
                todo.extend((b, v, a, i) for b in rows for _, v in rows[b])
                while todo:
                    b, v, c, j = todo.pop()
                    grow(G.table[b][c], H.mul_raw(b, c, v, {j: one}))
    return gens


# -- plain Hopf axioms -------------------------------------------------------


def _indices(H, firsts, a):
    """The first factors of a sweep in grade a: all, or the generators."""
    return range(H.dims[a]) if firsts is None else firsts[a]


def _check_associative(H, firsts=None):
    G = H.group
    one = H.one()
    for a in H.support:
        for b in H.support:
            ab = G.table[a][b]
            for c in H.support:
                bc = G.table[b][c]
                # (xy)z and x(yz): by_k[k][t] = e_t e_k, a_bc[i][t] = e_i e_t
                by_k, a_bc = list(zip(*H.product[ab, c])), H.product[a, bc]
                for i in _indices(H, firsts, a):
                    for j in range(H.dims[b]):
                        xy = H.product[a, b][i][j]
                        for k in range(H.dims[c]):
                            lhs = apply_rows(by_k[k], xy, one)
                            rhs = apply_rows(a_bc[i], H.product[b, c][j][k], one)
                            if lhs != rhs:
                                return _witness(
                                    H, f"grades {_grade_names(H, (a, b, c))} basis ({i},{j},{k})",
                                    G.table[ab][c], ("(xy)z =", lhs), ("x(yz) =", rhs))


def _check_unit(H):
    e = H.group.identity_index
    one = H.one()
    for a in H.support:
        for i in range(H.dims[a]):
            for label, got in (("1*x =", H.mul_raw(e, a, H.unit, {i: one})),
                               ("x*1 =", H.mul_raw(a, e, {i: one}, H.unit))):
                if got != {i: one}:
                    return _witness(H, f"grade {H.group.names[a]} basis {i}", a, (label, got))


def _check_coassociative(H):
    for a in H.support:
        delta = H.coproduct[a]
        for i in range(H.dims[a]):
            lhs = apply_rows_at(delta[i], 0, delta, H.one())
            rhs = apply_rows_at(delta[i], 1, delta, H.one())
            if lhs != rhs:
                return _witness(H, f"grade {H.group.names[a]} basis {i}", (a, a, a),
                                ("(D(x)id)D =", lhs), ("(id(x)D)D =", rhs))


def _check_counit(H):
    one = H.one()
    for a in H.support:
        delta = H.coproduct[a]
        eps = [{(): v} if v else {} for v in H.counit[a]]
        for i in range(H.dims[a]):
            for label, pos in (("(id(x)eps)D =", 1), ("(eps(x)id)D =", 0)):
                got = apply_rows_at(delta[i], pos, eps, one)
                if got != {(i,): one}:
                    return _witness(H, f"grade {H.group.names[a]} basis {i}", (a,), (label, got))


def _check_coproduct_mult(H, firsts=None):
    for a in H.support:
        for b in H.support:
            ab = H.group.table[a][b]
            delta_ab = H.coproduct[ab]
            for i in _indices(H, firsts, a):
                for j in range(H.dims[b]):
                    lhs = apply_rows(delta_ab, H.product[a, b][i][j], H.one())
                    rhs = _tensor_mul_raw(H, (a, a), H.coproduct[a][i],
                                          (b, b), H.coproduct[b][j])
                    if lhs != rhs:
                        return _witness(H, f"grades {_grade_names(H, (a, b))} basis ({i},{j})",
                                        (ab, ab), ("D(xy) =", lhs), ("D(x)D(y) =", rhs))


def _check_counit_mult(H, firsts=None):
    for a in H.support:
        for b in H.support:
            ab = H.group.table[a][b]
            for i in _indices(H, firsts, a):
                for j in range(H.dims[b]):
                    lhs = H.counit_raw(ab, H.product[a, b][i][j])
                    rhs = H.counit[a][i] * H.counit[b][j]
                    if lhs != rhs:
                        return _witness(H, f"grades {_grade_names(H, (a, b))} basis ({i},{j})",
                                        None, ("eps(xy) =", lhs), ("eps(x)eps(y) =", rhs))


def _check_coproduct_unit(H):
    e = H.group.identity_index
    lhs = apply_rows(H.coproduct[e], H.unit, H.one())
    rhs = _unit_unit(H)
    if lhs != rhs:
        return _witness(H, "", (e, e), ("D(1) =", lhs), ("1(x)1 =", rhs))


def _check_counit_unit(H):
    val = H.counit_raw(H.group.identity_index, H.unit)
    if val != H.one():
        return _witness(H, "", None, ("eps(1) =", val))


def _check_antipode(H):
    e, one = H.group.identity_index, H.one()
    for a in H.support:
        ainv, s = H.group.inverses[a], slot_rows(H.antipode[a])
        for i in range(H.dims[a]):
            want = scaled_raw(H.unit, H.counit[a][i], one)
            dx = H.coproduct[a][i]
            left = _multiply_out(H, ainv, a, apply_rows_at(dx, 0, s, one))
            right = _multiply_out(H, a, ainv, apply_rows_at(dx, 1, s, one))
            for label, got in (("m(S(x)id)D(x) =", left), ("m(id(x)S)D(x) =", right)):
                if got != want:
                    return _witness(H, f"grade {H.group.names[a]} basis {i}", e,
                                    (label, got), ("eps(x)1 =", want))


def _check_involutory(H):
    one = H.one()
    for a in H.support:
        ainv = H.group.inverses[a]
        for i in range(H.dims[a]):
            twice = apply_rows(H.antipode[ainv], H.antipode[a][i], one)
            if twice != {i: one}:
                return _witness(H, f"grade {H.group.names[a]} basis {i}", a,
                                ("S(S(x)) =", twice))


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
                where = f"(beta,alpha)=({G.names[b]},{G.names[a]}) basis {i}"
                back = apply_rows(H.crossing[(binv, target)], phi[i], one)
                if back != {i: one}:
                    return _witness(H, where, a, ("inverse crossing gives", back))
                lhs = apply_rows(H.coproduct[target], phi[i], one)
                rhs = _both_slots(H, H.coproduct[a][i], phi)
                if lhs != rhs:
                    return _witness(H, where, (target, target),
                                    ("D(phi(x)) =", lhs), ("(phi(x)phi)D(x) =", rhs))
                lhs_eps = H.counit_raw(target, phi[i])
                if lhs_eps != H.counit[a][i]:
                    return _witness(H, where, None, ("eps(phi(x)) =", lhs_eps),
                                    ("eps(x) =", H.counit[a][i]))


def _check_crossing_mult(H, firsts=None):
    G = H.group
    for b in range(G.order):
        for a in H.support:
            ca = G.conj(b, a)
            for c in H.support:
                cc = G.conj(b, c)
                ac = G.table[a][c]
                for i in _indices(H, firsts, a):
                    pi = H.crossing[(b, a)][i]
                    for j in range(H.dims[c]):
                        lhs = H.mul_raw(ca, cc, pi, H.crossing[(b, c)][j])
                        rhs = apply_rows(H.crossing[(b, ac)], H.product[a, c][i][j], H.one())
                        if lhs != rhs:
                            return _witness(
                                H, f"(beta,alpha,gamma)=({G.names[b]},{G.names[a]},"
                                f"{G.names[c]}) basis ({i},{j})", G.conj(b, ac),
                                ("phi(x)phi(y) =", lhs), ("phi(xy) =", rhs))


def _check_crossing_unit(H):
    G = H.group
    e = G.identity_index
    for b in range(G.order):
        img = apply_rows(H.crossing[(b, e)], H.unit, H.one())
        if img != H.unit:
            return _witness(H, f"beta={G.names[b]}", e, ("phi(1) =", img))


def _check_crossing_comp(H):
    G = H.group
    for b1 in range(G.order):
        for b2 in range(G.order):
            b12 = G.table[b1][b2]
            for a in H.support:
                mid = G.conj(b2, a)
                for i in range(H.dims[a]):
                    step = apply_rows(H.crossing[(b1, mid)], H.crossing[(b2, a)][i], H.one())
                    direct = H.crossing[(b12, a)][i]
                    if step != direct:
                        return _witness(
                            H, f"(beta,beta')=({G.names[b1]},{G.names[b2]}) grade "
                            f"{G.names[a]} basis {i}", G.conj(b12, a),
                            ("composite =", step), ("direct =", direct))


# -- quasitriangular axioms --------------------------------------------------


def _r3(H, p1, p2):
    """R placed at slots p1 < p2 of a 3-tensor, the unit at the third."""
    return embed_two_raw(H, H.rmatrix, p1, p2, 3)


def _check_r_split(H, slot):
    """(QHG1) at slot 0, (D(x)id)R = R13 R23, and (QHG2) at slot 1,
    (id(x)D)R = R13 R12."""
    g3 = (H.group.identity_index,) * 3
    lhs = apply_rows_at(H.rmatrix, slot, H.coproduct[g3[0]], H.one())
    p, q = 1 - slot, 2 - slot
    rhs = _tensor_mul_raw(H, g3, _r3(H, 0, 2), g3, _r3(H, p, q))
    if lhs != rhs:
        return _witness(H, "", g3, (("(D(x)id)R =", "(id(x)D)R =")[slot], lhs),
                        (f"R13*R{p + 1}{q + 1} =", rhs))


def _check_r_intertwine(H):
    e = H.group.identity_index
    for a in H.support:
        for i in range(H.dims[a]):
            dx = H.coproduct[a][i]
            dcop = {(q, p): v for (p, q), v in dx.items()}
            lhs = _tensor_mul_raw(H, (e, e), H.rmatrix, (a, a), dx)
            rhs = _tensor_mul_raw(H, (a, a), dcop, (e, e), H.rmatrix)
            if lhs != rhs:
                return _witness(H, f"grade {H.group.names[a]} basis {i}", (a, a),
                                ("R*D(x) =", lhs), ("Dcop(x)*R =", rhs))


def _check_r_crossing(H):
    G = H.group
    e = G.identity_index
    for b in range(G.order):
        out = _both_slots(H, H.rmatrix, H.crossing[(b, e)])
        if out != H.rmatrix:
            return _witness(H, f"beta={G.names[b]}", (e, e), ("(phi(x)phi)R =", out))


def _check_r_invertible(H):
    e = H.group.identity_index
    rinv = H.r_inverse_raw()
    want = _unit_unit(H)
    for label, x, y in (("(S(x)id)R * R =", rinv, H.rmatrix),
                        ("R * (S(x)id)R =", H.rmatrix, rinv)):
        got = _tensor_mul_raw(H, (e, e), x, (e, e), y)
        if got != want:
            return _witness(H, "", (e, e), (label, got))


def _check_yang_baxter(H):
    g3 = (H.group.identity_index,) * 3
    r12, r13, r23 = _r3(H, 0, 1), _r3(H, 0, 2), _r3(H, 1, 2)
    lhs = _tensor_mul_raw(H, g3, r12, g3, r13)
    lhs = _tensor_mul_raw(H, g3, lhs, g3, r23)
    rhs = _tensor_mul_raw(H, g3, r23, g3, r13)
    rhs = _tensor_mul_raw(H, g3, rhs, g3, r12)
    if lhs != rhs:
        return _witness(H, "", g3, ("R12*R13*R23 =", lhs), ("R23*R13*R12 =", rhs))


def _check_r_counit_leg(H, gens):
    """(eps(x)id)(R) = 1, the proof that R is invertible."""
    eps = [{(): v} if v else {} for v in H.counit[H.group.identity_index]]
    if apply_rows_at(H.rmatrix, 0, eps, H.one()) != {(p,): v for p, v in H.unit.items()}:
        return "(eps(x)id)R is not 1"


# key -> (report name, full sweep), in report order
CHECKS = {
    "HG1": ("(HG1) product associative", _check_associative),
    "HG2": ("(HG2) unit laws", _check_unit),
    "HG3": ("(HG3) coproduct coassociative", _check_coassociative),
    "HG4": ("(HG4) counit laws", _check_counit),
    "HG5": ("(HG5) coproduct multiplicative", _check_coproduct_mult),
    "HG6": ("(HG6) counit multiplicative", _check_counit_mult),
    "HG7": ("(HG7) coproduct of unit", _check_coproduct_unit),
    "HG8": ("(HG8) counit of unit", _check_counit_unit),
    "HG9": ("(HG9) antipode laws", _check_antipode),
    "S2": ("antipode involutory", _check_involutory),
    "CHG1": ("(CHG1) crossing is a coalgebra isomorphism", _check_crossing_coalgebra),
    "CHG2": ("(CHG2) crossing multiplicative", _check_crossing_mult),
    "CHG3": ("(CHG3) crossing fixes unit", _check_crossing_unit),
    "CHG4": ("(CHG4) crossing composition", _check_crossing_comp),
    "QHG1": ("(QHG1) R splits left coproduct", lambda H: _check_r_split(H, 0)),
    "QHG2": ("(QHG2) R splits right coproduct", lambda H: _check_r_split(H, 1)),
    "QHG3": ("(QHG3) R intertwines coproduct and opposite", _check_r_intertwine),
    "QHG4": ("(QHG4) R fixed by crossing", _check_r_crossing),
    "RINV": ("R invertible", _check_r_invertible),
    "YB": ("quantum Yang-Baxter", _check_yang_baxter),
}

# key -> (the checks a proof rests on, the proof): a check given H and its
# generators, returning None only when the full sweep would pass
PROOFS = {
    "HG1": (("HG2",), _check_associative),
    "HG5": (("HG1", "HG2", "HG7"), _check_coproduct_mult),
    "HG6": (("HG1", "HG2", "HG8"), _check_counit_mult),
    "CHG2": (("HG1", "HG2", "CHG3"), _check_crossing_mult),
    "RINV": (("HG2", "HG9", "QHG1"), _check_r_counit_leg),
    "YB": (("HG2", "QHG1", "QHG3"), lambda H, gens: None),
}


# -- Drinfeld element --------------------------------------------------------


def drinfeld_element(H: HopfGAlgebra) -> Graded:
    """The grade-1 element u = sum S(b)a over R = sum a (x) b.

    Certifies that u is invertible (against the closed-form candidate
    sum b * S(S(a))), central in H_1, fixed by the antipode, and has
    counit 1.  Raises DrinfeldError naming the identity that failed.
    """
    e, one = H.group.identity_index, H.one()
    s, flipped = slot_rows(H.antipode[e]), {(j, i): v for (i, j), v in H.rmatrix.items()}
    u = _multiply_out(H, e, e, apply_rows_at(flipped, 0, s, one))
    uinv = _multiply_out(H, e, e, apply_rows_at(apply_rows_at(flipped, 1, s, one), 1, s, one))

    if H.mul_raw(e, e, u, uinv) != H.unit or H.mul_raw(e, e, uinv, u) != H.unit:
        raise DrinfeldError("drinfeld element is not inverted by sum b*S^2(a)")
    for i in range(H.dims[e]):
        if H.mul_raw(e, e, u, {i: one}) != H.mul_raw(e, e, {i: one}, u):
            raise DrinfeldError(
                f"drinfeld element is not central in H_1: fails at basis index {i}")
    if apply_rows(H.antipode[e], u, one) != u:
        raise DrinfeldError("antipode does not fix the drinfeld element")
    if H.counit_raw(e, u) != one:
        raise DrinfeldError("counit of the drinfeld element is not 1")
    return Graded(H.group.identity, u)
