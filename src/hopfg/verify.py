"""Axiom verification for Hopf G-algebras, exact and never sampled.

Every check has a full sweep over all supported grade and basis tuples,
in ascending order, returning the first witness's text (``_witness``)
when it fails and None when it passes.  Nine have a proof (``PROOFS``), a
smaller check that decides as the sweep would once the checks it rests
on passed; where it fails, or they did, the sweep runs and reports.
HG1, HG5, HG6, CHG2 and QHG3 take only ``generators`` as first factor:
the x for which the law holds against all later factors contain 1 and
are closed under products, so they are all of H.  QHG1 and QHG2 say that
f -> (f(x)id)(R) is an algebra map and f -> (id(x)f)(R) an anti-algebra
map from the dual algebra H_1* (Radford, Minimal quasitriangular Hopf
algebras, J. Algebra 1993), so they take f over ``dual_generators`` only,
once the leg (eps(x)id)(R) or (id(x)eps)(R) is 1.  Both generating sets
come from the kernel, which keeps each on the algebra once found.
Yang-Baxter needs no check: R12R13R23 = R12 (D(x)id)(R) = (Dcop(x)id)(R)
R12 = R23R13R12 (Kassel, Quantum Groups, VIII.2), where each slot
multiplies at most two factors other than 1.
And (m(S(x)id)(x)id)(R13R23) = (S(x)id)(R) R and (m(id(x)S)(x)id)(R13R23)
= R (S(x)id)(R) are both 1 (x) (eps(x)id)(R).
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
    dual_generators,
    dual_table,
    embed_two_raw,
    format_raw_tensor,
    format_raw_vector,
    generators,
    mul_rows,
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
    """Every check of ``CHECKS``, in ``RUN_ORDER``, by its proof where
    ``PROOFS`` has one and the checks it rests on passed, else by its full
    sweep.  The generating sets the proofs take are kept on H."""
    found = {}
    for key in RUN_ORDER:
        needs, span, proof = PROOFS.get(key, ((), None, None))
        if (proof is not None and all(found[k] is None for k in needs)
                and proof(H, span and span(H)) is None):
            found[key] = None
            continue
        found[key] = CHECKS[key][1](H)
    return AxiomReport(H.name, [(name, found[key] is None, found[key])
                                for key, (name, _) in CHECKS.items()])


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


def _check_r_intertwine(H, firsts=None):
    e = H.group.identity_index
    for a in H.support:
        for i in _indices(H, firsts, a):
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


def _check_r_counit_leg(H, slot):
    """(eps(x)id)(R) = 1 at slot 0, (id(x)eps)(R) = 1 at slot 1."""
    eps = [{(): v} if v else {} for v in H.counit[H.group.identity_index]]
    if apply_rows_at(H.rmatrix, slot, eps, H.one()) != {(p,): v for p, v in H.unit.items()}:
        return ("(eps(x)id)R is not 1", "(id(x)eps)R is not 1")[slot]


def _check_r_split_on_dual(H, dual_gens, slot):
    """(QHG1) at slot 0, through R_b: f -> (f(x)id)(R), and (QHG2) at slot
    1, through R#: f -> (id(x)f)(R).  Pairing legs 1 and 2 of (D(x)id)R =
    R13 R23 with f (x) g gives R_b(f*g) = R_b(f) R_b(g), and legs 2 and 3
    of (id(x)D)R = R13 R12 give R#(f*g) = R#(g) R#(f): QHG1 says that R_b
    is an algebra map from (H_1*, *) to H_1, and QHG2 that R# is an
    anti-algebra map (Radford, Minimal quasitriangular Hopf algebras, J.
    Algebra 1993).  Those f for which it holds against every g contain
    eps, once the leg above is 1, and are closed under *, so it is enough
    to take f over generators of H_1* and g over the dual basis."""
    if found := _check_r_counit_leg(H, slot):
        return found
    e, one = H.group.identity_index, H.one()
    legs = [{} for _ in range(H.dims[e])]  # legs[p]: the image of d_p
    for pq, v in H.rmatrix.items():
        legs[pq[slot]][pq[1 - slot]] = v
    table = dual_table(H)
    for f in dual_gens:
        image = apply_rows(legs, f, one)
        for q in range(H.dims[e]):
            lhs = apply_rows(legs, mul_rows(table, f, {q: one}, one), one)
            pair = (image, legs[q]) if slot == 0 else (legs[q], image)
            if lhs != H.mul_raw(e, e, *pair):
                return f"{('R_b', 'R#')[slot]} fails on a generator of H_1* and d_{q}"


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

# key -> (the checks a proof rests on, the generating set it takes or None,
# the proof): a check given H and that set, returning None only when the
# full sweep would pass
PROOFS = {
    "HG1": (("HG2",), generators, _check_associative),
    "HG5": (("HG1", "HG2", "HG7"), generators, _check_coproduct_mult),
    "HG6": (("HG1", "HG2", "HG8"), generators, _check_counit_mult),
    "CHG2": (("HG1", "HG2", "CHG3"), generators, _check_crossing_mult),
    "QHG1": (("HG1", "HG2", "HG3", "HG4"), dual_generators,
             lambda H, gens: _check_r_split_on_dual(H, gens, 0)),
    "QHG2": (("HG1", "HG2", "HG3", "HG4"), dual_generators,
             lambda H, gens: _check_r_split_on_dual(H, gens, 1)),
    "QHG3": (("HG1", "HG2", "HG5", "HG7"), generators, _check_r_intertwine),
    "RINV": (("HG2", "HG9", "QHG1"), None, lambda H, gens: _check_r_counit_leg(H, 0)),
    "YB": (("HG2", "QHG1", "QHG3"), None, lambda H, gens: None),
}

# checks without a proof first, in report order, then those with one: each
# proof's preconditions are decided before it runs
RUN_ORDER = sorted(CHECKS, key=PROOFS.__contains__)


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
