"""Acceptance gate: one test per numbered acceptance criterion.

Each criterion gets exactly one test function so the -v report shows one
pass/fail line per criterion.  All comparisons are exact; nothing is
checked approximately.  The grid is k in {1,2,3}, l in {1,...,6},
d in {0,...,l-1}, fixed here independently of any environment knobs.
"""

import random
from fractions import Fraction
from math import gcd

import oracles
from hopfg import (
    apply_move,
    builtin_diagram,
    builtin_diagram_names,
    colorings,
    connected_sum,
    drinfeld_element,
    evaluate,
    evaluate_summed,
    move_candidates,
    reorient,
    rotate_component,
    verify_axioms,
)
from hopfg.algebra import _tensor_mul_raw, add_into, apply_rows
from hopfg.cyclo import Cyclo

GRID = [(k, l, d) for k in (1, 2, 3) for l in range(1, 7) for d in range(l)]


def _clasp(l: int, d: int) -> Cyclo:
    g = gcd(l, d)
    return Cyclo.rational(Fraction(g * (3 + (-1) ** (l // g)), 2 * l))


def _gauss(l: int, d: int) -> Cyclo:
    total = Cyclo.zero(l)
    for i in range(l):
        total = total + Cyclo.zeta(l, (d * i * i) % l)
    return total * Cyclo.rational(1, l, conductor=l)


def test_criterion_01_axioms_hold_on_the_grid_and_kac_paljutkin(bank):
    failures = []
    for (k, l, d) in GRID:
        H, _ = bank(oracles.spec_of(k, l, d))
        report = verify_axioms(H)
        failures.extend((H.name, name) for name, w in report.failures())
    H, _ = bank("kac-paljutkin")
    failures.extend(("kac-paljutkin", name)
                    for name, w in verify_axioms(H).failures())
    assert failures == []


def test_criterion_02_integrals_match_their_closed_forms(bank):
    for (k, l, d) in GRID:
        H, ints = bank(oracles.spec_of(k, l, d))
        inv_l = Cyclo.rational(1, l)
        for p in range(k):
            assert ints.integral(p).entries == {i: inv_l for i in range(l)}, H.name
        want_lam = [Cyclo.rational(l)] + [Cyclo.zero(1)] * (l - 1)
        assert list(ints.lam_values) == want_lam, H.name
    H, ints = bank("kac-paljutkin")
    eighth = Cyclo.rational(1, 8)
    for a in H.group.elements():
        assert ints.integral(a).entries == {i: eighth for i in range(8)}
    assert list(ints.lam_values) == [Cyclo.rational(8)] + [Cyclo.zero(1)] * 7


def test_criterion_03_cp2_equals_the_gauss_sum(bank):
    for (k, l, d) in GRID:
        H, ints = bank(oracles.spec_of(k, l, d))
        plus = evaluate(H, ints, colorings(builtin_diagram("cp2"), H.group)[0])
        minus = evaluate(H, ints, colorings(builtin_diagram("cp2bar"), H.group)[0])
        expected = _gauss(l, d)
        assert plus == expected.lift(H.conductor), H.name
        assert minus.value == plus.value.conjugate(), H.name
        assert minus == expected.conjugate().lift(H.conductor), H.name
    H, ints = bank("cyclic:k=1,l=2,d=1")
    assert evaluate(H, ints, colorings(builtin_diagram("cp2"), H.group)[0]) \
        == Cyclo.zero(1)
    H, ints = bank("cyclic:k=1,l=3,d=1")
    pinned = (Cyclo.one(3) + Cyclo.zeta(3) + Cyclo.zeta(3)) \
        * Cyclo.rational(1, 3, conductor=3)
    assert evaluate(H, ints, colorings(builtin_diagram("cp2"), H.group)[0]) \
        == pinned


def test_criterion_04_s2xs2_equals_the_gcd_formula(bank):
    for (k, l, d) in GRID:
        H, ints = bank(oracles.spec_of(k, l, d))
        cd = colorings(builtin_diagram("s2xs2"), H.group)[0]
        assert evaluate(H, ints, cd) == _clasp(l, d).lift(H.conductor), H.name


def test_criterion_05_s1xs3_gives_l_per_color_and_kl_summed(bank):
    for (k, l, d) in GRID:
        H, ints = bank(oracles.spec_of(k, l, d))
        summed = evaluate_summed(H, ints, builtin_diagram("s1xs3"))
        assert summed.hom_count == k, H.name
        for iv in summed.values:
            assert iv.value == Cyclo.rational(l), H.name
        assert summed.total == Cyclo.rational(k * l), H.name


def test_criterion_06_s1xs1xs2_is_constant_over_connections(bank):
    for (k, l, d) in GRID:
        H, ints = bank(oracles.spec_of(k, l, d))
        summed = evaluate_summed(H, ints, builtin_diagram("s1xs1xs2"))
        per = (_clasp(l, d) * Cyclo.rational(l * l)).lift(H.conductor)
        assert summed.hom_count == k * k, H.name
        for iv in summed.values:
            assert iv.value == per, H.name
        assert summed.total == per * Cyclo.rational(k * k), H.name


def test_criterion_07_randomized_moves_preserve_the_invariant(bank):
    rng = random.Random(20260816)
    specs = ["cyclic:k=1,l=2,d=1", "cyclic:k=2,l=2,d=1", "cyclic:k=1,l=3,d=1",
             "cyclic:k=2,l=3,d=2", "cyclic:k=1,l=4,d=3", "cyclic:k=3,l=2,d=1",
             "kac-paljutkin"]
    names = list(builtin_diagram_names())
    base_cache = {}
    checked = 0
    attempts = 0
    while checked < 205 and attempts < 2000:
        attempts += 1
        spec = rng.choice(specs)
        H, ints = bank(spec)
        name = rng.choice(names)
        d = builtin_diagram(name)
        cds = colorings(d, H.group)
        ci = rng.randrange(len(cds))
        cd = cds[ci]
        inserts = rng.random() < 0.4
        cands = move_candidates(cd, inserts=inserts, group=H.group)
        if not cands:
            continue
        mv = rng.choice(cands)
        key = (spec, name, ci)
        if key not in base_cache:
            base_cache[key] = evaluate(H, ints, cd).value
        moved = apply_move(cd, mv, group=H.group)
        assert evaluate(H, ints, moved).value == base_cache[key], (spec, name, mv)
        checked += 1
    # global conjugation with the nonabelian crossing action, every coloring
    H, ints = bank("kac-paljutkin")
    conjugations = 0
    for name in names:
        d = builtin_diagram(name)
        for cd in colorings(d, H.group):
            base = evaluate(H, ints, cd).value
            for beta in range(H.group.order):
                mv = {"move": "global-conjugate", "element": beta}
                moved = apply_move(cd, mv, group=H.group)
                assert evaluate(H, ints, moved).value == base, (name, beta)
                conjugations += 1
    assert checked + conjugations >= 200
    assert checked >= 180 and conjugations > 0


def test_criterion_08_reorientations_and_rotations_change_nothing(bank):
    for (k, l, d) in GRID:
        H, ints = bank(oracles.spec_of(k, l, d))
        for name in builtin_diagram_names():
            dia = builtin_diagram(name)
            base = [evaluate(H, ints, cd).value
                    for cd in colorings(dia, H.group)]
            for u in dia.undotted:
                flipped = reorient(dia, u.id)
                got = [evaluate(H, ints, cd).value
                       for cd in colorings(flipped, H.group)]
                assert got == base, (H.name, name, "reorient", u.id)
                for r in range(1, len(u.events)):
                    rot = rotate_component(dia, u.id, r)
                    got = [evaluate(H, ints, cd).value
                           for cd in colorings(rot, H.group)]
                    assert got == base, (H.name, name, "rotate", u.id, r)


def test_criterion_09_connected_sums_multiply(bank):
    # the connections of A # B are the pairs (i, j) of A's and B's, both
    # in lexicographic order, so pair (i, j) is connection i * nb + j
    for spec in ("cyclic:k=2,l=3,d=1", "cyclic:k=3,l=2,d=1"):
        H, ints = bank(spec)
        names = builtin_diagram_names()
        summed = {name: evaluate_summed(H, ints, builtin_diagram(name)) for name in names}
        for na in names:
            for nb in names:
                sa, sb = summed[na], summed[nb]
                dsum = connected_sum(builtin_diagram(na), builtin_diagram(nb))
                ssum = evaluate_summed(H, ints, dsum)
                assert ssum.hom_count == sa.hom_count * sb.hom_count, (spec, na, nb)
                for i, (hom_a, va) in enumerate(zip(sa.homs, sa.values)):
                    for j, (hom_b, vb) in enumerate(zip(sb.homs, sb.values)):
                        k = i * sb.hom_count + j
                        assert ssum.homs[k].images == hom_a.images + hom_b.images
                        assert ssum.values[k].value == va.value * vb.value, (spec, na, nb)


def test_criterion_10_idempotent_oracle_agrees_with_the_engine(bank):
    for (k, l, d) in GRID:
        H, ints = bank(oracles.spec_of(k, l, d))
        assert H.rmatrix == oracles.oracle_r_tensor(H, d), H.name
        e = H.group.identity_index
        swapped = {(j, i): v for (i, j), v in H.rmatrix.items()}
        monodromy = _tensor_mul_raw(H, (e, e), swapped, (e, e), H.rmatrix)
        assert monodromy == oracles.oracle_r_tensor(H, (2 * d) % l), H.name
        for a in range(l):
            assert oracles.lam(ints, oracles.idempotent(H, a)) == Cyclo.one(1), H.name


def test_criterion_11_drinfeld_element_is_ribbon_ready(bank):
    specs = [oracles.spec_of(k, l, d) for (k, l, d) in GRID] + ["kac-paljutkin"]
    for spec in specs:
        H, _ = bank(spec)
        u = drinfeld_element(H)
        assert u.grade == H.group.identity
        u, e, one = u.entries, H.group.identity_index, H.one()
        # central in grade 1
        for i in range(H.dims[e]):
            assert H.mul_raw(e, e, u, {i: one}) == H.mul_raw(e, e, {i: one}, u), spec
        # fixed by the antipode
        S = H.antipode[e]
        assert apply_rows(S, u, one) == u, spec
        # invertible, with the closed-form inverse sum b * S^2(a)
        acc = {}
        for (i, j), v in H.rmatrix.items():
            s2a = apply_rows(S, apply_rows(S, {i: one}, one), one)
            for t, w in H.mul_raw(e, e, {j: one}, s2a).items():
                add_into(acc, t, w * v)
        assert H.mul_raw(e, e, u, acc) == H.unit, spec
        assert H.mul_raw(e, e, acc, u) == H.unit, spec
