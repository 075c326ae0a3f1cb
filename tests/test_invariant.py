"""Evaluator results on the builtin diagrams, checked against independent
closed forms, plus summed invariants and multiplicativity."""

import gc
import itertools
import re
import sys
from fractions import Fraction
from math import gcd

import pytest

import oracles
from hopfg import (
    ColoredDiagram,
    ColoringError,
    EvaluationError,
    builtin_diagram,
    builtin_diagram_names,
    color,
    colorings,
    connected_sum,
    cyclic_group,
    evaluate,
    evaluate_summed,
    reorient,
    solve_integrals,
)
from hopfg.algebra import HopfGAlgebra
from hopfg.cyclo import Cyclo
from hopfg.diagrams import (
    DiagramError,
    DotPassage,
    KirbyDiagram,
    UndottedComponent,
)
from hopfg.evaluate import _dot_site, _lam_view


def _gauss_sum(l: int, d: int) -> Cyclo:
    total = Cyclo.zero(l)
    for j in range(l):
        total = total + Cyclo.zeta(l, (d * j * j) % l)
    return total * Cyclo.rational(1, l, conductor=l)


def _clasp_value(l: int, d: int) -> Cyclo:
    g = gcd(l, d) if d else l
    return Cyclo.rational(g * (3 + (-1) ** (l // g)), 2 * l)


def test_cp2_matches_gauss_sums(bank):
    for (k, l, d) in [(1, 2, 1), (1, 3, 1), (2, 3, 2), (1, 4, 1), (1, 5, 2), (2, 6, 3)]:
        H, ints = bank(oracles.spec_of(k, l, d))
        cd = colorings(builtin_diagram("cp2"), H.group)[0]
        assert evaluate(H, ints, cd) == _gauss_sum(l, d).lift(H.conductor)


def test_cp2_pinned_values(bank):
    H, ints = bank("cyclic:k=1,l=2,d=1")
    cd = colorings(builtin_diagram("cp2"), H.group)[0]
    assert evaluate(H, ints, cd) == Cyclo.zero(1)
    H, ints = bank("cyclic:k=1,l=3,d=1")
    cd = colorings(builtin_diagram("cp2"), H.group)[0]
    third = Cyclo.rational(1, 3, conductor=3)
    expected = (Cyclo.one(3) + Cyclo.zeta(3) + Cyclo.zeta(3)) * third
    assert evaluate(H, ints, cd) == expected


def test_cp2bar_is_the_conjugate(bank):
    for (k, l, d) in [(1, 3, 1), (1, 4, 3), (2, 5, 2)]:
        H, ints = bank(oracles.spec_of(k, l, d))
        plus = colorings(builtin_diagram("cp2"), H.group)[0]
        minus = colorings(builtin_diagram("cp2bar"), H.group)[0]
        vp = evaluate(H, ints, plus).value
        vm = evaluate(H, ints, minus).value
        assert vm == vp.conjugate()


def test_s2xs2_closed_form(bank):
    for (k, l, d) in [(1, 1, 0), (1, 2, 1), (1, 3, 1), (1, 4, 2), (2, 6, 4), (1, 5, 0)]:
        H, ints = bank(oracles.spec_of(k, l, d))
        cd = colorings(builtin_diagram("s2xs2"), H.group)[0]
        assert evaluate(H, ints, cd) == _clasp_value(l, d).lift(H.conductor)


def test_s1xs3_every_connection_gives_the_dimension(bank):
    for (k, l, d) in [(1, 2, 1), (2, 3, 1), (3, 4, 3)]:
        H, ints = bank(oracles.spec_of(k, l, d))
        summed = evaluate_summed(H, ints, builtin_diagram("s1xs3"))
        assert summed.hom_count == k
        for iv in summed.values:
            assert iv.value == Cyclo.rational(l)
        assert summed.total == Cyclo.rational(k * l)


def test_s1xs1xs2_constant_over_connections(bank):
    for (k, l, d) in [(2, 4, 2), (3, 6, 4), (2, 5, 0), (2, 3, 1)]:
        H, ints = bank(oracles.spec_of(k, l, d))
        summed = evaluate_summed(H, ints, builtin_diagram("s1xs1xs2"))
        assert summed.hom_count == k * k
        expected = (_clasp_value(l, d) * Cyclo.rational(l * l)).lift(H.conductor)
        for iv in summed.values:
            assert iv.value == expected
        assert summed.total == expected * Cyclo.rational(k * k)


def test_s4_is_one(bank, kp):
    specs = ["cyclic:k=1,l=1,d=0", "cyclic:k=2,l=3,d=1", "cyclic:k=1,l=4,d=3"]
    for spec in specs:
        H, ints = bank(spec)
        cd = colorings(builtin_diagram("s4"), H.group)[0]
        assert evaluate(H, ints, cd) == Cyclo.one(1)
    H, ints = kp
    cd = colorings(builtin_diagram("s4"), H.group)[0]
    assert evaluate(H, ints, cd) == Cyclo.one(1)


def test_kac_paljutkin_pinned_values(kp):
    H, ints = kp
    half = Cyclo.rational(1, 2)

    def val(name):
        cd = colorings(builtin_diagram(name), H.group)[0]
        return evaluate(H, ints, cd).value

    assert val("cp2") == half
    assert val("cp2bar") == half
    assert val("s2xs2") == Cyclo.rational(1, 4)
    assert val("s4") == Cyclo.one(1)
    s13 = evaluate_summed(H, ints, builtin_diagram("s1xs3"))
    assert s13.hom_count == 2
    assert [iv.value for iv in s13.values] == [Cyclo.rational(8), Cyclo.rational(8)]
    assert s13.total == Cyclo.rational(16)
    s112 = evaluate_summed(H, ints, builtin_diagram("s1xs1xs2"))
    assert s112.hom_count == 4
    assert s112.total == Cyclo.rational(64)
    assert all(iv.value == Cyclo.rational(16) for iv in s112.values)


def test_summed_total_matches_componentwise_sum(bank):
    H, ints = bank("cyclic:k=3,l=2,d=1")
    d = builtin_diagram("s1xs1xs2")
    summed = evaluate_summed(H, ints, d)
    assert summed.hom_count == len(colorings(d, H.group)) == 9
    total = Cyclo.zero(1)
    for cd in colorings(d, H.group):
        total = total + evaluate(H, ints, cd).value
    assert summed.total == total


def test_reorientation_invariance_sample(bank):
    from hopfg import reorient, rotate_component

    for spec in ["cyclic:k=2,l=3,d=1", "kac-paljutkin"]:
        H, ints = bank(spec)
        for name in ("cp2", "s2xs2", "s1xs1xs2"):
            d = builtin_diagram(name)
            base = [evaluate(H, ints, cd).value for cd in colorings(d, H.group)]
            for u in d.undotted:
                rd = reorient(d, u.id)
                assert [evaluate(H, ints, cd).value
                        for cd in colorings(rd, H.group)] == base
                n = len(u.events)
                for r in range(1, n):
                    rr = rotate_component(d, u.id, r)
                    assert [evaluate(H, ints, cd).value
                            for cd in colorings(rr, H.group)] == base


def test_connected_sum_multiplicative_sample(bank):
    # connection i * nb + j of A # B is connection i of A with j of B
    H, ints = bank("cyclic:k=2,l=3,d=1")
    pairs = [("cp2", "cp2"), ("s1xs3", "s1xs3"), ("s2xs2", "s1xs1xs2"),
             ("s1xs1xs2", "s4"), ("cp2bar", "s1xs3")]
    for na, nb in pairs:
        da, db = builtin_diagram(na), builtin_diagram(nb)
        sa, sb = evaluate_summed(H, ints, da), evaluate_summed(H, ints, db)
        ssum = evaluate_summed(H, ints, connected_sum(da, db))
        assert ssum.hom_count == sa.hom_count * sb.hom_count
        for i, (hom_a, va) in enumerate(zip(sa.homs, sa.values)):
            for j, (hom_b, vb) in enumerate(zip(sb.homs, sb.values)):
                k = i * sb.hom_count + j
                assert ssum.homs[k].images == hom_a.images + hom_b.images
                assert ssum.values[k].value == va.value * vb.value, (na, nb, i, j)


def test_connected_sum_of_s1xs3_pair_value(bank):
    # l^2 on every connection
    for (k, l, d) in [(2, 3, 1), (1, 4, 2)]:
        H, ints = bank(oracles.spec_of(k, l, d))
        summed = evaluate_summed(
            H, ints, builtin_diagram("connected-sum:s1xs3,s1xs3"))
        assert summed.hom_count == k * k
        for iv in summed.values:
            assert iv.value == Cyclo.rational(l * l)


def test_foreign_integral_data_rejected(bank):
    H1, ints1 = bank("cyclic:k=1,l=3,d=1")
    H2, _ = bank("cyclic:k=1,l=3,d=2")
    cd = colorings(builtin_diagram("cp2"), H1.group)[0]
    with pytest.raises(EvaluationError, match="different algebra"):
        evaluate(H2, ints1, cd)
    with pytest.raises(EvaluationError, match="different algebra"):
        evaluate_summed(H2, ints1, builtin_diagram("cp2"))


def test_summed_over_an_invalid_diagram_raises_diagram_error(bank):
    # the diagram is validated before its fundamental group is read, so a
    # passage through a dot that does not exist is not a KeyError
    H, ints = bank("cyclic:k=3,l=2,d=1")
    d = KirbyDiagram((), (UndottedComponent(0, (DotPassage(3, True),)),), ())
    with pytest.raises(DiagramError, match="unknown dot 3"):
        evaluate_summed(H, ints, d)


def test_cached_dot_sites_follow_the_signs_and_the_integral_data(bank):
    # The dots have one color per coloring and two passages, signed down-up,
    # up-down (the reoriented copy), down-down and up-up.  The diagrams
    # alternate on one IntegralData and on a second algebra's, twice so the
    # second pass reads every site from the cache, against the oracle, which
    # shares no cache with the engine.
    algebras = [bank("kac-paljutkin"), bank("cyclic:k=2,l=4,d=1")]
    G = algebras[0][0].group
    diagrams = [dd for d in (oracles.kink_through_disk(), oracles.pair_crossing_through_disk(True)[0])
                for dd in (d, reorient(d, 0))]
    for _ in range(2):
        for d in diagrams:
            for H, ints in algebras:
                expected = [oracles.expansion_invariant(H, ints, cd) for cd in colorings(d, G)]
                assert [evaluate(H, ints, cd).value for cd in colorings(d, G)] == expected
                assert [iv.value for iv in evaluate_summed(H, ints, d).values] == expected


@pytest.mark.parametrize("spec", ("kac-paljutkin", "cyclic:k=2,l=4,d=1", "cyclic:k=3,l=5,d=3"))
def test_sites_and_lam_are_their_content_times_primitive_entries(bank, spec):
    # every cached dot site of up to 3 passages, as its content times its
    # entries, against Delta^(k-1)(L_a) and S on the up factors computed
    # from scratch by the oracle; the entries have int coefficients with
    # gcd 1, and an entry equal to 1 is the shared one (the unit rule)
    H, ints = bank(spec)
    one = Cyclo.one(H.conductor).num

    def primitive(entries):  # entries are numerators (Cyclo.num)
        return (all(type(c) is int for _, v in entries for c in v)
                and gcd(*(c for _, v in entries for c in v)) == 1
                and all(v is one for _, v in entries if v == one))

    def value(v, p, q):
        return Cyclo(H.conductor, dict(enumerate(v))) * Fraction(p, q)

    for a in H.support:
        for k in (1, 2, 3):
            for downs in itertools.product((True, False), repeat=k):
                (p, q), entries, grades = _dot_site(ints, a, downs)
                want = oracles._ref_coproduct_power(H, a, ints.integrals[a], k)
                for f, down in enumerate(downs):
                    if not down:
                        want = oracles._ref_antipode_at(H, a, want, f)
                assert [(t, value(v, p, q)) for t, v in entries] == sorted(want.items())
                assert primitive(entries), (a, downs)
                assert grades == tuple(a if s else H.group.inverses[a] for s in downs)
    (p, q), lam = _lam_view(ints)
    assert {i: value(v, p, q) for i, v in lam.items()} == {
        i: v for i, v in enumerate(ints.lam_values) if v}
    assert primitive(list(lam.items()))


def test_every_fold_input_is_kept_once_in_one_memo_of_its_owner(monkeypatch):
    # The builders of the compiled diagrams and of the fold's inputs are
    # recorded by owner and key while evaluate_summed runs over the builtins
    # on one fresh kac-paljutkin.  After one pass every key asked for, and
    # no other, is in the _kept memo of its owner (the product view and the
    # used crossing sites in H's, the compiled diagrams, dot sites and lam
    # in the IntegralData's).  H keeps exactly the crossing sites the
    # compiled diagrams use, so s2xs2's clasp, tried and not merged, is not
    # kept.  A second pass builds nothing, keeps no new key and reads the
    # same objects.  A second solve has its own compiled diagrams, dot
    # sites and lam, and reads H's.
    from hopfg import builtin_algebra
    from hopfg.integrals import IntegralData

    module = sys.modules["hopfg.evaluate"]
    H = builtin_algebra("kac-paljutkin")
    ints = solve_integrals(H)
    on_h, on_ints = {"_product_view", "_used_sites"}, {"_compiled", "_dot_site", "_lam_view"}
    asked, built = set(), set()

    def recorded(name, build):
        def call(owner, *key):
            asked.add((name, key))
            assert owner is (H if name in on_h else ints), name
            return build(owner, *key)
        return call

    for name in on_h | on_ints:
        monkeypatch.setattr(module, name, recorded(name, getattr(module, name)))
    crossing_site = module._crossing_site

    def recorded_site(H, *key):  # the crossing sites built, kept or not
        built.add(key)
        return crossing_site(H, *key)

    monkeypatch.setattr(module, "_crossing_site", recorded_site)

    def kept(owner):  # (build name, key) -> kept value, the evaluator's entries only
        return {(k[0].__name__, k[1:]): v for k, v in owner._kept.items()
                if k[0].__name__ in on_h | on_ints}

    def run(integrals):
        for name in builtin_diagram_names():
            evaluate_summed(H, integrals, builtin_diagram(name))

    def same(owner, was):  # owner keeps exactly was, the very objects
        return owner._kept.keys() == was.keys() and all(
            owner._kept[k] is v for k, v in was.items())

    run(ints)
    on_algebra, on_data = kept(H), kept(ints)
    assert {name for name, _ in on_algebra} == on_h and {name for name, _ in on_data} == on_ints
    assert on_algebra.keys() | on_data.keys() == asked
    assert len(on_data) == len(ints._kept)  # the IntegralData keeps nothing else
    by_diagram = on_data["_compiled", ()]  # the one entry of the compiled diagrams
    assert list(by_diagram) == list(map(builtin_diagram, builtin_diagram_names()))
    compiled = list(by_diagram.values())
    sites = on_algebra["_used_sites", ()]
    assert ({id(entries) for _, entries in sites.values()}
            == {id(entries) for c in compiled for entries in c.crossing_entries})
    assert sites.keys() < built  # a merge tried and not taken is not kept
    was_h, was_ints = dict(H._kept), dict(ints._kept)
    was_compiled, was_sites = dict(by_diagram), dict(sites)
    built.clear()
    run(ints)
    assert not built and same(H, was_h) and same(ints, was_ints)
    for memo, was in ((by_diagram, was_compiled), (sites, was_sites)):
        assert memo.keys() == was.keys() and all(memo[k] is v for k, v in was.items())

    # checked from here on by what is kept, not by the recorder
    monkeypatch.undo()
    again = solve_integrals(H)
    run(again)
    assert same(H, was_h)
    own = kept(again)
    assert own.keys() == on_data.keys()
    assert all(own[k] is not v and (k[0] == "_compiled" or own[k] == v)
               for k, v in on_data.items())
    assert own["_compiled", ()].keys() == by_diagram.keys()

    # the one cache attribute of each class; a compiled diagram has slots
    # only, and none refers back to its integrals or to a memo
    assert [n for n in vars(H) if n.startswith("_")] == ["_kept"]
    assert [n for n in IntegralData.__slots__ if n.startswith("_")] == ["_kept"]
    assert not any(hasattr(H, n) for n in ("primitive_products", "crossing_site"))
    assert not any(hasattr(ints, n) for n in ("dot_site", "primitive_lam"))
    for c in compiled:
        assert not hasattr(c, "__dict__")
        assert not any(x is ints or x is H or x is ints._kept or x is H._kept
                       for x in gc.get_referents(c))


def test_the_compiled_diagrams_kept_are_bounded():
    # evaluating more distinct diagrams than MAX_COMPILED against one
    # IntegralData keeps the last MAX_COMPILED compiled; a dropped diagram
    # compiles again, and each value is the same as from a fresh solve
    from hopfg import builtin_algebra
    from hopfg.evaluate import MAX_COMPILED, _compiled

    H = builtin_algebra("kac-paljutkin")
    ints = solve_integrals(H)
    ds = [KirbyDiagram(dotted=(), undotted=(UndottedComponent(0, ()),), crossings=(), h3=k)
          for k in range(MAX_COMPILED + 8)]  # all distinct
    sums = [evaluate_summed(H, ints, d) for d in ds]
    kept = _compiled(ints)
    assert list(kept) == ds[-MAX_COMPILED:]
    assert evaluate_summed(H, ints, ds[0]) == sums[0]
    assert list(kept) == ds[1 - MAX_COMPILED:] + ds[:1]
    fresh = solve_integrals(H)
    assert [evaluate_summed(H, fresh, d) for d in ds] == sums


def memo_loop():
    """(counts, run): evaluate on every connection of
    oracles.dots_between_two_components(3) at a fresh kac-paljutkin, then
    evaluate_summed, then contraction_plan on every connection.  counts is
    [compiles, plans], the calls of _Compiled.__init__ and _Planner.plan in
    the loop, and run is (H, ints, d, its colorings, the values, the summed
    invariant, the plans)."""
    from hopfg import builtin_algebra
    from hopfg.evaluate import contraction_plan

    module, counts = sys.modules["hopfg.evaluate"], [0, 0]
    init, plan = module._Compiled.__init__, module._Planner.plan

    def counted_init(self, *args):
        counts[0] += 1
        init(self, *args)

    def counted_plan(self):
        counts[1] += 1
        return plan(self)

    H = builtin_algebra("kac-paljutkin")
    ints = solve_integrals(H)
    d = oracles.dots_between_two_components(3)
    cds = colorings(d, H.group)
    module._Compiled.__init__, module._Planner.plan = counted_init, counted_plan
    try:
        values = [evaluate(H, ints, cd) for cd in cds]
        summed = evaluate_summed(H, ints, d)
        plans = [contraction_plan(H, ints, cd) for cd in cds]
    finally:
        module._Compiled.__init__, module._Planner.plan = init, plan
    return counts, (H, ints, d, cds, values, summed, plans)


def test_a_diagram_is_compiled_once_per_integrals_and_planned_once_per_key():
    # the memo loop reads one compiled diagram, kept by the integrals under
    # the diagram, and plans once per plan key; an equal diagram that is
    # another object reads the same entry, and the values equal those of a
    # fresh solve
    from hopfg.evaluate import _compile, contraction_plan

    counts, (H, ints, d, cds, values, summed, plans) = memo_loop()
    compiled = _compile(H, ints, d)
    assert counts == [1, len(compiled.plans)] and len(cds) > len(compiled.plans)
    assert summed.homs is compiled.homs and list(summed.values) == values

    twin = oracles.dots_between_two_components(3)
    assert twin is not d and twin == d
    assert evaluate_summed(H, ints, twin) == summed
    assert _compile(H, ints, twin) is compiled

    fresh = solve_integrals(H)
    assert [evaluate(H, fresh, cd) for cd in cds] == values
    assert evaluate_summed(H, fresh, d) == summed
    assert [contraction_plan(H, fresh, cd) for cd in cds] == plans
    assert _compile(H, fresh, d) is not compiled


def test_errors_raise_on_every_call_and_are_never_kept(bank, monkeypatch):
    # an invalid diagram, integrals of another algebra, a hom enumeration
    # past MAX_HOM_STEPS and a site past MAX_SITE_ENTRIES raise on every
    # call; the first two leave no compiled diagram and no other entry, the
    # last two no connections and no plan
    from hopfg import builtin_algebra, groups
    from hopfg.evaluate import _compile, _compiled

    H = builtin_algebra("kac-paljutkin")
    ints = solve_integrals(H)
    other, other_ints = bank("cyclic:k=2,l=2,d=1")
    invalid = KirbyDiagram(dotted=(), undotted=(UndottedComponent(0, (DotPassage(3, True),)),),
                           crossings=())
    d = oracles.dots_between_two_components(3)
    cd = colorings(d, H.group)[0]
    was = [(dict(_compiled(o)), dict(o._kept)) for o in (ints, other_ints)]
    for _ in range(2):
        with pytest.raises(DiagramError, match="unknown dot 3"):
            evaluate_summed(H, ints, invalid)
        with pytest.raises(EvaluationError, match="different algebra"):
            evaluate_summed(other, ints, d)
    assert [(_compiled(o), o._kept) for o in (ints, other_ints)] == was

    monkeypatch.setattr(groups, "MAX_HOM_STEPS", 2)
    for _ in range(2):
        with pytest.raises(groups.GroupError, match="MAX_HOM_STEPS"):
            evaluate_summed(H, ints, d)
    assert _compile(H, ints, d).homs is None
    monkeypatch.setattr(sys.modules["hopfg.evaluate"], "MAX_SITE_ENTRIES", 1)
    for _ in range(2):
        with pytest.raises(EvaluationError, match="more than 1"):
            evaluate(H, ints, cd)
    assert _compile(H, ints, d).plans == {}
    monkeypatch.undo()
    assert evaluate_summed(H, ints, d).hom_count == len(colorings(d, H.group))


@pytest.mark.parametrize("spec", ("kac-paljutkin", "cyclic:k=3,l=4,d=1", "cyclic:k=2,l=4,d=3"))
def test_a_change_of_basis_keeps_every_summed_value(bank, spec):
    # evaluate_summed of every builtin and DB_2 in the basis of
    # oracles.rebased(H, 3), where every constant is a fresh Cyclo, sites
    # are dense and merges differ, equals H's connection by connection;
    # each diagram object serves both, and each IntegralData keeps its own
    # compiled diagram
    from hopfg.evaluate import _compile

    H, ints = bank(spec)
    K = oracles.rebased(H, seed=3)[0]
    kints = solve_integrals(K)
    for d in [*map(builtin_diagram, builtin_diagram_names()), oracles.db2()]:
        at_h, at_k = evaluate_summed(H, ints, d), evaluate_summed(K, kints, d)
        assert [hom.images for hom in at_k.homs] == [hom.images for hom in at_h.homs]
        assert [iv.value for iv in at_k.values] == [iv.value for iv in at_h.values], d
        assert _compile(K, kints, d) is not _compile(H, ints, d)


def test_inconsistent_coloring_rejected(bank):
    H, ints = bank("cyclic:k=3,l=2,d=1")
    d = oracles.two_dots_chain()
    g = H.group.element(1)
    bad = ColoredDiagram(d, {0: g, 1: g})  # g*g != 1 in Z_3
    with pytest.raises(ColoringError, match="relation of undotted component 0 "
                       "does not map to the identity"):
        evaluate(H, ints, bad)


def test_empty_component_contributes_the_dimension(bank):
    H, ints = bank("cyclic:k=1,l=4,d=1")
    d = oracles.kink_with_split_unknot()
    cd = colorings(d, H.group)[0]
    iv = evaluate(H, ints, cd)
    plain = evaluate(H, ints, colorings(builtin_diagram("cp2"), H.group)[0])
    # the bare unknot multiplies the bracket by dim H_1 and divides the
    # normalization by the same factor
    assert iv.value == plain.value
    assert iv.exponent == plain.exponent - 1
    assert iv.bracket == plain.bracket * Cyclo.rational(4)


def test_coloring_group_must_be_the_grading_group(bank):
    # colors are read as grade indices, so a group with another table is
    # rejected: Z_5 colors would index past Z_3
    H, ints = bank("cyclic:k=3,l=2,d=1")
    foreign = colorings(builtin_diagram("s1xs3"), cyclic_group(3))[1]
    assert evaluate(H, ints, foreign) == evaluate(
        H, ints, colorings(builtin_diagram("s1xs3"), H.group)[1])
    with pytest.raises(EvaluationError, match="grading group"):
        evaluate(H, ints, colorings(builtin_diagram("s1xs3"), cyclic_group(5))[4])
    assert evaluate_summed(H, ints, builtin_diagram("s1xs1xs2")).hom_count == 9


def test_a_dot_with_many_passages_at_a_cyclic_algebra(bank):
    # a cyclic algebra's dot site has at most l entries whatever the
    # passage count, so the site cap admits 12 passages; the down-up
    # pairs cancel, so 12, 2 and 0 passages give the same values
    H, ints = bank("cyclic:k=3,l=6,d=1")
    values = [[iv.value for iv in evaluate_summed(H, ints, oracles.dot_with_passages(k)).values]
              for k in (12, 2, 0)]
    assert len(values[0]) == 3
    assert values[0] == values[1] == values[2]


def test_a_site_bound_past_2_64_is_shown_as_a_power_of_two(bank):
    # 33 alternating passages at kac-paljutkin: nnz(L_1) = 8, at most four
    # coproduct terms and one antipode term per basis vector bound the site
    # by 8 * 4^32 = 2^67, which is refused before any site is built
    H, ints = bank("kac-paljutkin")
    (cd,) = colorings(oracles.dot_with_passages(33), H.group)
    message = ("dot 0 at grade 1 has 33 passages, so its site may hold over 2^67 "
               "entries, more than 2097152")
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        evaluate(H, ints, cd)


def test_the_fold_cap_stops_a_table_before_a_site_opens(bank, monkeypatch, capsys, tmp_path):
    # three dots between two components at kac-paljutkin: the fold opens
    # the last dot's 20-entry site over a table of 208, 4,160 pairs, so a
    # cap of 4,160 evaluates and one of 4,159 stops there, in the library
    # and as exit 2 from the command line
    from hopfg import diagram_to_json, dumps_canonical
    from hopfg.cli import main

    H, ints = bank("kac-paljutkin")
    d = oracles.dots_between_two_components(3)
    cd = colorings(d, H.group)[0]
    module = sys.modules["hopfg.evaluate"]
    monkeypatch.setattr(module, "MAX_SITE_ENTRIES", 4160)
    assert evaluate(H, ints, cd).value == 40
    monkeypatch.setattr(module, "MAX_SITE_ENTRIES", 4159)
    message = ("the fold would open a site of 20 entries over a table of 208: "
               "4160 pairs, more than 4159")
    with pytest.raises(EvaluationError, match=f"^{message}$"):
        evaluate(H, ints, cd)
    path = tmp_path / "dots.json"
    path.write_text(dumps_canonical(diagram_to_json(d)))
    assert main(["invariant", "--algebra", "kac-paljutkin", "--diagram", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# -- tensor products: I(H (x) K) = I(H) I(K) on every connection ------------------

# (H, K): kac-paljutkin with a cyclic algebra at 16 and 32 dimensions per
# grade, two cyclic algebras at 12, and kac-paljutkin with itself at 64,
# whose product rows have contents 1, 1/2 and 1/4, so that some fold steps
# merge three parts (DB_2 there)
TENSOR_PAIRS = (
    ("kac-paljutkin", "cyclic:k=2,l=2,d=1"),
    ("kac-paljutkin", "cyclic:k=2,l=4,d=3"),
    ("cyclic:k=2,l=3,d=1", "cyclic:k=2,l=4,d=1"),
    ("kac-paljutkin", "kac-paljutkin"),
)
# s1xs1xs2 takes about 9 s at kac-paljutkin (x) kac-paljutkin and every other
# diagram here under 0.1 s
TENSOR_SLOW = {("kac-paljutkin", "kac-paljutkin"): {"s1xs1xs2"}}


@pytest.mark.parametrize("a, b", TENSOR_PAIRS)
def test_the_invariant_of_a_tensor_product_is_the_product_of_the_invariants(bank, a, b):
    (H, ints_h), (K, ints_k) = bank(a), bank(b)
    HK = oracles.tensor(H, K)
    ints = solve_integrals(HK)
    cases = [(name, builtin_diagram(name)) for name in builtin_diagram_names()]
    for name, d in cases + [("db2", oracles.db2())]:
        if name in TENSOR_SLOW.get((a, b), ()):
            continue
        pairs = zip(evaluate_summed(H, ints_h, d).values, evaluate_summed(K, ints_k, d).values,
                    strict=True)
        want = [x.value * y.value for x, y in pairs]
        assert [iv.value for iv in evaluate_summed(HK, ints, d).values] == want, (a, b, name)


@pytest.mark.parametrize("spec", ("kac-paljutkin", "cyclic:k=2,l=3,d=1"))
def test_scalars_of_a_lesser_conductor_evaluate_as_at_their_own(bank, spec):
    # the same structure constants declared at twice their conductor, which
    # it divides: the cached sites, lam, unit and product rows are numerators
    # at the declared conductor, so each value must be lifted there first
    H, ints = bank(spec)
    H2 = HopfGAlgebra(H.group, H.dims, 2 * H.conductor, H.product, H.unit, H.coproduct,
                      H.counit, H.antipode, H.crossing, H.rmatrix, name=f"{spec} at 2n")
    ints2 = solve_integrals(H2)
    for name in builtin_diagram_names():
        d = builtin_diagram(name)
        assert ([iv.value for iv in evaluate_summed(H2, ints2, d).values]
                == [iv.value for iv in evaluate_summed(H, ints, d).values]), (spec, name)
