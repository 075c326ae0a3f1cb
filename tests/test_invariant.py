"""Evaluator results on the builtin diagrams, checked against independent
closed forms, plus summed invariants and multiplicativity."""

import re
import sys
from math import gcd

import pytest

import oracles
from hopfg import (
    ColoredDiagram,
    ColoringError,
    EvaluationError,
    builtin_diagram,
    color,
    colorings,
    connected_sum,
    cyclic_group,
    evaluate,
    evaluate_summed,
    reorient,
    solve_integrals,
)
from hopfg.cyclo import Cyclo
from hopfg.diagrams import (
    DiagramError,
    DotPassage,
    KirbyDiagram,
    UndottedComponent,
)


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
