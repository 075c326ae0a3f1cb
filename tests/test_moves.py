"""Move rewrites: structural round trips, invariance of the evaluator under
every mechanized move, and equality on the curated rewrite pairs."""

import hashlib
import itertools

import pytest

import oracles
from hopfg import (
    ColoringError,
    DiagramError,
    MoveError,
    apply_move,
    builtin_diagram,
    builtin_diagram_names,
    color,
    colorings,
    cyclic_group,
    diagram_to_json,
    dumps_canonical,
    evaluate,
    group_from_table,
    move_candidates,
    move_names,
    renumber,
    validate,
)
from hopfg.diagrams import DotPassage, require_colored
from hopfg.diagrams import (
    ColoredDiagram,
    Crossing,
    CrossingEnd,
    DottedComponent,
    KirbyDiagram,
    UndottedComponent,
)
from hopfg.evaluate import contraction_plan

ALGEBRAS = ["cyclic:k=1,l=2,d=1", "cyclic:k=2,l=3,d=1", "cyclic:k=1,l=4,d=3",
            "kac-paljutkin"]


def _trivial(d):
    return colorings(d, cyclic_group(1))[0]


def _values_over_colorings(bank, spec, d):
    H, ints = bank(spec)
    return [evaluate(H, ints, cd).value for cd in colorings(d, H.group)]


def _assert_same_invariant(bank, before, after):
    for spec in ALGEBRAS:
        assert _values_over_colorings(bank, spec, before) == \
            _values_over_colorings(bank, spec, after)


def test_move_names_listing():
    assert move_names() == tuple(sorted([
        "I-2-insert", "I-2-remove", "I-3", "I-5",
        "II-1-insert", "II-1-remove", "II-5", "II-6",
        "III-1-slide", "III-1-unslide",
        "III-4-insert", "III-4-remove", "III-5-insert", "III-5-remove",
        "global-conjugate",
    ]))


def test_move_spec_validation(bank):
    cd = _trivial(builtin_diagram("cp2"))
    with pytest.raises(MoveError, match="must be a dict"):
        apply_move(cd, ["I-5"])
    with pytest.raises(MoveError, match="unknown move"):
        apply_move(cd, {"move": "IV-1"})
    with pytest.raises(MoveError, match="missing parameters"):
        apply_move(cd, {"move": "I-5"})


def test_unhashable_move_name_is_a_move_error():
    cd = _trivial(builtin_diagram("cp2"))
    with pytest.raises(MoveError, match=r"unknown move \['x'\]"):
        apply_move(cd, {"move": ["x"]})


@pytest.mark.parametrize("spec", [{"move": "III-4-insert"},
                                  {"move": "global-conjugate", "element": 0}])
def test_group_moves_need_a_group_on_an_uncolored_diagram(spec):
    cd = ColoredDiagram(builtin_diagram("cp2"), {})
    with pytest.raises(MoveError, match=f"^{spec['move']}: no group available; "
                                        f"pass group=$"):
        apply_move(cd, spec)


# -- I-2: add or cancel a pair of opposite crossings ------------------------------


def test_i2_round_trip_and_invariance(bank):
    d = builtin_diagram("cp2")
    cd = _trivial(d)
    ins = {"move": "I-2-insert", "over": 0, "over_pos": 1,
           "under": 0, "under_pos": 2, "sign": "+"}
    bigger = apply_move(cd, ins)
    assert validate(bigger.diagram) == []
    assert len(bigger.diagram.crossings) == 3
    _assert_same_invariant(bank, d, bigger.diagram)
    new_ids = sorted(c.id for c in bigger.diagram.crossings)[-2:]
    back = apply_move(bigger, {"move": "I-2-remove",
                               "c1": new_ids[0], "c2": new_ids[1]})
    assert renumber(back.diagram) == renumber(d)


def test_i2_remove_needs_adjacent_opposite_pair(bank):
    cd = _trivial(builtin_diagram("s2xs2"))
    with pytest.raises(MoveError):
        apply_move(cd, {"move": "I-2-remove", "c1": 0, "c2": 1})


# -- I-3: braid relation -----------------------------------------------------------


def test_i3_on_braid_closure(bank):
    d = oracles.braid_closure()
    cd = _trivial(d)
    moved = apply_move(cd, {"move": "I-3", "crossings": [0, 1, 2]})
    assert validate(moved.diagram) == []
    assert moved.diagram != d
    _assert_same_invariant(bank, d, moved.diagram)
    # sliding back restores the original diagram exactly
    again = apply_move(moved, {"move": "I-3", "crossings": [0, 1, 2]})
    assert again.diagram == d


def test_i3_is_the_only_triple_on_the_braid(bank):
    cd = _trivial(oracles.braid_closure())
    triples = [s for s in move_candidates(cd, inserts=False)
               if s["move"] == "I-3"]
    assert triples == [{"move": "I-3", "crossings": [0, 1, 2]}]


def test_i3_rejects_non_braid_triples(bank):
    cd = _trivial(builtin_diagram("connected-sum:cp2,s2xs2"))
    with pytest.raises(MoveError):
        apply_move(cd, {"move": "I-3", "crossings": [0, 1, 2]})


# -- I-5: cancel a curl pair against the Drinfeld element ----------------------------


def test_i5_on_opposite_kinks(bank):
    d = oracles.two_kinks()
    cd = _trivial(d)
    moved = apply_move(cd, {"move": "I-5", "crossing": 0})
    assert validate(moved.diagram) == []
    _assert_same_invariant(bank, d, moved.diagram)
    back = apply_move(moved, {"move": "I-5", "crossing": 0})
    assert back.diagram == d


# -- II-1: birth or death of a cancelling passage pair --------------------------------


def test_ii1_round_trips(bank):
    d2 = builtin_diagram("s1xs1xs2")
    hom_cd = colorings(d2, cyclic_group(2))[3]
    for first_down in (True, False):
        for disk_pos in (0, 1, 2):
            ins = {"move": "II-1-insert", "dot": 0, "disk_pos": disk_pos,
                   "component": 1, "event_pos": 1, "first_down": first_down}
            bigger = apply_move(hom_cd, ins)
            assert validate(bigger.diagram) == []
            back = apply_move(bigger, {"move": "II-1-remove", "dot": 0,
                                       "disk_pos": disk_pos})
            assert renumber(back.diagram) == renumber(d2)
            assert back.colors == hom_cd.colors


def test_ii1_invariance(bank):
    d = builtin_diagram("s1xs1xs2")
    ins = {"move": "II-1-insert", "dot": 1, "disk_pos": 1,
           "component": 0, "event_pos": 2, "first_down": False}
    bigger = apply_move(_trivial(d), ins)
    _assert_same_invariant(bank, d, bigger.diagram)


def test_ii1_remove_requires_adjacent_cancelling_pair(bank):
    cd = _trivial(builtin_diagram("s1xs1xs2"))
    # positions 0 and 4 on the disk of dot 0 are a down/up pair of the same
    # strand but separated by another passage in between on the component
    with pytest.raises(MoveError):
        apply_move(cd, {"move": "II-1-remove", "dot": 0, "disk_pos": 0})


# -- II-5: slide a dot off the end, inverting its disk ---------------------------------


def test_ii5_involution_and_invariance(bank):
    d = builtin_diagram("s1xs1xs2")
    for G in (cyclic_group(2), cyclic_group(3)):
        for cd in colorings(d, G):
            moved = apply_move(cd, {"move": "II-5", "dot": 0})
            assert validate(moved.diagram) == []
            assert moved.colors[0] == cd.colors[0].inv
            assert moved.colors[1] == cd.colors[1]
            back = apply_move(moved, {"move": "II-5", "dot": 0})
            assert back.diagram == d and back.colors == cd.colors
    _assert_same_invariant(
        bank, d, apply_move(_trivial(d), {"move": "II-5", "dot": 0}).diagram)


# -- II-6: pass one dot through another -------------------------------------------------


def test_ii6_conjugates_the_passed_dot(bank):
    d = oracles.two_dots_chain()
    for G in (cyclic_group(3), cyclic_group(4)):
        for cd in colorings(d, G):
            moved = apply_move(cd, {"move": "II-6", "dot": 1, "through": 0})
            assert validate(moved.diagram) == []
            a = cd.colors[0]
            assert moved.colors[1] == a.inv * cd.colors[1] * a
            # the two passages swapped places on the strand
            evs = moved.diagram.undotted[0].events
            assert [ev.dot for ev in evs] == [1, 0]


def test_ii6_preserves_each_colorings_value(bank):
    d = oracles.two_dots_chain()
    H, ints = bank("cyclic:k=2,l=3,d=1")
    for cd in colorings(d, H.group):
        moved = apply_move(cd, {"move": "II-6", "dot": 1, "through": 0})
        assert evaluate(H, ints, moved).value == evaluate(H, ints, cd).value


def _s3():
    perms = sorted(itertools.permutations(range(3)))
    return group_from_table([[perms.index(tuple(p[i] for i in q)) for q in perms]
                             for p in perms])


@pytest.mark.parametrize("dot, through", [(1, 0), (0, 1)], ids=["after", "before"])
def test_ii6_conjugates_on_the_side_of_the_strand_order(dot, through):
    # dot 1 passes through dot 0 after it on the strand, so its color a
    # becomes b^-1 a b; dot 0 through dot 1 before it, so a becomes b a b^-1
    cds = colorings(oracles.product_of_two_dots(), _s3())
    assert len(cds) == 36
    assert sum(cd.colors[0] * cd.colors[1] != cd.colors[1] * cd.colors[0] for cd in cds) == 18
    for cd in cds:
        a, b = cd.colors[dot], cd.colors[through]
        moved = apply_move(cd, {"move": "II-6", "dot": dot, "through": through})
        want = b.inv * a * b if dot == 1 else b * a * b.inv
        assert moved.colors == {**cd.colors, dot: want}
        require_colored(moved)


# -- III-1: slide one dot over another ---------------------------------------------------


def test_iii1_slide_unslide(bank):
    H, ints = bank("cyclic:k=2,l=3,d=1")
    d = oracles.two_dots_chain()
    for cd in colorings(d, H.group):
        slid = apply_move(cd, {"move": "III-1-slide", "dot": 0, "over": 1})
        assert validate(slid.diagram) == []
        assert slid.colors[0] == cd.colors[0] * cd.colors[1].inv
        assert slid.colors[1] == cd.colors[1]
        back = apply_move(slid, {"move": "III-1-unslide", "dot": 0, "over": 1})
        assert back.diagram == d and back.colors == cd.colors
        assert evaluate(H, ints, slid).value == evaluate(H, ints, cd).value


def test_iii1_multiplies_on_the_right_under_s3():
    # sliding dot 1 (color a) over dot 0 (color b) gives it a b^-1, and
    # unsliding the passage of dot 0 that follows it gives a b
    for cd in colorings(oracles.product_of_two_dots(), _s3()):
        a, b = cd.colors[1], cd.colors[0]
        slid = apply_move(cd, {"move": "III-1-slide", "dot": 1, "over": 0})
        unslid = apply_move(cd, {"move": "III-1-unslide", "dot": 1, "over": 0})
        assert slid.colors == {**cd.colors, 1: a * b.inv}
        assert unslid.colors == {**cd.colors, 1: a * b}
        require_colored(slid)
        require_colored(unslid)


# -- III-4: birth or death of an isolated trivially colored dot -----------------------------


def test_iii4_round_trip_and_invariance(bank):
    d = builtin_diagram("s1xs3")
    H, ints = bank("cyclic:k=2,l=3,d=1")
    for cd in colorings(d, H.group):
        bigger = apply_move(cd, {"move": "III-4-insert"})
        assert validate(bigger.diagram) == []
        assert len(bigger.diagram.dotted) == 2
        new_id = max(x.id for x in bigger.diagram.dotted)
        assert bigger.colors[new_id].is_identity()
        assert evaluate(H, ints, bigger).value == evaluate(H, ints, cd).value
        back = apply_move(bigger, {"move": "III-4-remove", "dot": new_id})
        assert renumber(back.diagram) == renumber(d)
        assert list(back.colors.values()) == list(cd.colors.values())


def test_iii4_remove_requires_bare_trivial_dot(bank):
    H, _ = bank("cyclic:k=2,l=3,d=1")
    d = builtin_diagram("s1xs3")
    nontrivial = colorings(d, H.group)[1]
    with pytest.raises(MoveError):
        apply_move(nontrivial, {"move": "III-4-remove", "dot": 0})
    threaded = _trivial(builtin_diagram("s1xs1xs2"))
    with pytest.raises(MoveError):
        apply_move(threaded, {"move": "III-4-remove", "dot": 0})


# -- III-5: birth or death of a 3-handle / bare unknot pair ----------------------------------


def test_iii5_round_trip_and_invariance(bank):
    d = builtin_diagram("cp2")
    cd = _trivial(d)
    bigger = apply_move(cd, {"move": "III-5-insert"})
    assert validate(bigger.diagram) == []
    assert bigger.diagram.h3 == d.h3 + 1
    assert len(bigger.diagram.undotted) == 2
    _assert_same_invariant(bank, d, bigger.diagram)
    new_id = max(u.id for u in bigger.diagram.undotted)
    back = apply_move(bigger, {"move": "III-5-remove", "component": new_id})
    assert renumber(back.diagram) == renumber(d)


def test_iii5_remove_guards(bank):
    cd = _trivial(builtin_diagram("cp2"))
    with pytest.raises(MoveError, match="not bare"):
        apply_move(cd, {"move": "III-5-remove", "component": 0})
    bare_no_h3 = _trivial(oracles.kink_with_split_unknot())
    with pytest.raises(MoveError, match="no 3-handle"):
        apply_move(bare_no_h3, {"move": "III-5-remove", "component": 1})


# -- global conjugation ------------------------------------------------------------------


def test_global_conjugate(bank, kp):
    H, ints = kp
    d = builtin_diagram("s1xs3")
    mu = H.group.element_by_name("mu")
    for cd in colorings(d, H.group):
        for beta in ("mu", 0, 1):
            moved = apply_move(cd, {"move": "global-conjugate", "element": beta})
            assert moved.diagram == d
            assert evaluate(H, ints, moved).value == evaluate(H, ints, cd).value
        conj = apply_move(cd, {"move": "global-conjugate", "element": "mu"})
        assert conj.colors[0] == mu * cd.colors[0] * mu.inv
    with pytest.raises(MoveError, match="unknown element"):
        apply_move(_trivial(d), {"move": "global-conjugate", "element": "nu"},
                   group=H.group)
    with pytest.raises(MoveError, match="out of range"):
        apply_move(_trivial(d), {"move": "global-conjugate", "element": 9},
                   group=H.group)


# -- curated rewrite pairs (moves with no mechanized rewrite) --------------------------------


@pytest.mark.parametrize("sign", [True, False])
def test_crossing_slides_through_disk(bank, sign):
    before, after = oracles.pair_crossing_through_disk(sign)
    _assert_same_invariant(bank, before, after)


@pytest.mark.parametrize("sign", [True, False])
def test_strand_behind_disk_strands(bank, sign):
    before, after = oracles.pair_strand_behind_disk(sign)
    _assert_same_invariant(bank, before, after)


@pytest.mark.parametrize("sign", [True, False])
def test_strand_in_front_of_disk_strands(bank, sign):
    before, after = oracles.pair_strand_in_front_of_disk(sign)
    _assert_same_invariant(bank, before, after)


def test_loop_around_disk_strands_cancels(bank):
    before, after = oracles.pair_loop_around_strands()
    _assert_same_invariant(bank, before, after)


def test_parallel_cable_of_kink(bank):
    # a 2-cable of a curl equals the curl plus a split bare unknot
    cable = oracles.parallel_pair_of_kink()
    split = oracles.kink_with_split_unknot()
    _assert_same_invariant(bank, cable, split)


# -- candidate enumeration ------------------------------------------------------------------


def test_all_candidates_preserve_the_invariant(bank):
    H, ints = bank("cyclic:k=2,l=3,d=1")
    for name in ("cp2", "s1xs3", "s1xs1xs2"):
        d = builtin_diagram(name)
        for cd in colorings(d, H.group):
            base = evaluate(H, ints, cd).value
            for spec in move_candidates(cd, inserts=False):
                moved = apply_move(cd, spec)
                assert validate(moved.diagram) == []
                assert evaluate(H, ints, moved).value == base, spec


def test_insert_candidates_on_a_small_diagram(bank):
    H, ints = bank("cyclic:k=1,l=2,d=1")
    cd = _trivial(builtin_diagram("cp2"))
    base = evaluate(H, ints, cd).value
    specs = move_candidates(cd, inserts=True, group=H.group)
    assert {"move": "III-5-insert"} in specs
    assert {"move": "III-4-insert"} in specs
    for spec in specs:
        moved = apply_move(cd, spec, group=H.group)
        assert evaluate(H, ints, moved).value == base, spec


def test_candidates_preserve_coloring_counts(bank):
    for order in (2, 3, 4):
        G = cyclic_group(order)
        d = builtin_diagram("s1xs1xs2")
        n = len(colorings(d, G))
        cd = colorings(d, G)[1]
        for spec in move_candidates(cd, inserts=False):
            moved = apply_move(cd, spec)
            assert len(colorings(moved.diagram, G)) == n, spec


def test_candidates_of_an_invalid_diagram_are_empty():
    # crossing 0 has an over end and no under end
    d = KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, (CrossingEnd(0, True),)),),
        crossings=(Crossing(0, True),),
    )
    assert validate(d) != []
    cd = ColoredDiagram(d, {})
    assert move_candidates(cd, inserts=True, group=cyclic_group(2)) == []


def test_candidates_and_rewrites_are_pinned():
    # bench walks replay candidates by index, so their order is pinned along
    # with every rewrite's canonical diagram and colors
    diagrams = [builtin_diagram(name) for name in builtin_diagram_names()]
    diagrams += [oracles.braid_closure(), oracles.two_kinks(),
                 builtin_diagram("connected-sum:s1xs1xs2,cp2")]
    digest = hashlib.sha256()
    n = 0
    for G in (cyclic_group(2), cyclic_group(3)):
        for d in diagrams:
            for cd in colorings(d, G):
                for spec in move_candidates(cd, inserts=True, group=G):
                    moved = apply_move(cd, spec, group=G)
                    colors = sorted((k, g.index) for k, g in moved.colors.items())
                    digest.update(dumps_canonical(
                        [spec, diagram_to_json(moved.diagram), colors]).encode())
                    n += 1
    assert n == 10737
    assert digest.hexdigest() == \
        "53f95f144a49236f13b78ffdfb4b20f7d7b4dfb54b0e69e071c361c7faea2ee3"


@pytest.mark.parametrize("spec, message", [
    ({"move": "I-2-insert", "over": 0, "over_pos": "x", "under": 0,
      "under_pos": 1}, "over_pos must be an integer"),
    ({"move": "I-2-insert", "over": 0, "over_pos": True, "under": 0,
      "under_pos": 1}, "over_pos must be an integer"),
    ({"move": "I-5", "crossing": None}, "crossing must be an integer"),
    ({"move": "I-3", "crossings": 5}, "crossings must be a list of 3 integers"),
    ({"move": "I-3", "crossings": [0, 1, "2"]},
     "crossings must be a list of 3 integers"),
    ({"move": "II-5", "dot": [0]}, "dot must be an integer"),
    ({"move": "II-1-insert", "dot": 0, "disk_pos": 0, "component": 0,
      "event_pos": 0, "first_down": "false"}, "first_down must be true or false"),
    ({"move": "global-conjugate", "element": True},
     "element must be an integer or an element name"),
    ({"move": "I-2-remove", "c1": 7, "c2": 0}, "^I-2-remove: unknown crossing 7$"),
    ({"move": "I-3", "crossings": [0, 0, 9]}, "^I-3: unknown crossing 9$"),
    ({"move": "II-6", "dot": 0, "through": 9},
     "^II-6: unknown dotted component 9$"),
    ({"move": "III-5-remove", "component": 4},
     "^III-5-remove: unknown undotted component 4$"),
])
def test_mistyped_parameters_raise_move_error(spec, message):
    # two dots, two undotted components and three crossings
    cd = _trivial(builtin_diagram("connected-sum:s1xs1xs2,cp2"))
    with pytest.raises(MoveError, match=message):
        apply_move(cd, spec)


def _unreadable():
    g = cyclic_group(3).element(1)
    dangling = KirbyDiagram((DottedComponent(0, ((0, 5),)),), (UndottedComponent(0, ()),), ())
    return [
        ColoredDiagram(builtin_diagram("s1xs1xs2"), {0: g}),  # dot 1 has no color
        ColoredDiagram(dangling, {0: g}),  # a passage that names no event
        ColoredDiagram(oracles.two_dots_chain(), {0: g, 1: g}),  # not flat in Z_3
    ]


@pytest.mark.parametrize("cd", _unreadable(),
                         ids=["missing-color", "dangling-passage", "not-flat"])
def test_unreadable_colored_diagrams_are_rejected(bank, cd):
    # every entry point asks diagrams.require_colored, so none of them
    # reaches a KeyError
    H, ints = bank("cyclic:k=3,l=2,d=1")
    for call in (evaluate, contraction_plan):
        with pytest.raises((ColoringError, DiagramError)):
            call(H, ints, cd)
    for spec in ({"move": "II-5", "dot": 0}, {"move": "III-5-insert"}):
        with pytest.raises(MoveError, match="^cannot rewrite this colored diagram: "):
            apply_move(cd, spec)
    assert move_candidates(cd, group=H.group) == []
