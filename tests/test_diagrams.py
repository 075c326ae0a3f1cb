"""Diagram data model: validation, presentations, colorings, and the
orientation / rotation / renumbering / sum operations."""

import copy
import hashlib
import pickle

import pytest

import oracles
from hopfg import (
    ColoringError,
    Cyclo,
    DiagramError,
    Graded,
    KirbyDiagram,
    builtin_diagram,
    builtin_diagram_names,
    color,
    colorings,
    connected_sum,
    cyclic_group,
    diagram_to_json,
    dumps_canonical,
    fundamental_presentation,
    renumber,
    reorient,
    rotate_component,
    validate,
)
from hopfg.diagrams import (
    ColoredDiagram,
    Crossing,
    CrossingEnd,
    DotPassage,
    DottedComponent,
    UndottedComponent,
    require_colored,
)
from hopfg.groups import GroupHom, enumerate_homs, group_from_table


def _s3():
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    return group_from_table(table)


# -- builtin diagrams -----------------------------------------------------------


def test_builtin_names_and_validity():
    names = builtin_diagram_names()
    assert set(names) == {"cp2", "cp2bar", "s2xs2", "s1xs3", "s1xs1xs2", "s4"}
    for name in names:
        assert validate(builtin_diagram(name)) == []


def test_unknown_builtin_diagram():
    with pytest.raises(DiagramError, match="unknown builtin diagram"):
        builtin_diagram("poincare")
    with pytest.raises(DiagramError, match="exactly two"):
        builtin_diagram("connected-sum:cp2")


def test_connected_sum_parts_are_stripped():
    from hopfg import diagram_to_json, resolve_diagram

    spec = "connected-sum:cp2, s1xs3"
    want = diagram_to_json(builtin_diagram("connected-sum:cp2,s1xs3"))
    assert diagram_to_json(builtin_diagram(spec)) == want
    assert diagram_to_json(resolve_diagram(spec)) == want


def test_builtin_shapes():
    cp2 = builtin_diagram("cp2")
    assert len(cp2.undotted) == 1 and len(cp2.dotted) == 0
    assert cp2.crossings[0].positive
    assert not builtin_diagram("cp2bar").crossings[0].positive
    s4 = builtin_diagram("s4")
    assert s4.undotted == () and s4.dotted == () and s4.h4 == 1
    s1xs3 = builtin_diagram("s1xs3")
    assert len(s1xs3.dotted) == 1 and s1xs3.h3 == 1


# -- fundamental group presentations ----------------------------------------------


def test_presentations_of_builtins():
    p = fundamental_presentation(builtin_diagram("cp2"))
    assert p.num_generators == 0
    assert p.relations == ((),)
    p = fundamental_presentation(builtin_diagram("s2xs2"))
    assert p.num_generators == 0
    assert p.relations == ((), ())
    p = fundamental_presentation(builtin_diagram("s1xs3"))
    assert p.num_generators == 1
    assert p.relations == ()
    p = fundamental_presentation(builtin_diagram("s1xs1xs2"))
    assert p.num_generators == 2
    assert p.relations == ((1, 2, -1, -2), ())
    p = fundamental_presentation(builtin_diagram("s4"))
    assert p.num_generators == 0 and p.relations == ()


def test_presentation_of_connected_sum():
    d = builtin_diagram("connected-sum:s1xs3,s1xs3")
    p = fundamental_presentation(d)
    assert p.num_generators == 2
    assert p.relations == ()
    assert d.h3 == 2 and d.h4 == 1


# -- colorings --------------------------------------------------------------------


def test_coloring_counts():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    assert len(colorings(builtin_diagram("cp2"), z3)) == 1
    assert len(colorings(builtin_diagram("s1xs3"), z3)) == 3
    assert len(colorings(builtin_diagram("s1xs1xs2"), z2)) == 4
    assert len(colorings(builtin_diagram("s1xs1xs2"), z3)) == 9
    # in S3 only commuting pairs color the commutator relation
    assert len(colorings(builtin_diagram("s1xs1xs2"), _s3())) == 18


def test_first_coloring_is_trivial():
    z3 = cyclic_group(3)
    cd = colorings(builtin_diagram("s1xs3"), z3)[0]
    assert cd.color_of(0).is_identity()


def test_color_rejects_wrong_image_count():
    z3 = cyclic_group(3)
    hom = GroupHom(z3, (z3.element(1), z3.element(2)))
    with pytest.raises(ColoringError, match="generator images"):
        color(builtin_diagram("s1xs3"), hom)


def test_color_rejects_relation_violation():
    s3 = _s3()
    noncommuting = [
        (a, b)
        for a in s3.elements()
        for b in s3.elements()
        if a * b != b * a
    ]
    hom = GroupHom(s3, noncommuting[0])
    with pytest.raises(ColoringError, match="does not map to the identity"):
        color(builtin_diagram("s1xs1xs2"), hom)


def test_colorings_match_hom_enumeration():
    z4 = cyclic_group(4)
    d = builtin_diagram("s1xs1xs2")
    homs = enumerate_homs(fundamental_presentation(d), z4)
    cds = colorings(d, z4)
    assert len(cds) == len(homs) == 16
    for hom, cd in zip(homs, cds):
        assert cd.color_of(0) == hom.images[0]
        assert cd.color_of(1) == hom.images[1]


# -- validation -------------------------------------------------------------------


def test_validate_reports_unknown_crossing():
    d = KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, (CrossingEnd(5, True),)),),
        crossings=(),
    )
    problems = validate(d)
    assert any("unknown crossing 5" in p for p in problems)


def test_validate_reports_bad_crossing_ends():
    # both ends over
    d = KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, (CrossingEnd(0, True), CrossingEnd(0, True))),),
        crossings=(Crossing(0, True),),
    )
    assert any("exactly one over and one under" in p for p in validate(d))
    # only one end
    d = KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, (CrossingEnd(0, True),)),),
        crossings=(Crossing(0, True),),
    )
    assert any("got 1 end(s)" in p for p in validate(d))


def test_validate_reports_dot_bookkeeping():
    # passage event missing from the dot's left-to-right list
    d = KirbyDiagram(
        dotted=(DottedComponent(0, ()),),
        undotted=(UndottedComponent(0, (DotPassage(0, True),)),),
        crossings=(),
    )
    assert any("missing from" in p for p in validate(d))
    # dot lists a reference that is not a dot passage event
    d = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0),)),),
        undotted=(UndottedComponent(0, ()),),
        crossings=(),
    )
    assert any("not a dot passage event" in p for p in validate(d))
    # passage through an unknown dot
    d = KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, (DotPassage(3, True),)),),
        crossings=(),
    )
    assert any("unknown dot 3" in p for p in validate(d))
    # same reference listed twice
    d = KirbyDiagram(
        dotted=(DottedComponent(0, ((0, 0), (0, 0))),),
        undotted=(UndottedComponent(0, (DotPassage(0, True),)),),
        crossings=(),
    )
    assert any("listed twice" in p for p in validate(d))


def test_validate_reports_duplicate_ids_and_bad_counts():
    d = KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, ()), UndottedComponent(0, ())),
        crossings=(),
    )
    assert any("duplicate undotted" in p for p in validate(d))
    d = KirbyDiagram(dotted=(), undotted=(), crossings=(), h3=0, h4=-1)
    assert any("negative handle count" in p for p in validate(d))


def test_validate_reports_shapes_only_python_can_build():
    # the JSON loader builds every event and passage reference itself
    d = KirbyDiagram(dotted=(), undotted=(UndottedComponent(0, ("over",)),), crossings=())
    assert validate(d) == ["undotted 0 has a malformed event at 0"]
    d = KirbyDiagram(dotted=(DottedComponent(0, (5,)),), undotted=(), crossings=())
    assert validate(d) == ["dot 0 has a malformed passage reference"]


# -- reorientation ----------------------------------------------------------------


def test_reorient_is_an_involution():
    for name in builtin_diagram_names():
        d = builtin_diagram(name)
        for u in d.undotted:
            once = reorient(d, u.id)
            assert validate(once) == []
            assert reorient(once, u.id) == d


def test_reorient_flips_linking_crossings_only():
    d = builtin_diagram("s2xs2")
    r = reorient(d, 0)
    assert all(not c.positive for c in r.crossings)
    # a curl has both ends on the reversed component, so its sign stays
    d = builtin_diagram("cp2")
    r = reorient(d, 0)
    assert r.crossings[0].positive
    assert r.undotted[0].events == tuple(reversed(d.undotted[0].events))


def test_reorient_flips_passage_directions():
    d = builtin_diagram("s1xs1xs2")
    r = reorient(d, 0)
    assert validate(r) == []
    downs = [ev.down for ev in r.undotted[0].events if isinstance(ev, DotPassage)]
    assert downs == [True, True, False, False]
    # the relation becomes the reversed inverse word, still a commutator
    p = fundamental_presentation(r)
    assert p.relations == ((2, 1, -2, -1), ())


# -- rotation ---------------------------------------------------------------------


def test_rotation_round_trip():
    d = builtin_diagram("s1xs1xs2")
    n = len(d.undotted[0].events)
    assert rotate_component(d, 0, n) == d
    r = rotate_component(d, 0, 2)
    assert validate(r) == []
    assert rotate_component(r, 0, n - 2) == d
    assert rotate_component(d, 0, 0) == d


def test_rotation_of_empty_component():
    d = builtin_diagram("s4")
    extended = KirbyDiagram(
        dotted=(), undotted=(UndottedComponent(0, ()),), crossings=(),
        h3=d.h3, h4=d.h4,
    )
    assert rotate_component(extended, 0, 3) == extended


def test_rotation_repoints_passages():
    d = builtin_diagram("s1xs1xs2")
    r = rotate_component(d, 0, 1)
    # event previously at position 0 is now at position n-1
    assert (0, 5) in r.dotted[0].passages
    assert validate(r) == []


def test_colors_from_different_groups_are_rejected():
    d = builtin_diagram("s1xs1xs2")
    cd = ColoredDiagram(d, {0: cyclic_group(2).element(1), 1: cyclic_group(5).element(4)})
    with pytest.raises(ColoringError, match="different groups"):
        require_colored(cd)
    # another group object with the same table is the same group
    cd = ColoredDiagram(d, {0: cyclic_group(3).element(1), 1: cyclic_group(3).element(2)})
    require_colored(cd)


def test_rotation_and_reorientation_rebuild_valid_diagrams_only():
    d = builtin_diagram("s2xs2")
    # crossings come out in id order
    shuffled = KirbyDiagram(d.dotted, d.undotted, d.crossings[::-1], d.h3, d.h4)
    assert rotate_component(shuffled, 0, 0) == d
    assert reorient(reorient(shuffled, 1), 1) == d
    # a passage that names no event
    bad = KirbyDiagram((DottedComponent(0, ((0, 5),)),), (UndottedComponent(0, ()),), ())
    with pytest.raises(DiagramError, match="not a dot passage event"):
        rotate_component(bad, 0, 1)
    with pytest.raises(DiagramError, match="not a dot passage event"):
        reorient(bad, 0)
    with pytest.raises(DiagramError, match="no undotted component 9"):
        rotate_component(d, 9, 1)


def test_rotations_and_reorientations_are_pinned():
    # every reorientation and every rotation (wrapping both ways) of every
    # undotted component of the diagrams the move pin walks
    ds = [builtin_diagram(name) for name in builtin_diagram_names()]
    ds += [oracles.braid_closure(), oracles.two_kinks(),
           builtin_diagram("connected-sum:s1xs1xs2,cp2")]
    digest = hashlib.sha256()
    n = 0
    for d in ds:
        for u in d.undotted:
            rotations = [rotate_component(d, u.id, r)
                         for r in range(-1, len(u.events) + 2)]
            for out in [reorient(d, u.id)] + rotations:
                digest.update(dumps_canonical(diagram_to_json(out)).encode())
                n += 1
    assert n == 84
    assert digest.hexdigest() == \
        "b900259806030b8766da2acfd618a4c840a554388753e778b187cc921b750b85"


# -- renumbering and sums ------------------------------------------------------------


def test_renumber_compacts_ids():
    base = builtin_diagram("s1xs1xs2")
    shifted = KirbyDiagram(
        dotted=tuple(DottedComponent(x.id + 10, tuple((ru + 20, rp) for ru, rp in x.passages))
                     for x in base.dotted),
        undotted=tuple(
            UndottedComponent(
                u.id + 20,
                tuple(
                    CrossingEnd(ev.crossing + 30, ev.over)
                    if isinstance(ev, CrossingEnd)
                    else DotPassage(ev.dot + 10, ev.down)
                    for ev in u.events
                ),
            )
            for u in base.undotted
        ),
        crossings=tuple(Crossing(c.id + 30, c.positive) for c in base.crossings),
        h3=base.h3,
        h4=base.h4,
    )
    assert validate(shifted) == []
    assert renumber(shifted) == base


def test_connected_sum_counts():
    a = builtin_diagram("s1xs1xs2")
    b = builtin_diagram("cp2")
    s = connected_sum(a, b)
    assert validate(s) == []
    assert len(s.dotted) == 2 and len(s.undotted) == 3 and len(s.crossings) == 3
    assert s.h3 == 2 and s.h4 == 1
    assert fundamental_presentation(s).num_generators == 2
    # ids stay dense and disjoint
    assert [u.id for u in s.undotted] == [0, 1, 2]
    assert [c.id for c in s.crossings] == [0, 1, 2]


def test_connected_sum_with_empty_diagram():
    s4 = builtin_diagram("s4")
    d = builtin_diagram("s2xs2")
    s = connected_sum(d, s4)
    assert s.undotted == d.undotted and s.crossings == d.crossings
    assert s.h4 == 1


def test_oracle_fixture_diagrams_are_valid():
    fixtures = [
        oracles.braid_closure(),
        oracles.two_kinks(),
        oracles.parallel_pair_of_kink(),
        oracles.kink_with_split_unknot(),
        oracles.two_dots_chain(),
    ]
    for before, after in [
        oracles.pair_crossing_through_disk(True),
        oracles.pair_crossing_through_disk(False),
        oracles.pair_strand_behind_disk(True),
        oracles.pair_strand_behind_disk(False),
        oracles.pair_strand_in_front_of_disk(True),
        oracles.pair_strand_in_front_of_disk(False),
        oracles.pair_loop_around_strands(),
    ]:
        fixtures.append(before)
        fixtures.append(after)
    for d in fixtures:
        assert validate(d) == []


def test_colored_diagram_equality():
    G = cyclic_group(3)
    d = builtin_diagram("s1xs1xs2")
    cd = ColoredDiagram(d, {0: G.element(1), 1: G.element(2)})
    assert cd == ColoredDiagram(builtin_diagram("s1xs1xs2"), {0: G.element(1), 1: G.element(2)})
    assert cd != ColoredDiagram(d, {0: G.element(1), 1: G.element(1)})
    assert cd != d and cd != (d, cd.colors)


# -- record semantics: equality by class and fields, hashing, immutability ----


def _records():
    """One instance of each frozen record, built twice by the same call."""
    G = cyclic_group(2)
    return [
        lambda: CrossingEnd(0, True),
        lambda: DotPassage(0, True),
        lambda: Crossing(0, True),
        lambda: DottedComponent(0, ((0, 1),)),
        lambda: UndottedComponent(0, (DotPassage(0, True),)),
        lambda: builtin_diagram("s1xs1xs2"),
        lambda: G.element(1),
    ]


def test_records_equal_only_records_of_their_own_class():
    assert CrossingEnd(0, True) != DotPassage(0, True)
    assert Crossing(0, True) != CrossingEnd(0, True)
    assert DottedComponent(0, ()) != UndottedComponent(0, ())
    assert Crossing(0, True) != (0, True)
    assert Crossing(0, True) != Crossing(0, False)
    assert Crossing(0, True) == Crossing(0, True)


@pytest.mark.parametrize("make", _records(), ids=lambda f: type(f()).__name__)
def test_equal_records_hash_equally_and_work_as_dict_keys(make):
    a, b = make(), make()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_frozen_records_hash_by_their_fields():
    assert hash(Crossing(3, False)) == hash((3, False))
    assert hash(CrossingEnd(2, True)) == hash((2, True))
    assert hash(DotPassage(1, False)) == hash((1, False))


@pytest.mark.parametrize("make, field", [
    (lambda: CrossingEnd(0, True), "over"),
    (lambda: DotPassage(0, True), "dot"),
    (lambda: Crossing(0, True), "positive"),
    (lambda: DottedComponent(0, ()), "passages"),
    (lambda: UndottedComponent(0, ()), "id"),
    (lambda: builtin_diagram("cp2"), "h4"),
], ids=["CrossingEnd", "DotPassage", "Crossing", "DottedComponent", "UndottedComponent",
        "KirbyDiagram"])
def test_frozen_records_refuse_assignment(make, field):
    r = make()
    before = getattr(r, field)
    with pytest.raises(AttributeError):
        setattr(r, field, 7)
    assert getattr(r, field) == before


def test_kirby_diagram_keywords_and_handle_defaults():
    d = KirbyDiagram(dotted=(), undotted=(UndottedComponent(0, ()),), crossings=())
    assert (d.h3, d.h4) == (0, 1)
    assert d == KirbyDiagram((), (UndottedComponent(0, ()),), (), 0, 1)
    assert KirbyDiagram((), (), (), 2, 3).h3 == 2


def test_mutable_records_are_unhashable(bank):
    from hopfg import evaluate_summed
    from hopfg.evaluate import InvariantValue, SummedInvariant
    from hopfg.integrals import IntegralData
    G = cyclic_group(2)
    H, I = bank("cyclic:k=2,l=2,d=1")
    summed = evaluate_summed(H, I, builtin_diagram("cp2"))
    records = [ColoredDiagram(builtin_diagram("cp2"), {}), summed.values[0], summed, I]
    assert [type(r) for r in records] == [ColoredDiagram, InvariantValue, SummedInvariant,
                                          IntegralData]
    for r in records:
        with pytest.raises(TypeError):
            hash(r)
    cd = records[0]
    cd.colors = {0: G.element(1)}  # the unhashable records stay assignable
    assert cd.color_of(0) == G.element(1)
    del cd.colors
    assert not hasattr(cd, "colors")


def test_records_survive_copy_and_pickle():
    for make in _records():
        assert copy.copy(make()) == make()
    for make in _records()[:-1]:  # a GroupElement's group is compared by identity
        r = make()
        assert pickle.loads(pickle.dumps(r)) == r and copy.deepcopy(r) == r


def test_integral_data_equality_ignores_the_dot_site_cache(bank):
    from hopfg import solve_integrals
    from hopfg.evaluate import _dot_site
    H, I = bank("cyclic:k=2,l=2,d=1")
    fresh = solve_integrals(H)
    _dot_site(I, 0, (True, False))
    assert I == fresh and fresh == I
    assert "_kept" not in repr(fresh)


def test_record_reprs_are_pinned():
    assert repr(Crossing(0, True)) == "Crossing(id=0, positive=True)"
    assert repr(DottedComponent(1, ((0, 2),))) == "DottedComponent(id=1, passages=((0, 2),))"
    assert repr(UndottedComponent(0, (CrossingEnd(0, True), DotPassage(1, False)))) == (
        "UndottedComponent(id=0, events=(O(c0), D(x1,up)))")
    assert repr(KirbyDiagram((), (), ())) == (
        "KirbyDiagram(dotted=(), undotted=(), crossings=(), h3=0, h4=1)")
    assert repr(Graded(cyclic_group(2).element(1), {(0, 1): Cyclo.rational(1, 2)})) == (
        "Graded(grade=<a>, entries={(0, 1): Cyclo(1, {0: 1/2})})")
