"""The contraction plan and an independent check of the contraction.

``evaluate`` folds the components in a planned order, each from a planned
start event.  The planner tests pin that the plan does not depend on how
the diagram happens to be stored, and that it is never predicted to cost
more than the length-sorted fold from the stored events.  The oracle
tests compare ``evaluate`` exactly with the term-by-term expansion in
``oracles.expansion_invariant``, which shares no fold or plan code with it.
"""

import random
import sys
from fractions import Fraction

import pytest

import oracles
from hopfg import (
    algebra_from_json,
    algebra_to_json,
    apply_move,
    builtin_algebra,
    builtin_diagram,
    builtin_diagram_names,
    colorings,
    connected_sum,
    evaluate,
    evaluate_summed,
    move_candidates,
    rotate_component,
    solve_integrals,
    verify_axioms,
)
from hopfg.cyclo import Cyclo
from hopfg.evaluate import _compile, _crossing_sites, contraction_plan

PLAN_SPECS = ("kac-paljutkin", "cyclic:k=2,l=3,d=1", "cyclic:k=1,l=4,d=1")

# connected sums of builtins: components that share sites within a
# summand and none across summands
PLAN_DIAGRAMS = (
    ("s1xs1xs2", "s2xs2"),
    ("cp2", "s1xs1xs2"),
    ("s2xs2", "cp2bar"),
    ("s1xs1xs2", "s1xs1xs2"),
)


def _summed(a, b):
    return connected_sum(builtin_diagram(a), builtin_diagram(b))


def _rotations(d):
    """d under every single rotate_component of every component."""
    for u in d.undotted:
        for r in range(1, len(u.events)):
            yield rotate_component(d, u.id, r)


@pytest.mark.parametrize("spec", PLAN_SPECS)
def test_plan_cost_ignores_the_stored_start_events(bank, spec):
    H, ints = bank(spec)
    stored_costs = set()
    for a, b in PLAN_DIAGRAMS:
        d = _summed(a, b)
        base = [contraction_plan(H, ints, cd)[2] for cd in colorings(d, H.group)]
        for rot in _rotations(d):
            plans = [contraction_plan(H, ints, cd) for cd in colorings(rot, H.group)]
            assert [cost for _, _, cost, _ in plans] == base, (a, b)
            stored_costs.update(stored for _, _, _, stored in plans)
    # the rotations do change the cost of the unplanned fold
    assert len(stored_costs) > 1


@pytest.mark.parametrize("spec", PLAN_SPECS)
def test_plan_starts_each_component_at_the_same_event_under_rotation(bank, spec):
    # ties between equally cheap starts included: the planned fold reads
    # the same events in the same order however the diagram is stored
    H, ints = bank(spec)
    for a, b in PLAN_DIAGRAMS:
        d = _summed(a, b)
        base = [contraction_plan(H, ints, cd)[:2] for cd in colorings(d, H.group)]
        for k, u in enumerate(d.undotted):
            n = len(u.events)
            for r in range(1, n):
                rot = rotate_component(d, u.id, r)
                plans = []
                for cd in colorings(rot, H.group):
                    order, starts, _, _ = contraction_plan(H, ints, cd)
                    # event p of the rotated component is event p + r of d's
                    starts = tuple((s + r) % n if c == k else s
                                   for c, s in zip(order, starts))
                    plans.append((order, starts))
                assert plans == base, (a, b, k, r)


@pytest.mark.parametrize("spec", PLAN_SPECS)
def test_plan_is_never_predicted_costlier_than_the_stored_order(bank, spec):
    H, ints = bank(spec)
    cheaper = 0
    for a, b in PLAN_DIAGRAMS:
        d = _summed(a, b)
        for dd in (d, *_rotations(d)):
            for cd in colorings(dd, H.group):
                order, _, cost, stored = contraction_plan(H, ints, cd)
                assert cost <= stored
                assert sorted(order) == list(range(len(dd.undotted)))
                cheaper += cost < stored
    assert cheaper > 0


def test_plan_of_a_diagram_without_undotted_components(kp):
    H, ints = kp
    cd = colorings(builtin_diagram("s1xs3"), H.group)[0]
    assert contraction_plan(H, ints, cd) == ((), (), 0, 0)


# -- the term-by-term oracle -----------------------------------------------------

ORACLE_SPECS = ("kac-paljutkin", "cyclic:k=1,l=2,d=1", "cyclic:k=3,l=2,d=1",
                "cyclic:k=2,l=3,d=1", "cyclic:k=1,l=4,d=2", "cyclic:k=2,l=4,d=3")


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_builtins_match_the_term_by_term_expansion(bank, spec):
    H, ints = bank(spec)
    for name in builtin_diagram_names():
        d = builtin_diagram(name)
        expected = [oracles.expansion_invariant(H, ints, cd) for cd in colorings(d, H.group)]
        assert [evaluate(H, ints, cd).value for cd in colorings(d, H.group)] == expected, name
        assert [iv.value for iv in evaluate_summed(H, ints, d).values] == expected, name


def _partial_support_algebra():
    """cyclic:k=1,l=2,d=1 graded over Z/2, its grade 1 of dimension 0;
    the new group element crosses H_1 by the identity."""
    obj = algebra_to_json(builtin_algebra("cyclic:k=1,l=2,d=1"))
    obj.update(group="cyclic:2", dims=obj["dims"] + [0],
               basis_names=obj["basis_names"] + [[]],
               crossing=obj["crossing"] + [[1, *block[1:]] for block in obj["crossing"]])
    H = algebra_from_json(obj)
    assert verify_axioms(H).ok
    return H, solve_integrals(H)


def test_a_dot_of_an_unsupported_grade_evaluates_to_zero(bank):
    # Lambda_a lies in H_a = 0; a dot with passages used to reach the fold
    H, ints = _partial_support_algebra()
    H1, ints1 = bank("cyclic:k=1,l=2,d=1")
    e = H.group.identity_index
    for name in builtin_diagram_names():
        d = builtin_diagram(name)
        trivial = evaluate_summed(H1, ints1, d).values[0].value
        values = []
        for cd in colorings(d, H.group):
            value = evaluate(H, ints, cd).value
            assert value == oracles.expansion_invariant(H, ints, cd), name
            if all(x.index == e for x in cd.colors.values()):
                assert value == trivial, name
            else:
                assert not value, name
            values.append(value)
        assert [iv.value for iv in evaluate_summed(H, ints, d).values] == values, name
    summed = evaluate_summed(H, ints, builtin_diagram("s1xs1xs2"))
    assert [str(v.value) for v in summed.values] == ["4", "0", "0", "0"]


# (algebra, start diagram) per walk; the walk's seed is its index
WALKS = (
    ("kac-paljutkin", "s2xs2"),
    ("kac-paljutkin", "cp2"),
    ("kac-paljutkin", "s1xs3"),
    ("cyclic:k=3,l=2,d=1", "s1xs1xs2"),
    ("cyclic:k=3,l=2,d=1", "s2xs2"),
    ("cyclic:k=2,l=3,d=1", "cp2bar"),
    ("cyclic:k=1,l=4,d=2", "s1xs3"),
    ("cyclic:k=2,l=4,d=3", "s2xs2"),
    ("cyclic:k=1,l=2,d=1", "s1xs1xs2"),
)
WALK_STEPS = 8
MAX_CROSSINGS = 8
MAX_DOTS = 3
MAX_TERMS = 8000  # bounds the oracle's cost, not the engine's


def _step(H, ints, cd, rng):
    """A seeded move from cd: a move type drawn uniformly among those
    ``move_candidates`` offers, then one of its specs, skipping specs
    that take the diagram past the walk's bounds."""
    by_move = {}
    for spec in move_candidates(cd, inserts=True, group=H.group):
        by_move.setdefault(spec["move"], []).append(spec)
    names = sorted(by_move)
    rng.shuffle(names)
    for name in names:
        specs = by_move[name]
        rng.shuffle(specs)
        for spec in specs:
            moved = apply_move(cd, spec, group=H.group)
            d = moved.diagram
            if (len(d.crossings) <= MAX_CROSSINGS and len(d.dotted) <= MAX_DOTS
                    and oracles.expansion_size(H, ints, moved) <= MAX_TERMS):
                return spec, moved
    pytest.fail("no move keeps the walk within its bounds")


@pytest.mark.parametrize("walk", range(len(WALKS)))
def test_move_walks_match_the_term_by_term_expansion(bank, walk):
    spec, name = WALKS[walk]
    H, ints = bank(spec)
    rng = random.Random(walk)
    cds = colorings(builtin_diagram(name), H.group)
    cd = cds[rng.randrange(len(cds))]
    for _ in range(WALK_STEPS):
        move, cd = _step(H, ints, cd, rng)
        assert evaluate(H, ints, cd).value == oracles.expansion_invariant(H, ints, cd), \
            (spec, name, move)


# -- kinks and parallel crossing pairs, pre-contracted before the plan ----------

MERGE_SPECS = ("kac-paljutkin", "cyclic:k=1,l=4,d=1")


def _merge_cases():
    """(name, diagram) per kink, clasp and II-pair case."""
    for positive in (True, False):
        for over_first in (True, False):
            yield f"kink{'+-'[not positive]}{'OU' if over_first else 'UO'}", \
                oracles.kink_on_clasp(positive, over_first)
    for signs, over_twice in (((True, True), False), ((False, False), False),
                              ((True, False), True), ((False, True), True)):
        for y_reversed in (False, True):
            name = (f"{'II' if over_twice else 'clasp'}"
                    f"{''.join('+-'[not s] for s in signs)}{'-reversed' * y_reversed}")
            yield name, oracles.parallel_pair(signs, over_twice, y_reversed)
    yield "three-parallel", oracles.three_parallel_crossings()
    yield "one-event-components", oracles.one_event_components()


MERGE_CASES = tuple(_merge_cases())


def _plans_under_rotation(H, ints, d):
    """Each rotation r of each component k, with the plans of its colorings
    read back as events of d."""
    for k, u in enumerate(d.undotted):
        n = len(u.events)
        for r in range(1, n):
            rot = rotate_component(d, u.id, r)
            plans = []
            for cd in colorings(rot, H.group):
                order, starts, cost, _ = contraction_plan(H, ints, cd)
                plans.append((order, tuple((s + r) % n if c == k else s
                                           for c, s in zip(order, starts)), cost))
            yield rot, k, r, plans


@pytest.mark.parametrize("spec", MERGE_SPECS)
@pytest.mark.parametrize("name,d", MERGE_CASES, ids=[n for n, _ in MERGE_CASES])
def test_merged_crossings_match_the_term_by_term_expansion(bank, spec, name, d):
    # every rotation of every component included, so each kink and pair
    # also straddles the stored start event; the plan reads the same
    # events at the same cost however the diagram is stored
    H, ints = bank(spec)
    base = [contraction_plan(H, ints, cd)[:3] for cd in colorings(d, H.group)]
    for rot, k, r, plans in [(d, 0, 0, base), *_plans_under_rotation(H, ints, d)]:
        expected = [oracles.expansion_invariant(H, ints, cd) for cd in colorings(rot, H.group)]
        assert [evaluate(H, ints, cd).value for cd in colorings(rot, H.group)] == expected, \
            (name, k, r)
        assert plans == base, (name, k, r)


@pytest.mark.parametrize("spec", MERGE_SPECS)
def test_kinks_and_parallel_pairs_are_merged(bank, spec):
    # a kink always becomes a one-factor site; a pair only when that
    # shrinks the site, which a clasp at kac-paljutkin (16 = 4 x 4) does not
    H, ints = bank(spec)
    dense = spec != "kac-paljutkin"
    for name, d in MERGE_CASES:
        compiled = _compile(H, ints, d)
        widths = sorted(len(slots) for slots in compiled.skeleton)
        if name.startswith("kink"):
            assert widths == ([1, 2] if dense else [2, 3]), name
            # a merged slot starts at the event of its first end
            assert compiled.positions[0][:2] == (0, 2), name
        elif name.startswith("clasp"):
            assert widths == ([2, 3] if dense else [3, 4]), name
        elif name.startswith("II"):
            assert widths == [2, 3], name
    # of the pairs (0, 1) and (1, 2), the lesser ids merge: component 1
    # reads crossing 2 alone (site 2) and then the merged pair (site 1)
    compiled = _compile(H, ints, oracles.three_parallel_crossings())
    assert [slot[:2] for slot in compiled.skeleton[1]] == [(2, 1), (1, 1)]


@pytest.mark.parametrize("spec", ("kac-paljutkin", "cyclic:k=2,l=4,d=1"))
def test_a_value_that_depends_on_the_connection(bank, spec):
    # DB_2 takes different values on its connections, so a bind that
    # reads another connection's sites shows here
    H, ints = bank(spec)
    d = oracles.db2()
    expected = [oracles.expansion_invariant(H, ints, cd) for cd in colorings(d, H.group)]
    assert [iv.value for iv in evaluate_summed(H, ints, d).values] == expected
    assert [evaluate(H, ints, cd).value for cd in colorings(d, H.group)] == expected
    if spec == "cyclic:k=2,l=4,d=1":
        assert [str(v) for v in expected] == ["2", "0"]


@pytest.mark.parametrize("spec", ("D(S3)", "kac-paljutkin", "cyclic:k=1,l=4,d=1"))
def test_merged_sites_multiply_their_ends_in_traversal_order(bank, spec):
    # at D(S3) the order of the product in a merged clasp or II pair shows
    # in its entries, which kac-paljutkin's commuting R legs hide; R has
    # content 1 there, 1/2 at kac-paljutkin and 1/4 at cyclic:k=1,l=4,d=1,
    # so a site is compared as its content times its primitive entries
    if spec == "D(S3)":
        H = oracles.double_s3()
        ints = solve_integrals(H)
    else:
        H, ints = bank(spec)
    cases = [(d, (0, 1)) for name, d in MERGE_CASES if name.startswith(("clasp", "II", "three"))]
    cases += [(oracles.kink_on_clasp(positive, over_first), (0,))
              for positive in (True, False) for over_first in (True, False)]
    for d, ids in cases:
        for dd in (d, *_rotations(d)):
            # the sites follow the least crossing id, so ids[0] = 0 is the first
            want = oracles.merged_crossing_site(H, dd, ids)
            if len(ids) == 2:  # a pair merges only when that has fewer entries
                lone = [oracles.merged_crossing_site(H, dd, (c,)) for c in ids]
                if len(want) >= len(lone[0]) * len(lone[1]):
                    want = lone[0]
            (p, q), entries = _crossing_sites(H, dd, [{} for _ in dd.undotted], 0)[0]
            assert [(t, Cyclo(H.conductor, dict(enumerate(v))) * Fraction(p, q))
                    for t, v in entries] == want, (spec, d, ids)


# -- the fold's scalar work ------------------------------------------------------

# (spec, diagram, ceiling): the fold multiplies primitive site entries, and
# the sites' and lam's rational contents enter once per bind.  With warm
# caches one evaluate_summed made 1,413, 8,344 and 57,096 Cyclo
# multiplications before that and 18, 6,412 and 44,936 with it (the rest at
# kac-paljutkin were its +-1/2 product constants).  Reading each product with
# a denominator as its content times int entries, and multiplying the content
# in once per state and site entry, took kac-paljutkin to 3,724 and 25,928.
# The fold now multiplies numerators (Cyclo.num) in Z[zeta_n] by the kernel
# mul_nums, and a step's row contents enter the bind's int ratio; only a step
# that mixes contents scales a part by an int, once per key.  A ceiling
# bounds all three counts together: no Cyclo multiplications, then 0, 2,372
# and 16,416 kernel calls, and 0, 912 and 5,240 scaled terms.  kink_on_clasp
# (its kink one merged site, its clasp two R sites, no dots) makes 3 Cyclo
# multiplications before and 1 kernel call now, and three_parallel_crossings,
# whose II pair is one merged site, 36 before and 16 + 4 now.  Each ceiling is
# the count plus 10%, rounded down.
FOLD_WORK = (
    ("cyclic:k=3,l=5,d=3", "s1xs1xs2", 0),
    ("kac-paljutkin", "s1xs1xs2", 3_612),
    ("kac-paljutkin", "dots_between_two_components(3)", 23_821),
    ("kac-paljutkin", "kink_on_clasp(True, True)", 1),
    ("kac-paljutkin", "three_parallel_crossings()", 22),
)
FOLD_DIAGRAMS = {
    "dots_between_two_components(3)": lambda: oracles.dots_between_two_components(3),
    "kink_on_clasp(True, True)": lambda: oracles.kink_on_clasp(True, True),
    "three_parallel_crossings()": oracles.three_parallel_crossings,
}


def fold_mul_count(spec, name):
    """(cyclo, kernel, scalings, binds) of one evaluate_summed of the diagram
    name at spec, after a first call has filled the site caches: its Cyclo
    multiplications, the fold's calls of the numerator kernel mul_nums (a
    rational operand included), the terms its per-step content scalings
    multiply, and its binds (one per connection)."""
    H, ints = oracles.bank(spec)
    d = FOLD_DIAGRAMS[name]() if name in FOLD_DIAGRAMS else builtin_diagram(name)
    evaluate_summed(H, ints, d)
    counts, evaluate_module = [0, 0, 0], sys.modules["hopfg.evaluate"]
    mul, kernel, merged = Cyclo.__mul__, evaluate_module.mul_nums, evaluate_module._merged

    def counted_mul(a, b):
        counts[0] += 1
        return mul(a, b)

    def counted_kernel(n, a, b):
        counts[1] += 1
        return kernel(n, a, b)

    def counted_merged(parts):
        # each term of a part whose content is not the step's common one is scaled
        content, terms = merged(parts)
        counts[2] += sum(len(t) for c, t in parts.items() if c != content)
        return content, terms

    Cyclo.__mul__ = Cyclo.__rmul__ = counted_mul
    evaluate_module.mul_nums, evaluate_module._merged = counted_kernel, counted_merged
    try:
        binds = len(evaluate_summed(H, ints, d).values)
    finally:
        Cyclo.__mul__ = Cyclo.__rmul__ = mul
        evaluate_module.mul_nums, evaluate_module._merged = kernel, merged
    return (*counts, binds)


@pytest.mark.parametrize("spec, name, ceiling", FOLD_WORK)
def test_fold_op_counts(spec, name, ceiling):
    cyclo, kernel, scalings, binds = fold_mul_count(spec, name)
    assert cyclo + kernel + scalings <= ceiling
    # the contents' denominators enter the value once per bind, at its end
    assert cyclo <= binds
