"""Finite group tables, presentations, and homomorphism enumeration."""

from itertools import permutations

import pytest

from hopfg.groups import (
    MAX_HOM_STEPS,
    FiniteGroup,
    GroupElement,
    GroupError,
    GroupHom,
    Presentation,
    cyclic_group,
    enumerate_homs,
    group_from_table,
    product_group,
)


def s3_table():
    """Composition table of all permutations of three letters, derived
    directly from function composition as an independent oracle."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ], perms


def test_cyclic_group_basics():
    G = cyclic_group(4)
    g = G.element(1)
    assert g.name == "a"
    assert (g * G.element(3)).is_identity()
    assert G.element(2).inv == G.element(2)
    assert G.identity.index == 0
    assert len(G) == 4
    assert G.element_by_name("a^3") == G.element(3)


def test_cyclic_group_of_order_one():
    G = cyclic_group(1)
    assert G.order == 1
    assert G.identity.is_identity()


def test_product_group():
    G = product_group(cyclic_group(2), cyclic_group(2))
    assert G.order == 4
    assert all(x.inv == x for x in G.elements())
    assert G.names[2] == "(a,1)"
    H = product_group(cyclic_group(2), cyclic_group(3))
    assert H.order == 6
    # (a, a) generates the whole group
    x = H.element(0)
    g = H.element_by_name("(a,a)")
    seen = set()
    for _ in range(6):
        x = x * g
        seen.add(x.index)
    assert len(seen) == 6


def test_missing_inverse_rejected():
    # swapping two entries of the order-3 cyclic table keeps the identity
    # but leaves element 2 without a two-sided inverse
    with pytest.raises(GroupError, match="inverse"):
        group_from_table([[0, 1, 2], [1, 0, 2], [2, 0, 1]])


def test_non_associative_table_rejected():
    # a commutative loop of order 5: latin, unital, two-sided inverses,
    # but (1*1)*2 != 1*(1*2)
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError, match=r"associativity fails at triple \(1,1,2\)"):
        group_from_table(loop)


def test_no_identity_rejected():
    with pytest.raises(GroupError, match="identity"):
        group_from_table([[0, 0], [0, 0]])


def test_malformed_tables_rejected():
    with pytest.raises(GroupError, match="empty"):
        FiniteGroup([])
    with pytest.raises(GroupError, match="length"):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(GroupError, match="element index"):
        FiniteGroup([[0, 1], [1, 5]])
    with pytest.raises(GroupError, match="names"):
        FiniteGroup([[0]], names=["a", "b"])


def test_element_access_errors():
    G = cyclic_group(3)
    with pytest.raises(GroupError):
        G.element(3)
    with pytest.raises(GroupError):
        G.element_by_name("b")
    with pytest.raises(GroupError):
        G.element(0) * cyclic_group(3).element(0)


def test_s3_has_eighteen_commuting_pairs():
    table, _ = s3_table()
    G = group_from_table(table)
    count = sum(
        1
        for a in range(6)
        for b in range(6)
        if G.table[a][b] == G.table[b][a]
    )
    assert count == 18


def test_conjugation_index_helper():
    table, perms = s3_table()
    G = group_from_table(table)
    for b in range(6):
        for a in range(6):
            expected = G.table[G.table[b][a]][G.inverses[b]]
            assert G.conj(b, a) == expected


def test_presentation_validation():
    Presentation(2, ((1, -2, 1),))
    with pytest.raises(GroupError):
        Presentation(1, ((0,),))
    with pytest.raises(GroupError):
        Presentation(1, ((2,),))


def test_enumerate_homs_counts():
    G = cyclic_group(3)
    # free on one generator: every image works, trivial hom included
    homs = enumerate_homs(Presentation(1, ()), G)
    assert len(homs) == 3
    assert homs[0].images[0].is_identity()
    # one generator with relation s^2: only the identity lands in Z_3
    homs = enumerate_homs(Presentation(1, ((1, 1),)), G)
    assert len(homs) == 1
    # commutator relation in S_3 counts the commuting pairs
    table, _ = s3_table()
    S3 = group_from_table(table)
    homs = enumerate_homs(Presentation(2, ((1, 2, -1, -2),)), S3)
    assert len(homs) == 18


def test_enumerate_homs_is_bounded_by_its_steps():
    # m free generators into Z_2 take 2^(m+1) - 2 steps: 16 fit the cap, 17 do not
    G = cyclic_group(2)
    assert MAX_HOM_STEPS == 1 << 17
    assert len(enumerate_homs(Presentation(16, ()), G)) == 1 << 16
    with pytest.raises(GroupError, match=r"more than 131072 steps \(MAX_HOM_STEPS\)"):
        enumerate_homs(Presentation(17, ()), G)
    # depth is not bounded by the interpreter's recursion limit
    assert len(enumerate_homs(Presentation(5000, ()), cyclic_group(1))) == 1


def test_homs_satisfy_their_relations():
    table, _ = s3_table()
    S3 = group_from_table(table)
    pres = Presentation(2, ((1, 2, -1, -2),))
    for hom in enumerate_homs(pres, S3):
        assert hom.word_image((1, 2, -1, -2)).is_identity()
    # word images multiply correctly
    hom = enumerate_homs(pres, S3)[5]
    a, b = hom.images
    assert hom.word_image((1, 1, 2)) == a * a * b
    assert hom.word_image(()) == S3.identity


def test_unsatisfiable_empty_relation():
    # a nonempty relation on zero generators can never hold unless trivial
    G = cyclic_group(2)
    assert len(enumerate_homs(Presentation(0, ((),)), G)) == 1


def test_group_hom_equality():
    G = cyclic_group(2)
    h1 = GroupHom(G, (G.element(1),))
    h2 = GroupHom(G, (G.element(1),))
    assert h1 == h2
    assert hash(h1) == hash(h2)
    assert h1 != GroupHom(G, (G.element(0),))


def test_presentation_is_a_frozen_checked_record():
    with pytest.raises(GroupError, match="bad letter 2"):
        Presentation(1, ((2,),))
    with pytest.raises(GroupError, match="bad letter 0"):
        Presentation(1, ((1, 0),))
    p = Presentation(2, ((1, -2),))
    assert p == Presentation(2, ((1, -2),)) and hash(p) == hash((2, ((1, -2),)))
    assert p != Presentation(2, ((1, 2),)) and p != (2, ((1, -2),))
    assert repr(p) == "Presentation(num_generators=2, relations=((1, -2),))"
    with pytest.raises(AttributeError):
        p.num_generators = 3


def test_group_elements_and_homs_are_frozen_and_keyed_by_group_identity():
    G, H = cyclic_group(3), cyclic_group(3)
    a = G.element(1)
    assert a == G.element(1) and {a: 1}[G.element(1)] == 1
    assert a != H.element(1) and a != 1
    assert repr(a) == "<a>"
    with pytest.raises(AttributeError):
        a.index = 2
    assert a.index == 1
    hom = GroupHom(G, [a])
    assert hom.images == (a,) and {hom: 1}[GroupHom(G, (G.element(1),))] == 1
    assert hom != GroupHom(H, (H.element(1),)) and hom != (G, (a,))
    assert repr(hom) == "GroupHom(a)"
    with pytest.raises(AttributeError):
        hom.images = ()
