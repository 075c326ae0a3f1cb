"""Built-in algebra families: the cyclic series and the eight dimensional
non-group example."""

import hashlib

import pytest

import oracles
from hopfg import builtin_algebra, drinfeld_element, solve_integrals, verify_axioms
from hopfg.algebra import apply_rows
from hopfg.builtins import build_crossed, build_cyclic, build_kac_paljutkin, cyclic_ring
from hopfg.cyclo import Cyclo
from hopfg.groups import cyclic_group


def test_trivial_algebra():
    H = build_cyclic(1, 1, 0)
    assert H.group.order == 1
    assert H.dims == (1,)
    assert H.conductor == 1
    assert verify_axioms(H).ok


def test_cyclic_shape_and_names():
    H = build_cyclic(3, 4, 2)
    assert H.group.order == 3
    assert H.dims == (4, 4, 4)
    assert H.conductor == 4
    assert H.basis_name(0, 1) == "g^3"
    assert H.basis_name(1, 0) == "g^1"
    assert H.name == "cyclic:k=3,l=4,d=2"
    assert verify_axioms(H).ok


def test_cyclic_group_algebra_relation():
    # g^3 * g^3 = g^6 = g^0 when k=1, l=3
    H = build_cyclic(1, 3, 1)
    e, one = H.group.identity_index, H.one()
    g = {1: one}
    g2 = H.mul_raw(e, e, g, g)
    assert g2 == {2: one}
    assert H.mul_raw(e, e, g, g2) == H.unit


def test_cyclic_r_matrix_oracle():
    for (k, l, d) in [(1, 2, 1), (1, 3, 2), (2, 4, 3), (1, 5, 0)]:
        H = build_cyclic(k, l, d)
        assert H.rmatrix == oracles.oracle_r_tensor(H, d)


def test_cyclic_parameter_validation():
    with pytest.raises(ValueError, match="d must satisfy"):
        build_cyclic(1, 3, 3)
    with pytest.raises(ValueError, match="d must satisfy"):
        build_cyclic(1, 3, -1)
    with pytest.raises(ValueError, match="must be positive"):
        build_cyclic(0, 3, 1)
    with pytest.raises(ValueError, match="must be positive"):
        build_cyclic(2, 0, 0)


def test_builtin_spec_parsing():
    H = builtin_algebra("cyclic:k=1,l=2,d=1")
    assert H.name == "cyclic:k=1,l=2,d=1"
    assert builtin_algebra("kac-paljutkin").name == "kac-paljutkin"
    with pytest.raises(ValueError, match="bad cyclic parameter"):
        builtin_algebra("cyclic:k=1,l=2,d")
    with pytest.raises(ValueError, match="needs exactly"):
        builtin_algebra("cyclic:k=1,l=2")
    with pytest.raises(ValueError, match="needs exactly"):
        builtin_algebra("cyclic:k=1,q=2,d=1")
    with pytest.raises(ValueError, match="must be integers"):
        builtin_algebra("cyclic:k=1,l=two,d=0")
    with pytest.raises(ValueError, match="unknown builtin algebra"):
        builtin_algebra("octonions")
    with pytest.raises(ValueError, match="cyclic parameter 'k' given twice"):
        builtin_algebra("cyclic:k=1,k=2,l=2,d=1")
    with pytest.raises(ValueError, match="cyclic parameter 'd' given twice"):
        builtin_algebra("cyclic:k=1,l=2,d=1, d =0")


def test_kac_paljutkin_shape(kp):
    H, _ = kp
    assert H.group.order == 2
    assert tuple(H.group.names) == ("1", "mu")
    assert H.dims == (8, 8)
    assert H.conductor == 4
    assert H.basis_name(0, 4) == "z"
    assert H.basis_name(1, 7) == "xyz"


def test_kac_paljutkin_square_of_z(kp):
    # z^2 = (1 + x + y - xy)/2
    H, _ = kp
    e, z = H.group.identity_index, {4: H.one()}
    half = Cyclo.rational(1, 2)
    assert H.mul_raw(e, e, z, z) == {0: half, 1: half, 2: half, 3: -half}


def test_kac_paljutkin_noncommutative(kp):
    H, _ = kp
    e, one = H.group.identity_index, H.one()
    x, z = {1: one}, {4: one}
    assert H.mul_raw(e, e, z, x) == {6: one}  # yz
    assert H.mul_raw(e, e, x, z) == {5: one}  # xz


def test_kac_paljutkin_noncocommutative(kp):
    H, _ = kp
    t = H.coproduct_power(H.group.identity_index, {4: H.one()}, 2).entries
    assert {(j, i): v for (i, j), v in t.items()} != t


def test_kac_paljutkin_crossing_action(kp):
    H, _ = kp
    e, one = H.group.identity_index, H.one()
    phi = H.crossing[H.group.element_by_name("mu").index, e]
    assert apply_rows(phi, {4: one}, one) == {7: one}  # xyz
    assert apply_rows(phi, {1: one}, one) == {1: one}


def test_kac_paljutkin_axioms(kp):
    H, _ = kp
    assert verify_axioms(H).ok


def test_kac_paljutkin_integrals(kp):
    H, ints = kp
    eighth = Cyclo.rational(1, 8)
    for a in H.group.elements():
        lam_a = ints.integral(a)
        assert lam_a.grade == a
        assert lam_a.entries == {i: eighth for i in range(8)}
    assert list(ints.lam_values) == [Cyclo.rational(8)] + [Cyclo.zero(1)] * 7


def test_build_functions_match_spec_strings(bank):
    H1, _ = bank("cyclic:k=2,l=3,d=1")
    assert H1 == build_cyclic(2, 3, 1)
    H2 = builtin_algebra("kac-paljutkin")
    assert H2 == build_kac_paljutkin()


def test_integrals_cache_is_per_algebra(kp):
    H, ints = kp
    again = solve_integrals(H)
    assert again.lam_values == ints.lam_values
    assert all(again.integral(a) == ints.integral(a) for a in H.group.elements())


@pytest.mark.parametrize(
    "spec", [oracles.spec_of(*p) for p in oracles.grid()] + ["kac-paljutkin"])
def test_every_structure_constant_lives_at_the_declared_conductor(spec):
    H = builtin_algebra(spec)
    scalars = [v for tab in H.product.values() for row in tab for vec in row
               for v in vec.values()]
    scalars += list(H.unit.values()) + list(H.rmatrix.values())
    for a in range(H.group.order):
        for i in range(H.dims[a]):
            scalars += list(H.coproduct[a][i].values()) + [H.counit[a][i]]
            scalars += list(H.antipode[a][i].values())
    scalars += [v for rows in H.crossing.values() for row in rows
                for v in row.values()]
    assert scalars and {v.n for v in scalars} == {H.conductor}


# The builtin exports, pinned: sha256 of the concatenated canonical JSON
# texts of every grid algebra plus kac-paljutkin, then with two larger
# cyclic algebras appended.  The full grid is spelled out so that a shrunk
# local test grid does not change the digest.
_EXPORT_SPECS = [oracles.spec_of(k, l, d) for k in (1, 2, 3) for l in range(1, 7)
                 for d in range(l)] + ["kac-paljutkin"]
_EXPORT_DIGEST = "7d8e15dbbe24751635544082a1377ea6a7f23addaee04490d03030c16e21ed44"
_LARGE_SPECS = ["cyclic:k=2,l=12,d=5", "cyclic:k=1,l=60,d=7"]
_LARGE_DIGEST = "a306cb4fef9173a46a2fbf5e52b6db50706f6f5b16c26c44986750ccedd02b1c"


def test_builtin_exports_are_pinned():
    from hopfg import algebra_to_json, dumps_canonical

    digest = hashlib.sha256()
    for spec in _EXPORT_SPECS:
        digest.update(dumps_canonical(algebra_to_json(builtin_algebra(spec))).encode())
    assert digest.copy().hexdigest() == _EXPORT_DIGEST
    for spec in _LARGE_SPECS:
        digest.update(dumps_canonical(algebra_to_json(builtin_algebra(spec))).encode())
    assert digest.hexdigest() == _LARGE_DIGEST


@pytest.mark.parametrize("spec", ["cyclic:k=3,l=2,d=1", "kac-paljutkin"])
def test_each_distinct_product_table_is_held_once(spec):
    # a crossed product's table at (a, b) depends only on (phi_a, sigma(a, b)):
    # the carry is 1 or h at k = 3, and phi_a is 1 or mu at kac-paljutkin
    H = builtin_algebra(spec)
    held = list({id(tab): tab for tab in H.product.values()}.values())
    assert len(held) == 2 and held[0] != held[1]


@pytest.mark.parametrize("l, d", [(3, 1), (4, 1), (5, 1), (5, 2), (8, 3)])
def test_crossed_product_by_inversion(l, d):
    # C[Z_l] x| Z_2 with Z_2 acting by h -> h^-1, which fixes the Gauss
    # pairing R, and sigma = 1: neither builtin acts nontrivially on a
    # group algebra
    H = build_crossed(cyclic_group(2), cyclic_ring(l, d),
                      [range(l), [-i % l for i in range(l)]], lambda a, b: None,
                      None, f"inversion:l={l},d={d}")
    assert H.dims == (l, l) and H.conductor == l
    inv, one = H.group.element_by_name("a").index, H.one()
    assert apply_rows(H.crossing[inv, H.group.identity_index], {1: one}, one) == {l - 1: one}
    assert verify_axioms(H).ok
    solve_integrals(H)
    drinfeld_element(H)
