"""Structure-constant algebra layer: the sparse kernel, validation,
integrals, antipode and integral identities, and tensor helpers."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from hopfg import (
    AlgebraStructureError,
    Graded,
    HopfGAlgebra,
    IntegralError,
    builtin_algebra,
    solve_integrals,
)
from hopfg.algebra import (
    _tensor_mul_raw,
    add_into,
    apply_rows,
    apply_rows_at,
    echelon_add,
    embed_two_raw,
    format_raw_vector,
    primitive,
    slot_rows,
)
from hopfg.cli import main
from hopfg.cyclo import Cyclo, render_scalar
from hopfg.serialize import algebra_to_json, dumps_canonical, resolve_algebra

SPECS = ["cyclic:k=2,l=3,d=1", "cyclic:k=1,l=4,d=3", "kac-paljutkin"]


# -- the unit and the coproduct power ------------------------------------------


def test_unit_and_zero(bank):
    H, _ = bank("cyclic:k=2,l=3,d=1")
    assert H.unit == {0: Cyclo.one(H.conductor)}
    assert H.counit_raw(H.group.identity_index, H.unit) == Cyclo.one(1)


def test_coproduct_power_of_unit(bank):
    for spec in SPECS:
        H, _ = bank(spec)
        e = H.group.identity
        expected = Graded(e, {(0, 0, 0): Cyclo.one(H.conductor)})
        assert H.coproduct_power(e.index, H.unit, 3) == expected
        assert H.coproduct_power(e.index, H.unit, 1).entries == {(0,): Cyclo.one(H.conductor)}


def test_the_graded_returns_carry_grade_and_entries(bank):
    # the attributes the benchmark in bench/ reads off these three returns
    from hopfg import drinfeld_element

    for spec in SPECS:
        H, ints = bank(spec)
        G = H.group
        for a in range(G.order):
            lam = ints.integral(a)
            assert type(lam) is Graded and lam.grade == G.element(a)
            assert lam.entries == ints.integrals[a] and bool(lam.entries) == (a in H.support)
        u = drinfeld_element(H)
        assert type(u) is Graded and u.grade == G.identity and u.entries
        for a in H.support:
            t = H.coproduct_power(a, ints.integrals[a], 3)
            assert type(t) is Graded and t.grade == G.element(a)
            assert t.entries and all(len(k) == 3 for k in t.entries)


def test_coproduct_power_needs_a_factor(bank):
    H, _ = bank("cyclic:k=1,l=3,d=1")
    with pytest.raises(ValueError, match="nfactors"):
        H.coproduct_power(H.group.identity_index, {1: H.one()}, 0)


# -- structural validation errors ----------------------------------------------


def _parts(H):
    return dict(
        group=H.group, dims=H.dims, conductor=H.conductor, product=H.product,
        unit=H.unit, coproduct=H.coproduct, counit=H.counit,
        antipode=H.antipode, crossing=H.crossing, rmatrix=H.rmatrix,
    )


def _rebuild(H, **overrides):
    parts = _parts(H)
    parts.update(overrides)
    return HopfGAlgebra(
        parts["group"], parts["dims"], parts["conductor"], parts["product"],
        parts["unit"], parts["coproduct"], parts["counit"], parts["antipode"],
        parts["crossing"], parts["rmatrix"],
    )


def test_missing_product_entry_rejected():
    H = builtin_algebra("cyclic:k=1,l=2,d=0")
    tab = [list(row) for row in H.product[0, 0]]
    del tab[0][1]
    with pytest.raises(AlgebraStructureError, match=r"product undefined .* \(0,1\)"):
        _rebuild(H, product={(0, 0): tab})


def _old_layout(tab):
    return {(i, j): vec for i, row in enumerate(tab) for j, vec in enumerate(row)}


@pytest.mark.parametrize("edit, message", [
    (_old_layout, r"product table for grades \(1,a\) is not 2 rows of 2 vectors"),
    (lambda tab: tab[:1], r"product undefined at grades \(1,a\) basis \(1,0\)"),
    (lambda tab: [row + [{}] for row in tab], r"grades \(1,a\) is not 2 rows of 2 vectors"),
    (lambda tab: [[5, *row[1:]] for row in tab], r"grades \(1,a\) is not 2 rows of 2 vectors"),
], ids=["dict-layout", "missing-row", "long-row", "entry-not-a-vector"])
def test_product_table_must_be_nested_rows(edit, message):
    # product[a, b] is dims[a] rows of dims[b] sparse vectors, nothing else
    H = builtin_algebra("cyclic:k=2,l=2,d=0")
    with pytest.raises(AlgebraStructureError, match=message):
        _rebuild(H, product={**H.product, (0, 1): edit(H.product[0, 1])})


@pytest.mark.parametrize("edit, message", [
    (lambda tab: [row[:1] for row in tab], r"product undefined at grades \(a,a\^2\) basis \(0,1\)"),
    (lambda tab: [[{5: v} for v in row] for row in tab], r"product: index 5 out of range"),
], ids=["short-rows", "index-out-of-range"])
def test_a_fault_in_a_shared_table_names_its_first_grade_pair(edit, message):
    # cyclic:k=3 shares one table among the pairs (a, b) with a + b >= 3;
    # it is validated once (all grades have dimension 2), at the first pair holding it
    H = builtin_algebra("cyclic:k=3,l=2,d=1")
    shared = H.product[2, 2]
    bad = edit(shared)
    product = {k: bad if t is shared else t for k, t in H.product.items()}
    assert sum(t is bad for t in product.values()) == 3
    with pytest.raises(AlgebraStructureError, match=f"^{message}$"):
        _rebuild(H, product=product)


def test_a_shared_crossing_row_list_is_checked_once_per_target_dimension():
    # build_crossed shares crossing[(b, a)] = phi_b over every grade a, so
    # cyclic:k=64 (64 grades of dimension 2) has 64 row lists of 2 rows:
    # 128 row checks, where one check per (b, a) pair would make 8,192
    H = builtin_algebra("cyclic:k=64,l=2,d=1")
    checked = []

    class Row(dict):
        def items(self):
            checked.append(self)
            return super().items()

    lists = {}
    for rows in H.crossing.values():
        lists.setdefault(id(rows), [Row(row) for row in rows])
    assert len(lists) == 64
    _rebuild(H, crossing={key: lists[id(rows)] for key, rows in H.crossing.items()})
    assert len(checked) == 128


def test_a_fault_in_a_shared_crossing_row_is_found():
    H = builtin_algebra("cyclic:k=3,l=2,d=1")
    bad = [{5: Cyclo.one(2)}, *H.crossing[1, 0][1:]]
    crossing = {key: bad if key[0] == 1 else rows for key, rows in H.crossing.items()}
    with pytest.raises(AlgebraStructureError, match="^crossing: index 5 out of range$"):
        _rebuild(H, crossing=crossing)


@pytest.mark.parametrize("field, edit, message", [
    ("antipode", lambda m: [[5, {}], [{}, {}]], "antipode at grade 1 basis 0 is not a sparse map"),
    ("coproduct", lambda m: [[5, {}], [{}, {}]], "coproduct at grade 1 basis 0 is not a sparse map"),
    ("coproduct", lambda m: m[:1], "coproduct not given for grade a"),
], ids=["antipode-entry", "coproduct-entry", "coproduct-grades"])
def test_coproduct_and_antipode_must_be_sparse_maps_per_grade(field, edit, message):
    H = builtin_algebra("cyclic:k=2,l=2,d=0")
    with pytest.raises(AlgebraStructureError, match=f"^{message}$"):
        _rebuild(H, **{field: edit(getattr(H, field))})


def test_missing_product_grade_pair_rejected():
    H = builtin_algebra("cyclic:k=2,l=2,d=0")
    product = dict(H.product)
    del product[(1, 1)]
    with pytest.raises(AlgebraStructureError, match="product table missing"):
        _rebuild(H, product=product)


def test_out_of_range_target_index_rejected():
    H = builtin_algebra("cyclic:k=1,l=2,d=0")
    antipode = [list(H.antipode[0])]
    antipode[0][1] = {5: Cyclo.one(2)}
    with pytest.raises(AlgebraStructureError, match="antipode: index 5 out of range"):
        _rebuild(H, antipode=antipode)


def test_scalar_conductor_must_divide_declared():
    H = builtin_algebra("cyclic:k=1,l=2,d=0")
    unit = {0: Cyclo.zeta(3)}
    with pytest.raises(AlgebraStructureError, match="does not divide"):
        _rebuild(H, unit=unit)


def test_zero_unit_rejected():
    H = builtin_algebra("cyclic:k=1,l=2,d=0")
    with pytest.raises(AlgebraStructureError, match="unit vector is zero"):
        _rebuild(H, unit={})


def test_dims_must_match_group_order():
    H = builtin_algebra("cyclic:k=1,l=2,d=0")
    with pytest.raises(AlgebraStructureError, match="dims length"):
        _rebuild(H, dims=(2, 2))


def test_partial_coproduct_rejected():
    H = builtin_algebra("cyclic:k=1,l=2,d=0")
    with pytest.raises(AlgebraStructureError, match="coproduct not total"):
        _rebuild(H, coproduct=[H.coproduct[0][:1]])


@pytest.mark.parametrize("spec, overrides, message", [
    ("cyclic:k=2,l=2,d=0", {"dims": (2, -1)}, "negative grade dimension"),
    ("cyclic:k=1,l=2,d=0", {"conductor": 0}, "conductor must be positive"),
    ("cyclic:k=2,l=2,d=0", {"dims": (0, 2)}, "dims: dim H_1 must be positive"),
    ("cyclic:k=3,l=2,d=0", {"dims": (2, 2, 0)},
     "dims: supported grades not closed under inverse at a"),
    ("cyclic:k=5,l=1,d=0", {"dims": (1, 1, 0, 0, 1)},
     r"dims: supported grades not closed under product at \(a,a\)"),
    ("cyclic:k=1,l=2,d=0", {"coproduct": [[{(5, 0): Cyclo.one(2)}, {(1, 1): Cyclo.one(2)}]]},
     "coproduct index out of range on grade 1"),
    ("cyclic:k=1,l=2,d=0", {"counit": [[Cyclo.zeta(3), Cyclo.one(2)]]},
     "counit scalar with bad conductor"),
    ("cyclic:k=2,l=2,d=0", {"crossing": {}}, r"crossing missing for \(beta,alpha\)=\(1,1\)"),
], ids=["negative-dim", "conductor", "empty-identity-grade", "inverse-closure",
        "product-closure", "coproduct-index", "counit-conductor", "crossing-missing"])
def test_structure_messages(spec, overrides, message):
    with pytest.raises(AlgebraStructureError, match=f"^{message}$"):
        _rebuild(builtin_algebra(spec), **overrides)


# -- integrals -------------------------------------------------------------------


def test_no_two_sided_integral_raises():
    H = oracles.non_unimodular_h4()
    with pytest.raises(IntegralError, match="dimension 0, not 1"):
        solve_integrals(H)


@pytest.mark.parametrize("count, message", [
    (1, "test space has dimension 2, not 1"),
    (3, None),
    (4, "test space has dimension 0, not 1"),
])
def test_rows_after_rank_d1_minus_1_are_tested_against_the_solution(count, message,
                                                                    monkeypatch):
    # rows 0 and 1 reach rank d1 - 1 = 2, row 2 is their difference, and
    # row 3 arrives after them and is independent; only rows 0 and 1 are
    # reduced, the later ones take one dot product each
    from hopfg import integrals
    from hopfg.integrals import _one_dimensional
    reduced = []
    monkeypatch.setattr(integrals, "echelon_add",
                        lambda *a: reduced.append(a[1]) or echelon_add(*a))
    H = builtin_algebra("cyclic:k=1,l=3,d=0")
    one = H.one()
    rows = [{0: one, 1: -one}, {1: one, 2: -one}, {0: one, 2: -one}, {2: one}][:count]

    def entries(i, mirror):
        k = 2 * i + mirror
        return [(0, c, v) for c, v in rows[k].items()] if k < len(rows) else []

    if message:
        with pytest.raises(IntegralError, match=f"^{message}$"):
            _one_dimensional(H, entries, "test space")
    else:
        x = _one_dimensional(H, entries, "test space")
        assert sorted(x) == [0, 1, 2] and x[0] and x[0] == x[1] == x[2]
    assert len(reduced) == min(count, 2)


def test_primitive_divides_out_the_content():
    # -3/4, (3/2)z, 3/2 + 3z and 3/4: numerators with gcd 3 over the lcm 4
    n = 4
    one, z = Cyclo.one(n), Cyclo.zeta(n)
    x = {0: Cyclo.rational(-3, 4, n), 1: z * Fraction(3, 2),
         2: Cyclo.rational(3, 2, n) + z * 3, 3: Cyclo.rational(3, 4, n)}
    content, y = primitive(x, one)
    assert content == (3, 4)
    assert y == {0: -one, 1: z * 2, 2: 2 + z * 4, 3: one} and y[3] is one
    assert all(v.den == 1 for v in y.values())
    # content 1 still gives the shared one for a 1 that is another object
    content, y = primitive({(0, 1): Cyclo.rational(1, 1, n), (1, 0): z}, one)
    assert content == (1, 1) and y[0, 1] is one and y[1, 0] == z
    assert primitive({}, one) == ((1, 1), {})


@pytest.mark.parametrize("spec", ["kac-paljutkin", "D(S3)", "cyclic:k=3,l=4,d=1"])
def test_the_primitive_product_view_is_exact_and_shared(bank, spec):
    # the fold reads e_i e_j as contents[i][j] times the int entries rows[i][j]
    H = oracles.double_s3() if spec == "D(S3)" else bank(spec)[0]
    views, one = H.primitive_products(), H.one()
    assert H.primitive_products() is views
    assert set(views) == {(a, b) for a in H.support for b in H.support}
    for (a, b), (contents, rows) in views.items():
        table = H.product[a, b]
        for i in range(H.dims[a]):
            for j in range(H.dims[b]):
                k = contents[i][j]
                assert {t: v if k is one else k * v for t, v in rows[i][j].items()} \
                    == table[i][j], (spec, a, b, i, j)
                assert all(v.den == 1 for v in rows[i][j].values())
                assert (rows[i][j] is table[i][j]) == (k is one)  # no copy of an int row
        # a table whose contents are all 1 is its own rows: every one here
        # but kac-paljutkin's, whose z.z is (1/2)(1 + x + y - xy)
        assert (rows is table) == all(k is one for row in contents for k in row) \
            == (spec != "kac-paljutkin")
        # a table shared between grade pairs has one view
        assert all(views[key] is views[a, b] for key in views if H.product[key] is table)
    assert len({id(v) for v in views.values()}) == len({id(t) for t in H.product.values()})


def test_echelon_entries_stay_small_on_dense_rows():
    # 20 seeded dense rows of 48 entries in -3..3: without dividing each
    # appended row by its content these reach 621,808-bit entries (1.5 s);
    # with it, 47 bits
    rng = random.Random(24)
    one = Cyclo.one(1)
    rows = [{c: Cyclo.rational(v) for c in range(48) if (v := rng.randint(-3, 3))}
            for _ in range(20)]
    echelon = []
    for row in rows:
        assert echelon_add(echelon, dict(row), one)
    assert len(echelon) == 20
    assert all(v.den == 1 and abs(c).bit_length() < 128
               for _, row in echelon for v in row.values() for c in v.num)
    combination = {}
    for k, row in enumerate(rows[:5]):
        for c, v in row.items():
            add_into(combination, c, v * (k + 1))
    assert echelon_add(echelon, combination, one) == {} and len(echelon) == 20


def test_zero_counit_on_a_supported_grade_names_the_grade():
    # breaks the counit law (HG4): no grade-a vector translates L_1
    H = builtin_algebra("cyclic:k=2,l=1,d=0")
    zero = Cyclo.zero(H.conductor)
    counit = [list(row) for row in H.counit]
    counit[1] = [zero] * H.dims[1]
    with pytest.raises(IntegralError, match="counit vanishes on grade a"):
        solve_integrals(_rebuild(H, counit=counit))


@pytest.mark.parametrize("build, message", [
    (oracles.dual_numbers, "integral is not normalizable: counit vanishes on it"),
    (oracles.zero_product, "two-sided integral space in grade 1 has dimension 2, not 1"),
    (oracles.cointegral_off_the_integral,
     "cointegral vanishes on the integral, cannot normalize"),
    (lambda: oracles.z2_group_algebra(f_squared=False),
     "left integral law fails at grades (a,a) basis 0"),
    (lambda: oracles.z2_group_algebra(f_times_1=False),
     "right integral law fails at grades (1,a) basis 0"),
], ids=["eps-vanishes", "dimension-2", "lam-vanishes", "left", "right"])
def test_integral_solving_failures(build, message, capsys, tmp_path):
    # in the library, and from a JSON file through the integrals command
    H = build()
    with pytest.raises(IntegralError, match=f"^{re.escape(message)}$"):
        solve_integrals(H)
    path = tmp_path / "algebra.json"
    path.write_text(dumps_canonical(algebra_to_json(H)))
    assert main(["integrals", "--algebra", str(path)]) == 1
    assert capsys.readouterr() == ("", f"verification failure: {message}\n")


def test_cyclic_integrals_closed_form(bank):
    for (k, l, d) in [(1, 1, 0), (2, 3, 1), (3, 4, 2), (1, 6, 5)]:
        H, ints = bank(oracles.spec_of(k, l, d))
        inv_l = Cyclo.rational(1, l, conductor=H.conductor)
        for p in range(k):
            lam = ints.integral(p)
            assert lam.entries == {i: inv_l for i in range(l)}
        expected_lam = [Cyclo.rational(l)] + [Cyclo.zero(1)] * (l - 1)
        assert list(ints.lam_values) == expected_lam


def test_integral_normalization(bank):
    for spec in SPECS:
        H, ints = bank(spec)
        e = H.group.identity
        assert H.counit_raw(e.index, ints.integral(e).entries) == Cyclo.one(1)
        assert oracles.lam(ints, ints.integral(e).entries) == Cyclo.one(1)


def test_lambda_of_unit_is_dimension(bank):
    for spec in SPECS:
        H, ints = bank(spec)
        dim1 = H.dims[H.group.identity_index]
        assert oracles.lam(ints, H.unit) == Cyclo.rational(dim1)


def test_antipode_sends_integral_to_inverse_grade(bank):
    for spec in SPECS:
        H, ints = bank(spec)
        for a in H.group.elements():
            image = apply_rows(H.antipode[a.index], ints.integral(a).entries, H.one())
            assert image == ints.integral(a.inv).entries


def test_crossing_conjugates_integrals(bank):
    for spec in SPECS:
        H, ints = bank(spec)
        for b in H.group.elements():
            for a in H.group.elements():
                rows = H.crossing[b.index, a.index]
                img = apply_rows(rows, ints.integral(a).entries, H.one())
                assert img == ints.integral(b * a * b.inv).entries


def test_lambda_invariant_under_antipode_and_crossing(bank):
    for spec in SPECS:
        H, ints = bank(spec)
        e, one = H.group.identity_index, H.one()
        for i in range(H.dims[e]):
            x = {i: one}
            assert oracles.lam(ints, apply_rows(H.antipode[e], x, one)) == oracles.lam(ints, x)
            for b in range(H.group.order):
                image = apply_rows(H.crossing[b, e], x, one)
                assert oracles.lam(ints, image) == oracles.lam(ints, x)


def test_lambda_is_cyclic_across_inverse_grades(bank):
    for spec in SPECS:
        H, ints = bank(spec)
        one = H.one()
        for a in range(H.group.order):
            ai = H.group.inverses[a]
            for i in range(H.dims[a]):
                for j in range(H.dims[ai]):
                    xy = H.mul_raw(a, ai, {i: one}, {j: one})
                    yx = H.mul_raw(ai, a, {j: one}, {i: one})
                    assert oracles.lam(ints, xy) == oracles.lam(ints, yx)


# -- antipode and R-matrix identities --------------------------------------------


def test_antipode_is_an_involution(bank):
    for spec in SPECS:
        H, _ = bank(spec)
        one = H.one()
        for a in range(H.group.order):
            S, S_inv = H.antipode[a], H.antipode[H.group.inverses[a]]
            for i in range(H.dims[a]):
                assert apply_rows(S_inv, apply_rows(S, {i: one}, one), one) == {i: one}


def test_antipode_is_an_antihomomorphism(bank):
    for spec in SPECS:
        H, _ = bank(spec)
        G, one = H.group, H.one()
        for a in range(G.order):
            for b in range(G.order):
                ai, bi = G.inverses[a], G.inverses[b]
                for i in range(H.dims[a]):
                    for j in range(H.dims[b]):
                        x, y = {i: one}, {j: one}
                        lhs = apply_rows(H.antipode[G.table[a][b]], H.mul_raw(a, b, x, y), one)
                        rhs = H.mul_raw(bi, ai, apply_rows(H.antipode[b], y, one),
                                        apply_rows(H.antipode[a], x, one))
                        assert lhs == rhs


def test_r_matrix_fixed_by_antipode(bank):
    for spec in SPECS:
        H, _ = bank(spec)
        S = slot_rows(H.antipode[H.group.identity_index])
        one = H.one()
        assert apply_rows_at(apply_rows_at(H.rmatrix, 0, S, one), 1, S, one) == H.rmatrix


def test_r_matrix_counit_legs(bank):
    for spec in SPECS:
        H, _ = bank(spec)
        e = H.group.identity_index
        for leg in (0, 1):
            total = {}
            for (i, j), v in H.rmatrix.items():
                kept = j if leg == 0 else i
                other = i if leg == 0 else j
                add_into(total, kept, v * H.counit[e][other])
            assert total == H.unit


def _tensor_mul(H, s, t):
    """The slotwise product of two sparse tensors whose factors are all of
    grade 1."""
    g = (H.group.identity_index,) * len(next(iter(s)))
    return _tensor_mul_raw(H, g, s, g, t)


def test_r_inverse_is_two_sided(bank):
    for spec in SPECS:
        H, _ = bank(spec)
        one = {(0, 0): Cyclo.one(H.conductor)}
        rinv = H.r_inverse_raw()
        assert _tensor_mul(H, H.rmatrix, rinv) == one
        assert _tensor_mul(H, rinv, H.rmatrix) == one


def test_cabling_identities_two_strands(bank):
    # (coproduct (x) id)(R) = R13 R23 and (id (x) coproduct)(R) = R13 R12
    for spec in SPECS:
        H, _ = bank(spec)
        R = H.rmatrix
        lhs = oracles.tensor_coprod_leg(H, R, 0, 2)
        rhs = _tensor_mul(H, embed_two_raw(H, R, 0, 2, 3), embed_two_raw(H, R, 1, 2, 3))
        assert lhs == rhs
        lhs = oracles.tensor_coprod_leg(H, R, 1, 2)
        rhs = _tensor_mul(H, embed_two_raw(H, R, 0, 2, 3), embed_two_raw(H, R, 0, 1, 3))
        assert lhs == rhs


def test_cabling_identities_three_strands(bank):
    for spec in SPECS:
        H, _ = bank(spec)
        R = H.rmatrix
        lhs = oracles.tensor_coprod_leg(H, R, 0, 3)
        rhs = _tensor_mul(H, _tensor_mul(H, embed_two_raw(H, R, 0, 3, 4),
                                         embed_two_raw(H, R, 1, 3, 4)),
                          embed_two_raw(H, R, 2, 3, 4))
        assert lhs == rhs
        lhs = oracles.tensor_coprod_leg(H, R, 1, 3)
        rhs = _tensor_mul(H, _tensor_mul(H, embed_two_raw(H, R, 0, 3, 4),
                                         embed_two_raw(H, R, 0, 2, 4)),
                          embed_two_raw(H, R, 0, 1, 4))
        assert lhs == rhs


def test_apply_rows_at_one_factor_is_apply_rows(bank):
    # the antipode's rows applied at the one leg of a 1-tensor give the
    # antipode of the vector
    H, _ = bank("kac-paljutkin")
    e, one = H.group.identity_index, H.one()
    out = apply_rows_at({(4,): one}, 0, slot_rows(H.antipode[e]), one)
    assert out == {(i,): v for i, v in apply_rows(H.antipode[e], {4: one}, one).items()}


def test_formatting_helpers(bank):
    H, _ = bank("cyclic:k=1,l=3,d=1")
    e = H.group.identity_index
    assert render_scalar(Cyclo.rational(1, 2)) == "1/2"
    assert "g^0" in format_raw_vector(H, e, H.unit)
    assert format_raw_vector(H, e, {}) == "0"


def test_algebra_equality(bank):
    H1 = builtin_algebra("cyclic:k=1,l=3,d=1")
    H2 = builtin_algebra("cyclic:k=1,l=3,d=1")
    H3 = builtin_algebra("cyclic:k=1,l=3,d=2")
    assert H1 == H2
    assert H1 != H3


# -- axiom verifier and Drinfeld element ------------------------------------------


def test_verify_axioms_passes_on_good_algebras(bank):
    from hopfg import verify_axioms

    for spec in SPECS:
        H, _ = bank(spec)
        report = verify_axioms(H)
        assert report.ok
        assert report.failures() == []
        assert len(report.checks) == 20
        assert all(line.startswith("[PASS] ") for line in report.lines())


def test_verify_axioms_catches_broken_antipode():
    from hopfg import verify_axioms

    H = builtin_algebra("cyclic:k=1,l=3,d=1")
    one = Cyclo.one(H.conductor)
    identity_rows = [[{i: one} for i in range(3)]]
    bad = _rebuild(H, antipode=identity_rows)
    report = verify_axioms(bad)
    assert not report.ok
    assert "(HG9) antipode laws" in [name for name, _ in report.failures()]
    assert any(line.startswith("[FAIL] (HG9)") for line in report.lines())


def test_witness_values_are_shown_at_the_algebra_conductor():
    # entries at conductor 3 in an algebra declared at conductor 6: the
    # witness writes both sides in powers of zeta_6 (zeta_3^2 = -zeta_6)
    from hopfg import verify_axioms

    H = builtin_algebra("cyclic:k=1,l=3,d=1")
    counit = [[Cyclo.one(3), Cyclo.zeta(3), Cyclo.one(3)]]
    report = verify_axioms(_rebuild(H, conductor=6, counit=counit))
    assert dict(report.failures())["(HG6) counit multiplicative"] == (
        "grades (1,1) basis (1,1): eps(xy) = 1 but eps(x)eps(y) = -z^1")


def test_drinfeld_element_trivial_when_r_is_trivial(bank):
    from hopfg import drinfeld_element

    for l in (1, 2, 5):
        H, _ = bank(oracles.spec_of(1, l, 0))
        assert drinfeld_element(H) == Graded(H.group.identity, H.unit)


def test_drinfeld_element_cyclic_closed_form(bank):
    # u = sum_a omega^{-a^2} E_a for the order-3 algebra with d=1
    from hopfg import drinfeld_element

    H, _ = bank("cyclic:k=1,l=3,d=1")
    expected = {}
    for a in range(3):
        for i, v in oracles.idempotent(H, a).items():
            add_into(expected, i, v * Cyclo.zeta(3, (-a * a) % 3))
    assert drinfeld_element(H) == Graded(H.group.identity, expected)


def test_drinfeld_element_properties(bank, kp):
    from hopfg import drinfeld_element

    H, _ = kp
    e, one = H.group.identity_index, H.one()
    u = drinfeld_element(H)
    assert u.grade.is_identity()
    u = u.entries
    assert H.counit_raw(e, u) == Cyclo.one(1)
    assert apply_rows(H.antipode[e], u, one) == u
    for i in range(H.dims[e]):
        assert H.mul_raw(e, e, u, {i: one}) == H.mul_raw(e, e, {i: one}, u)


# -- the unit rule: structure constants equal to 1 are the shared one -------------


def _constants(H):
    """(container, key) of every structure constant of H."""
    S = H.support
    maps = [H.unit, H.rmatrix, *(H.counit[a] for a in S)]
    maps += [vec for tab in H.product.values() for row in tab for vec in row]
    maps += [m[a][i] for m in (H.coproduct, H.antipode) for a in S for i in range(H.dims[a])]
    maps += [row for rows in H.crossing.values() for row in rows]
    for m in maps:
        yield from ((m, k) for k in (list(m) if isinstance(m, dict) else range(len(m))))


def _exact(v):
    return (v.n, v.num, v.den)


def _fresh_ones(spec):
    """The builtin spec with every constant equal to 1 a new Cyclo(n, {0: 1})."""
    H = builtin_algebra(spec)
    replaced = 0
    for m, k in _constants(H):
        if m[k] == 1:
            m[k] = Cyclo(H.conductor, {0: 1})
            replaced += 1
    assert replaced and not any(m[k] is H.one() for m, k in _constants(H))
    return H


@pytest.mark.parametrize("spec", ["kac-paljutkin", "cyclic:k=2,l=4,d=1"])
def test_unit_skip_is_only_a_fast_path(spec):
    from hopfg import builtin_diagram, builtin_diagram_names, drinfeld_element, \
        evaluate_summed, verify_axioms

    canonical, fresh = builtin_algebra(spec), _fresh_ones(spec)
    assert verify_axioms(fresh).lines() == verify_axioms(canonical).lines()
    ic, ifr = solve_integrals(canonical), solve_integrals(fresh)
    for a in canonical.support:
        assert ({i: _exact(v) for i, v in ifr.integrals[a].items()}
                == {i: _exact(v) for i, v in ic.integrals[a].items()})
    assert list(map(_exact, ifr.lam_values)) == list(map(_exact, ic.lam_values))
    assert ({i: _exact(v) for i, v in drinfeld_element(fresh).entries.items()}
            == {i: _exact(v) for i, v in drinfeld_element(canonical).entries.items()})
    for name in builtin_diagram_names():
        d = builtin_diagram(name)
        want, got = evaluate_summed(canonical, ic, d), evaluate_summed(fresh, ifr, d)
        assert _exact(got.total) == _exact(want.total), name
        assert ([_exact(v.bracket) for v in got.values]
                == [_exact(v.bracket) for v in want.values]), name


@pytest.mark.parametrize("spec", ["kac-paljutkin", "cyclic:k=2,l=4,d=1",
                                  "cyclic:k=3,l=6,d=1", "cyclic:k=1,l=1,d=0"])
def test_built_and_loaded_constants_equal_to_one_are_shared(spec):
    from hopfg import algebra_from_json, algebra_to_json

    assert Cyclo.one(6) is Cyclo.one(6)
    H = builtin_algebra(spec)
    loaded = algebra_from_json(algebra_to_json(H))
    for alg in (H, loaded):
        units = [m[k] for m, k in _constants(alg) if m[k] == 1]
        assert units and all(v is Cyclo.one(alg.conductor) for v in units), spec


def test_unit_skip_op_counts(monkeypatch):
    # Deterministic guards of the unit rule and of the load's scalar memo:
    # the full sweep of every axiom check at cyclic:k=3,l=6,d=1 made 72,241
    # Cyclo multiplications before it and 11,145 with it, 10,694 since the
    # tensor kernel; the bound is that count plus 10%.
    from hopfg import algebra_from_json, algebra_to_json, serialize
    from hopfg.verify import CHECKS

    H = builtin_algebra("cyclic:k=3,l=6,d=1")
    calls = {"mul": 0, "parse": 0}
    mul, parse = Cyclo.__mul__, serialize.parse_scalar

    def counted_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counted_parse(text, conductor):
        calls["parse"] += 1
        return parse(text, conductor)

    monkeypatch.setattr(Cyclo, "__mul__", counted_mul)
    monkeypatch.setattr(Cyclo, "__rmul__", counted_mul)
    assert all(sweep(H) is None for _, sweep in CHECKS.values())
    assert calls["mul"] <= 11_763
    monkeypatch.undo()

    obj = algebra_to_json(H)
    fields = ("unit", "product", "coproduct", "counit", "antipode", "crossing", "rmatrix")
    lists = {tuple(x for x in inner if isinstance(x, str))
             for f in fields for block in obj[f]
             for inner in [block[-1] if isinstance(block[-1], list) else block]}
    monkeypatch.setattr(serialize, "parse_scalar", counted_parse)
    assert algebra_from_json(obj) == H
    assert calls["parse"] == sum(map(len, lists)) == 9


def _random_tensor(H, rng, grades):
    """A seeded sparse tensor over the given grade indices: factors of
    grade 1 are often a basis vector of the unit, and scalars are often
    the shared one, a 1 that is another object, or a root of unity."""
    n, e = H.conductor, H.group.identity_index
    scalars = [Cyclo.one(n), Cyclo.rational(1, 1, n), Cyclo.rational(-2, 3, n), Cyclo.zeta(n)]
    units = sorted(H.unit)
    out = {}
    for _ in range(rng.randint(1, 5)):
        key = tuple(rng.choice(units) if g == e and rng.random() < 0.5
                    else rng.randrange(H.dims[g]) for g in grades)
        out[key] = rng.choice(scalars)
    return out


@pytest.mark.parametrize("spec", ["kac-paljutkin", "cyclic:k=3,l=4,d=1", "broken-product.json"])
def test_tensor_mul_matches_the_term_by_term_product(spec):
    # broken-product.json fails the unit law (e_1 1 = e_2), so a slot at
    # the unit's basis index is an identity map there only if the table
    # says so: skipping it on sight changes these products
    golden = Path(__file__).parent / "golden"
    H = resolve_algebra(str(golden / spec)) if spec.endswith(".json") else builtin_algebra(spec)
    rng = random.Random(13)
    for arity in range(1, 5):
        for _ in range(30):
            ga, gb = (tuple(rng.choice(H.support) for _ in range(arity)) for _ in range(2))
            s, t = _random_tensor(H, rng, ga), _random_tensor(H, rng, gb)
            assert _tensor_mul_raw(H, ga, s, gb, t) == oracles.ref_tensor_mul(H, ga, s, gb, t), \
                (arity, ga, gb, s, t)


def test_tensor_kernel_op_count(monkeypatch):
    # Deterministic guard of the slotwise tensor kernel and its identity
    # skip: the full sweep of every axiom check at kac-paljutkin made 23,251
    # Cyclo multiplications with the pairwise product loop and 13,522 with
    # it (13,442 since (HG4) applies the counit through apply_rows_at).
    from hopfg.verify import CHECKS

    H = builtin_algebra("kac-paljutkin")
    calls = [0]
    mul = Cyclo.__mul__

    def counted_mul(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Cyclo, "__mul__", counted_mul)
    monkeypatch.setattr(Cyclo, "__rmul__", counted_mul)
    assert all(sweep(H) is None for _, sweep in CHECKS.values())
    assert calls[0] <= 13_522
