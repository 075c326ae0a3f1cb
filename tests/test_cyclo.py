"""Exact cyclotomic arithmetic: identities, field laws, parse/render."""

from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hopfg.cyclo import (
    Cyclo,
    cyclotomic_polynomial,
    parse_scalar,
    render_decimal,
    render_scalar,
    render_scalar_terms,
)

_frac = st.fractions(min_value=-4, max_value=4, max_denominator=8)
_elem12 = st.dictionaries(
    st.integers(min_value=0, max_value=11), _frac, max_size=4
).map(lambda d: Cyclo(12, d))
_elem4 = st.dictionaries(
    st.integers(min_value=0, max_value=3), _frac, max_size=3
).map(lambda d: Cyclo(4, d))


def test_zeta4_squared_is_minus_one():
    i = Cyclo.zeta(4)
    assert i * i == Cyclo.rational(-1)


def test_third_roots_of_unity_sum_to_zero():
    z = Cyclo.zeta(3)
    assert Cyclo.one(3) + z + z * z == Cyclo.zero(3)


def test_norm_of_one_plus_two_zeta3_over_three():
    v = (Cyclo.one(3) + Cyclo.rational(2) * Cyclo.zeta(3)) * Cyclo.rational(1, 3)
    assert v * v.conjugate() == Cyclo.rational(1, 3)


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in range(1, 31):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == [int(c) for c in reversed(theirs)]


def test_gauss_sum_at_conductor_five():
    # (sum zeta_5^{j^2})^2 = 5 for the quadratic Gauss sum mod 5
    s = sum((Cyclo.zeta(5, (j * j) % 5) for j in range(5)), Cyclo.zero(5))
    assert s * s == Cyclo.rational(5)


@given(_elem12, _elem12, _elem12)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Cyclo.zero(12) == a
    assert a * Cyclo.one(12) == a
    assert a - a == Cyclo.zero(12)


@settings(deadline=None, max_examples=10)
@given(st.data())
def test_multiplicative_inverse(data):
    # one drawn element at every conductor from 1 to 60 per example
    for n in range(1, 61):
        a = Cyclo(n, data.draw(st.dictionaries(st.integers(0, n - 1), _frac, max_size=4)))
        if not a:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == Cyclo.one(n), (n, a)


def test_inverse_at_the_largest_conductor():
    # three terms at n = 2520, where phi(n) = 576: about a second
    a = Cyclo(2520, {1: Fraction(1, 2), 700: 3, 1999: Fraction(-2, 3)})
    assert a * a.inverse() == Cyclo.one(2520)


@given(_elem4, _elem4)
def test_conductor_embedding_is_a_ring_homomorphism(a, b):
    assert (a + b).lift(12) == a.lift(12) + b.lift(12)
    assert (a * b).lift(12) == a.lift(12) * b.lift(12)
    assert a.lift(12) == a  # equality aligns conductors itself


def test_lift_requires_divisible_conductor():
    with pytest.raises(ValueError):
        Cyclo.zeta(4).lift(6)


@given(_elem12)
def test_conjugation_is_a_ring_involution(a):
    assert a.conjugate().conjugate() == a
    b = Cyclo(12, {1: Fraction(1, 2), 7: Fraction(-3)})
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(_elem12)
def test_parse_render_round_trip(a):
    terms = render_scalar_terms(a)
    if not terms:
        assert render_scalar(a) == "0"
        return
    assert parse_scalar("+".join(terms), 12) == a


def test_parse_scalar_forms():
    assert parse_scalar("1/2", 4) == Cyclo.rational(1, 2)
    assert parse_scalar("zeta^3", 8) == Cyclo.zeta(8, 3)
    assert parse_scalar("-2/3*zeta^2", 9) == Cyclo.rational(-2, 3) * Cyclo.zeta(9, 2)
    assert parse_scalar("1+zeta", 3) == Cyclo.one(3) + Cyclo.zeta(3)
    with pytest.raises(ValueError):
        parse_scalar("nonsense", 4)
    with pytest.raises(ValueError):
        parse_scalar("", 4)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0*zeta^0", 4)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Cyclo(4, {0: 0.5})


def test_exponents_reduce_mod_phi():
    # zeta_4^2 = -1 must be stored in reduced canonical form
    v = Cyclo(4, {2: 1})
    assert v == Cyclo.rational(-1)
    assert v.c == {0: Fraction(-1)}


def test_rational_predicates():
    assert Cyclo.rational(7, 3, conductor=12).is_rational()
    assert Cyclo.rational(7, 3).as_fraction() == Fraction(7, 3)
    z = Cyclo.zeta(3)
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_fraction()


def test_power_and_division():
    z = Cyclo.zeta(5)
    assert z ** 5 == Cyclo.one(5)
    assert z ** -2 == z ** 3
    assert (Cyclo.rational(3) / Cyclo.rational(4)) == Cyclo.rational(3, 4)


def test_render_decimal():
    assert render_decimal(Cyclo.rational(1, 3)) == "0.333333333333"
    assert render_decimal(Cyclo.zeta(4)) == "0.000000000000 + 1.000000000000i"
    assert render_decimal(-Cyclo.zeta(4)) == "0.000000000000 - 1.000000000000i"


def test_render_decimal_past_the_float_range():
    big = 2**1100  # about 1.358e+331
    m = f"{big / 10**331:.12f}"
    assert render_decimal(Cyclo.rational(-big)) == f"-{m}e+331"
    assert render_decimal(Cyclo.rational(big, 3**700)) == f"{big / 3**700:.12f}"
    assert render_decimal(Cyclo.rational(1, big)) == "0.000000000000"
    assert render_decimal(Cyclo(4, {0: big, 1: -big})) == f"{m}e+331 - {m}e+331i"
    assert render_decimal(Cyclo(4, {1: big})) == f"0.000000000000 + {m}e+331i"
    # each coefficient fits in a float, but the real part 3a/2 of a(1 - zeta_3) does not
    a = 3 * 2**1022
    real, im = render_decimal(Cyclo(3, {0: a, 1: -a})).split(" - ")
    assert real == f"{3 * a // 2 / 10**308:.12f}e+308"
    assert im.endswith("e+308i") and abs(float(im[:-1]) - a // 2 * 3**0.5) < 1e296


def test_bad_conductor_rejected():
    with pytest.raises(ValueError):
        Cyclo(0, {})
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_polynomials_match_sympy_to_200_and_spot_values():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for n in list(range(1, 201)) + [210, 1155, 2520]:
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(ours) == [int(c) for c in reversed(theirs)], n


_REF_CONDUCTORS = list(range(1, 17)) + [2520]


def _ref_element(data, n):
    """A random Cyclo at conductor n and its sparse reference value."""
    terms = data.draw(st.dictionaries(
        st.integers(min_value=-2 * n, max_value=2 * n), _frac, max_size=4))
    return Cyclo(n, terms), (n, oracles.ref_reduce(n, terms))


def _assert_matches(x, ref):
    assert (x.n, x.c) == ref


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_dense_cyclo_matches_sparse_reference(data):
    n1 = data.draw(st.sampled_from(_REF_CONDUCTORS))
    # conductor pairs whose lcm stays within 2520 (any two of 1..16, or
    # 2520 with one of its divisors)
    n2 = data.draw(st.sampled_from(
        [m for m in _REF_CONDUCTORS if lcm(n1, m) <= 2520]))
    a, ra = _ref_element(data, n1)
    b, rb = _ref_element(data, n2)
    _assert_matches(a, ra)
    _assert_matches(b, rb)
    _assert_matches(a + b, oracles.ref_add(ra, rb))
    _assert_matches(a - b, oracles.ref_add(ra, oracles.ref_neg(rb)))
    _assert_matches(a * b, oracles.ref_mul(ra, rb))
    assert (a == b) == oracles.ref_equal(ra, rb)
    _assert_matches(a.conjugate(), oracles.ref_conjugate(ra))
    m = lcm(n1, n2)
    _assert_matches(a.lift(m), oracles.ref_lift(ra, m))
    assert render_scalar(a) == render_scalar(SimpleNamespace(c=ra[1]))
    assert render_scalar_terms(a) == render_scalar_terms(SimpleNamespace(c=ra[1]))
    # the inverse at n = 2520 is a Euclid of degree 576 that takes about a
    # second (see test_inverse_at_the_largest_conductor), so there a is
    # divided by a rational only
    if m == 2520:
        b, rb = Cyclo.rational(3, 7, conductor=m), (m, {0: Fraction(3, 7)})
    if b:
        q = a / b
        assert q.n == m
        assert oracles.ref_equal(oracles.ref_mul((q.n, q.c), rb), ra)
