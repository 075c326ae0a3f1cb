"""Built-in involutory quasitriangular Hopf G-algebras.

Two families:
  * build_cyclic(k, l, d): group ring of Z_{kl} sliced into a Hopf
    Z_k-algebra whose grade p has basis g^p, g^{k+p}, ..., g^{(l-1)k+p},
    with the trivial crossing and the R-matrix indexed by d.
  * build_kac_paljutkin(): the 8-dimensional algebra generated by
    x, y, z with z^2 = (1+x+y-xy)/2, graded over Z_2 = {1, mu} where mu
    is conjugation by x; the crossing by mu is nontrivial.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MAX_CONDUCTOR, MAX_DIMENSION, MAX_GROUP_ORDER, HopfGAlgebra
from .cyclo import Cyclo
from .groups import cyclic_group, group_from_table


def build_cyclic(k: int, l: int, d: int) -> HopfGAlgebra:
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")
    if not 0 <= d < l:
        raise ValueError("d must satisfy 0 <= d < l")
    # k is the group order, l the conductor and k*l the dimension
    if k > MAX_GROUP_ORDER:
        raise ValueError(f"k={k} exceeds the group order cap {MAX_GROUP_ORDER}")
    if l > MAX_CONDUCTOR:
        raise ValueError(f"l={l} exceeds the conductor cap {MAX_CONDUCTOR}")
    if k * l > MAX_DIMENSION:
        raise ValueError(f"k*l={k * l} exceeds the dimension cap {MAX_DIMENSION}")
    m = k * l
    G = cyclic_group(k)
    cond = l
    one = Cyclo.one(cond)

    def exp_to_pair(e):
        # exponent e of g, 0 <= e < m, lives in grade e % k at index e // k
        return e % k, e // k

    product = {}
    for p in range(k):
        for q in range(k):
            tab = {}
            for i in range(l):
                for j in range(l):
                    e = ((i + j) * k + p + q) % m
                    tab[(i, j)] = {e // k: one}
            product[(p, q)] = tab

    unit = {0: one}
    coproduct = [[{(i, i): one} for i in range(l)] for _ in range(k)]
    counit = [[one] * l for _ in range(k)]

    antipode = []
    for p in range(k):
        rows = []
        for i in range(l):
            se = (-(i * k + p)) % m
            grade, idx = exp_to_pair(se)
            assert grade == (-p) % k
            rows.append({idx: one})
        antipode.append(rows)

    identity_rows = [{i: one} for i in range(l)]
    crossing = {(b, p): identity_rows for b in range(k) for p in range(k)}

    rmatrix = {}
    inv_l = Cyclo.rational(1, l, conductor=cond)
    for i in range(l):
        for j in range(l):
            key = (i, (d * j) % l)
            term = inv_l * Cyclo.zeta(cond, (-i * j) % l)
            acc = rmatrix.get(key)
            rmatrix[key] = term if acc is None else acc + term
    rmatrix = {key: one if v == 1 else v for key, v in rmatrix.items() if v}

    names = [[f"g^{i * k + p}" for i in range(l)] for p in range(k)]
    return HopfGAlgebra(
        G, (l,) * k, cond, product, unit, coproduct, counit, antipode,
        crossing, rmatrix, basis_names=names, name=f"cyclic:k={k},l={l},d={d}",
    )


# -- Kac-Paljutkin ------------------------------------------------------------
#
# Monomial x^a y^b z^c is stored at index a + 2b + 4c, so the basis reads
# 1, x, y, xy, z, xz, yz, xyz.  mu toggles both exponents a and b of
# monomials with c = 1 and fixes those with c = 0.


def _kp_mu(i: int) -> int:
    if i & 4:
        return (i ^ 3) | 4
    return i


def _kp_swap(i: int) -> int:
    # exchange the x and y exponents
    a, b = i & 1, (i >> 1) & 1
    return (i & 4) | (a << 1) | b


def _kp_mul(i: int, j: int) -> dict:
    """Product of two monomials as {index: Fraction}."""
    a, b, c = i & 1, (i >> 1) & 1, (i >> 2) & 1
    a2, b2, c2 = j & 1, (j >> 1) & 1, (j >> 2) & 1
    if c == 0:
        return {(a ^ a2) | ((b ^ b2) << 1) | (c2 << 2): Fraction(1)}
    # move z across the second monomial: z x = y z and z y = x z
    aa, bb = a ^ b2, b ^ a2
    if c2 == 0:
        return {aa | (bb << 1) | 4: Fraction(1)}
    # z^2 = (1 + x + y - xy)/2
    h = Fraction(1, 2)
    base = aa | (bb << 1)
    return {
        base: h,
        base ^ 1: h,
        base ^ 2: h,
        base ^ 3: -h,
    }


def _kp_coproduct(i: int) -> dict:
    if not i & 4:
        return {(i, i): Fraction(1)}
    left = i ^ 2   # extra y in the first leg
    right = i ^ 1  # extra x in the second leg
    h = Fraction(1, 2)
    return {(i, i): h, (i, right): h, (left, i): h, (left, right): -h}


def _lift(frak: dict, cond: int) -> dict:
    """Fraction-valued sparse map to Cyclo values at conductor cond, zeros
    dropped and 1 the shared Cyclo.one."""
    return {key: Cyclo.one(cond) if v == 1 else Cyclo.rational(v, conductor=cond)
            for key, v in frak.items() if v}


def build_kac_paljutkin() -> HopfGAlgebra:
    G = group_from_table([[0, 1], [1, 0]], names=["1", "mu"])
    cond = 4
    one = Cyclo.one(cond)

    product = {}
    for ga in range(2):
        for gb in range(2):
            tab = {}
            for i in range(8):
                for j in range(8):
                    jj = _kp_mu(j) if ga == 1 else j
                    tab[(i, j)] = _lift(_kp_mul(i, jj), cond)
            product[(ga, gb)] = tab

    unit = {0: one}
    coproduct = [[_lift(_kp_coproduct(i), cond) for i in range(8)] for _ in range(2)]
    counit = [[one] * 8 for _ in range(2)]

    # S on monomials: identity for c = 0, swap the x and y exponents for
    # c = 1; the grade-mu copy composes with mu itself
    s_plain = [{_kp_swap(i) if i & 4 else i: one} for i in range(8)]
    s_mu = [{_kp_mu(_kp_swap(i)) if i & 4 else i: one} for i in range(8)]
    antipode = [s_plain, s_mu]

    identity_rows = [{i: one} for i in range(8)]
    mu_rows = [{_kp_mu(i): one} for i in range(8)]
    crossing = {
        (0, 0): identity_rows,
        (0, 1): identity_rows,
        (1, 0): mu_rows,
        (1, 1): mu_rows,
    }

    h = Cyclo.rational(1, 2, conductor=cond)
    rmatrix = {(0, 0): h, (1, 0): h, (0, 2): h, (1, 2): -h}

    mono = ["1", "x", "y", "xy", "z", "xz", "yz", "xyz"]
    return HopfGAlgebra(
        G, (8, 8), cond, product, unit, coproduct, counit, antipode,
        crossing, rmatrix, basis_names=[mono, mono], name="kac-paljutkin",
    )


def builtin_algebra(spec: str) -> HopfGAlgebra:
    """Resolve a builtin algebra name like 'cyclic:k=2,l=3,d=1'."""
    if spec == "kac-paljutkin":
        return build_kac_paljutkin()
    if spec.startswith("cyclic:"):
        params = {}
        for part in spec[len("cyclic:"):].split(","):
            if "=" not in part:
                raise ValueError(f"bad cyclic parameter {part!r}")
            key, _, value = part.partition("=")
            params[key.strip()] = value.strip()
        if set(params) != {"k", "l", "d"}:
            raise ValueError("cyclic algebra needs exactly k=, l=, d=")
        try:
            k, l, d = int(params["k"]), int(params["l"]), int(params["d"])
        except ValueError:
            raise ValueError("cyclic parameters must be integers") from None
        return build_cyclic(k, l, d)
    raise ValueError(f"unknown builtin algebra {spec!r}")
