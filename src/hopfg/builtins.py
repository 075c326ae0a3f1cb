"""Built-in involutory quasitriangular Hopf G-algebras, each a crossed
product (``build_crossed``) of a Hopf algebra A by G with every H_a = A:
  * build_cyclic(k, l, d): the group ring of Z_{kl} sliced into a Hopf
    Z_k-algebra whose grade p has basis g^p, g^{k+p}, ..., g^{(l-1)k+p}:
    A = C[Z_l] generated by h = g^k with the R-matrix indexed by d, the
    trivial action and crossing, and the carry of Z_{kl} -> Z_k as cocycle.
  * build_kac_paljutkin(): the 8-dimensional algebra generated by x, y, z
    with z^2 = (1+x+y-xy)/2, graded over Z_2 = {1, mu} where mu acts as
    conjugation by x; the crossing by mu is nontrivial.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from fractions import Fraction

from .algebra import MAX_CONDUCTOR, MAX_DIMENSION, MAX_GROUP_ORDER, HopfGAlgebra, apply_rows
from .cyclo import Cyclo, _fold, _make
from .groups import cyclic_group, group_from_table

# A Hopf algebra with basis 0..dim-1 and Fraction or Cyclo scalars at the
# conductor: mul(i, j) and coproduct(i) give sparse dicts, unit is sparse,
# counit a list, antipode a basis permutation and rmatrix {(i, j): scalar}.
HopfData = namedtuple(
    "HopfData", "dim conductor mul unit coproduct counit antipode rmatrix")


def build_crossed(G, A: HopfData, phi, sigma, names, name: str) -> HopfGAlgebra:
    """The crossed product of A by G: H_a = A, x_a y_b = x phi_a(y) sigma(a, b),
    S_a(x) = phi_{a^-1}(S(x)) S(sigma(a^-1, a)) and the crossing by b is phi_b.
    phi[a][i] is the basis permutation phi_a, a Hopf automorphism of A that
    fixes R, and sigma(a, b), a 2-cocycle, is the index of a central
    grouplike or None for 1.  The table of (a, b) depends only on
    (phi_a, sigma(a, b)), and each distinct one is built once and shared."""
    cond, n, grades = A.conductor, A.dim, range(G.order)
    S, inv, one = A.antipode, G.inverses, Cyclo.one(cond)

    def lift(sparse):
        # Fraction or Cyclo values at cond, zeros dropped and 1 the shared one
        return {key: one if v == 1 else one * v for key, v in sparse.items() if v}

    def mul(i, j, s):
        # e_i e_j e_s, with s None read as 1
        x = A.mul(i, j)
        if s is not None:
            x = apply_rows({t: A.mul(t, s) for t in x}, x, one)
        return lift(x)

    tables, product = {}, {}
    for a in grades:
        phi_a = tuple(phi[a])
        for b in grades:
            key = (phi_a, sigma(a, b))
            if key not in tables:
                tables[key] = [[mul(i, phi_a[j], key[1]) for j in range(n)] for i in range(n)]
            product[a, b] = tables[key]
    antipode = []
    for a in grades:
        s = sigma(inv[a], a)
        sx = [phi[inv[a]][S[i]] for i in range(n)]
        antipode.append([{x: one} if s is None else mul(x, S[s], None) for x in sx])
    phi_rows = [[{phi[b][i]: one} for i in range(n)] for b in grades]
    crossing = {(b, a): phi_rows[b] for b in grades for a in grades}
    coproduct = [lift(A.coproduct(i)) for i in range(n)]
    counit = [one if c == 1 else one * c for c in A.counit]
    return HopfGAlgebra(
        G, (n,) * G.order, cond, product, lift(A.unit), [coproduct] * G.order,
        [counit] * G.order, antipode, crossing, lift(A.rmatrix),
        basis_names=names, name=name,
    )


def cyclic_ring(l: int, d: int) -> HopfData:
    """C[Z_l] with basis h^0, ..., h^{l-1} and the Gauss-pairing R-matrix
    R = (1/l) sum_{i,j} zeta_l^{-ij} h^i (x) h^{dj}, at conductor l: each
    entry counts its powers of zeta_l and is made a scalar once."""
    counts = defaultdict(Counter)  # (i, dj) -> {exponent: number of j giving it}
    for i in range(l):
        for j in range(l):
            counts[i, d * j % l][-i * j % l] += 1
    rmatrix = {key: v for key, c in counts.items() if (v := _make(l, _fold(l, c.items()), l))}
    return HopfData(l, l, lambda i, j: {(i + j) % l: 1}, {0: 1}, lambda i: {(i, i): 1},
                    [1] * l, [-i % l for i in range(l)], rmatrix)


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
    # grade p, index i is g^{ik+p}, and g^p g^q = h g^{p+q-k} when p + q >= k
    return build_crossed(
        cyclic_group(k), cyclic_ring(l, d), [range(l)] * k,
        lambda p, q: 1 % l if p + q >= k else None,
        [[f"g^{i * k + p}" for i in range(l)] for p in range(k)],
        f"cyclic:k={k},l={l},d={d}")


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


def build_kac_paljutkin() -> HopfGAlgebra:
    # S on monomials: identity for c = 0, swap the x and y exponents for c = 1
    h = Fraction(1, 2)
    kp = HopfData(8, 4, _kp_mul, {0: 1}, _kp_coproduct, [1] * 8,
                  [_kp_swap(i) if i & 4 else i for i in range(8)],
                  {(0, 0): h, (1, 0): h, (0, 2): h, (1, 2): -h})
    mono = ["1", "x", "y", "xy", "z", "xz", "yz", "xyz"]
    return build_crossed(
        group_from_table([[0, 1], [1, 0]], names=["1", "mu"]), kp,
        [range(8), [_kp_mu(i) for i in range(8)]], lambda a, b: None,
        [mono, mono], "kac-paljutkin")


def builtin_algebra(spec: str) -> HopfGAlgebra:
    """Resolve a builtin algebra name like 'cyclic:k=2,l=3,d=1'."""
    if spec == "kac-paljutkin":
        return build_kac_paljutkin()
    if spec.startswith("cyclic:"):
        params = {}
        for part in spec[len("cyclic:"):].split(","):
            if "=" not in part:
                raise ValueError(f"bad cyclic parameter {part!r}")
            key, _, value = map(str.strip, part.partition("="))
            if key in params:
                raise ValueError(f"cyclic parameter {key!r} given twice")
            params[key] = value
        if set(params) != {"k", "l", "d"}:
            raise ValueError("cyclic algebra needs exactly k=, l=, d=")
        try:
            k, l, d = int(params["k"]), int(params["l"]), int(params["d"])
        except ValueError:
            raise ValueError("cyclic parameters must be integers") from None
        return build_cyclic(k, l, d)
    raise ValueError(f"unknown builtin algebra {spec!r}")
