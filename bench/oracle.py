"""Closed-form invariant of the cyclic family, kept apart from the engine.

For the algebra ``cyclic:k=K,l=L,d=D`` and a diagram in hopfg's JSON
form (the shape ``hopfg export --diagram`` writes) colored by integers
alpha[dot] in 0..K-1, the invariant is

    I = L^(#dotted - #undotted) * sum over x in Z_L^undotted with
        sum_{passages of each dot} (+-) x_u == 0 (mod L)
        of zeta_L^(D * sum_crossings sign * x_over * x_under
                   + sum_u x_u * m_u),

where +- is + for a downward passage and
m_u = (sum over the passages of u of +-alpha_dot) / K.

Exponent counts are summed in plain integers and reduced modulo the L-th
cyclotomic polynomial by the few lines below, so nothing here imports
hopfg.  Values come back as {power: Fraction} in the power basis
1, z, ..., z^(phi(L)-1), the canonical form of hopfg's scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class OracleError(ValueError):
    """The coloring is not flat, so the closed form does not apply."""


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple:
    """Integer coefficients of Phi_n, ascending: (x^n - 1) / prod Phi_d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide(poly, cyclotomic(d))
    return tuple(poly)


def _divide(num: list, den: tuple) -> list:
    """Exact quotient of integer polynomials, den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + len(den) - 1]
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return out


def reduce_counts(counts: list, n: int) -> dict:
    """sum counts[e] * zeta_n^e as {power: int} with powers < phi(n)."""
    phi = cyclotomic(n)
    deg = len(phi) - 1
    c = list(counts)
    for e in range(len(c) - 1, deg - 1, -1):
        lead = c[e]
        if lead:
            for j, p in enumerate(phi):
                c[e - deg + j] -= lead * p
    return {e: v for e, v in enumerate(c[:deg]) if v}


def _structure(diagram: dict):
    """Crossing couplings, dot constraint rows and passage lists per
    component, in undotted list order."""
    comps = [u["id"] for u in diagram["undotted"]]
    sign = {c["id"]: (1 if c["sign"] == "+" else -1) for c in diagram["crossings"]}
    over, under = {}, {}
    passages = [[] for _ in comps]  # (dot id, +1 down / -1 up)
    dot_rows = {x["id"]: [0] * len(comps) for x in diagram["dotted"]}
    for i, u in enumerate(diagram["undotted"]):
        for kind, ref in u["events"]:
            if kind == "over":
                over[ref] = i
            elif kind == "under":
                under[ref] = i
            else:
                s = 1 if kind == "down" else -1
                passages[i].append((ref, s))
                dot_rows[ref][i] += s
    quad = {}
    for cid, s in sign.items():
        key = (min(over[cid], under[cid]), max(over[cid], under[cid]))
        quad[key] = quad.get(key, 0) + s
    return len(comps), quad, list(dot_rows.values()), passages


def cyclic_value(diagram: dict, K: int, L: int, D: int, alphas: dict) -> dict:
    """The closed form above as {power: Fraction}; alphas maps dot id to
    its color index in 0..K-1."""
    n, quad, rows, passages = _structure(diagram)
    m = []
    for plist in passages:
        total = sum(s * alphas[dot] for dot, s in plist)
        if total % K:
            raise OracleError("coloring is not flat")
        m.append(total // K)

    # depth-first over x_0, x_1, ...: at depth i add the terms of x_i with
    # x_0..x_i, and test each dot row whose last component is i
    square = [D * quad.get((i, i), 0) for i in range(n)]
    earlier = [[(j, D * q) for (j, k), q in quad.items() if k == i and j < i] for i in range(n)]
    due = [[] for _ in range(n)]
    for row in rows:
        live = [i for i, c in enumerate(row) if c]
        if live:
            due[live[-1]].append(row)
    counts = [0] * L
    x = [0] * n

    def walk(i: int, expo: int):
        if i == n:
            counts[expo % L] += 1
            return
        lin = m[i] + sum(q * x[j] for j, q in earlier[i])
        for v in range(L):
            x[i] = v
            if any(sum(c * x[j] for j, c in enumerate(row[:i + 1])) % L for row in due[i]):
                continue
            walk(i + 1, expo + v * (lin + square[i] * v))

    walk(0, 0)
    scale = Fraction(L) ** (len(rows) - n)
    return {e: scale * c for e, c in reduce_counts(counts, L).items()}


def parse_terms(terms: list) -> dict:
    """hopfg's JSON scalar terms ['a/b*zeta^e', ...] as {power: Fraction}."""
    out = {}
    for t in terms:
        rat, _, power = t.partition("*zeta^")
        out[int(power)] = out.get(int(power), 0) + Fraction(rat)
    return {e: v for e, v in out.items() if v}
