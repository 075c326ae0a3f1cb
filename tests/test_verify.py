"""Axiom checks by proof: the generating set, each proof against its full
sweep on perturbed algebras, and an algebra for each precondition that
shows a proof would misreport without it."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from hopfg import HopfGAlgebra, builtin_algebra, verify_axioms
from hopfg.algebra import add_into
from hopfg.cyclo import Cyclo
from hopfg.verify import CHECKS, PROOFS, AxiomReport, generators

KP = "kac-paljutkin"
GRID = [f"cyclic:k={k},l={l},d={d}" for k in (1, 2, 3) for l in range(1, 7) for d in range(l)]
SPECS = [KP, "cyclic:k=2,l=3,d=1", "cyclic:k=3,l=2,d=1"]
FIELDS = ("product", "coproduct", "counit", "rmatrix", "crossing")


def _copy(H):
    """The constructor arguments of H, every table a fresh copy."""
    return dict(
        group=H.group, dims=H.dims, conductor=H.conductor, name=H.name,
        product={k: [[dict(v) for v in row] for row in t] for k, t in H.product.items()},
        unit=dict(H.unit), coproduct=[[dict(v) for v in rows] for rows in H.coproduct],
        counit=[list(c) for c in H.counit],
        antipode=[[dict(v) for v in rows] for rows in H.antipode],
        crossing={k: [dict(v) for v in rows] for k, rows in H.crossing.items()},
        rmatrix=dict(H.rmatrix))


def _edited(H, *edits):
    """H with each (field, path, key, value) of edits added in: value goes
    to entry key of the sparse map the path leads to in that field, or to
    the scalar counit[a][i] for the path (a, i)."""
    parts = _copy(H)
    for field, path, key, value in edits:
        if not isinstance(value, Cyclo):
            value = Cyclo.rational(value, conductor=H.conductor)
        if field == "counit":
            a, i = path
            parts["counit"][a][i] = parts["counit"][a][i] + value
            continue
        target = parts[field]
        for step in path:
            target = target[step]
        add_into(target, key, value)
    return HopfGAlgebra(**parts)


def _random_edit(H, rng, field):
    G, e = H.group, H.group.identity_index
    a, b = rng.choice(H.support), rng.choice(H.support)
    i, j = rng.randrange(H.dims[a]), rng.randrange(H.dims[b])
    value = rng.choice([1, -1, Fraction(1, 2), Cyclo.zeta(H.conductor)])
    if field == "product":
        return field, ((a, b), i, j), rng.randrange(H.dims[G.table[a][b]]), value
    if field == "coproduct":
        return field, (a, i), (rng.randrange(H.dims[a]), rng.randrange(H.dims[a])), value
    if field == "counit":
        return field, (a, i), None, value
    if field == "crossing":
        return field, ((b, a), i), rng.randrange(H.dims[G.conj(b, a)]), value
    return field, (), (rng.randrange(H.dims[e]), rng.randrange(H.dims[e])), value


def _sweeps(H):
    return {key: sweep(H) for key, (_, sweep) in CHECKS.items()}


def _lines(H, found):
    return AxiomReport(H.name, [(name, found[key] is None, found[key])
                                for key, (name, _) in CHECKS.items()]).lines()


def _r_replaced(H, r):
    return [("rmatrix", (), k, -v) for k, v in H.rmatrix.items()] + [
        ("rmatrix", (), k, v) for k, v in r.items()]


@lru_cache(maxsize=None)
def _perturbed(spec):
    """(field, algebra, full sweep witnesses) for spec itself, seeded
    single-entry edits of it per field, and R = 0, which passes QHG1 to
    QHG4 and Yang-Baxter but has no inverse."""
    H0 = builtin_algebra(spec)
    rng = random.Random(SPECS.index(spec))
    cases = [(field, _edited(H0, _random_edit(H0, rng, field)))
             for field in FIELDS for _ in range(8 if spec == KP else 20)]
    cases += [(None, H0), ("rmatrix", _edited(H0, *_r_replaced(H0, {})))]
    return [(field, H, _sweeps(H)) for field, H in cases]


# -- the generating set --------------------------------------------------------


def _rank(vectors):
    """The rank of sparse vectors with rational entries, by Gaussian
    elimination over Fraction (as_fraction raises on an irrational one)."""
    rows, rank = [{k: c.as_fraction() for k, c in v.items()} for v in vectors], 0
    while rows:
        top = {k: x for k, x in rows.pop().items() if x}
        if top:
            rank += 1
            p, x = next(iter(top.items()))
            for r in rows:
                if r.get(p):
                    f = r[p] / x
                    for k, y in top.items():
                        r[k] = r.get(k, 0) - f * y
    return rank


def _generated_dims(H, gens):
    """Per grade, the dimension of the span of 1 and its products by the
    generators from the right, found by breadth-first search with a rank
    test of its own."""
    one, G = H.one(), H.group
    kept = {a: [] for a in H.support}
    todo = [(G.identity_index, dict(H.unit))]
    kept[G.identity_index].append(dict(H.unit))
    while todo:
        a, v = todo.pop(0)
        for b in H.support:
            for j in gens[b]:
                c = G.table[a][b]
                w = H.mul_raw(a, b, v, {j: one})
                if _rank(kept[c] + [w]) > len(kept[c]):
                    kept[c].append(w)
                    todo.append((c, w))
    return {a: len(kept[a]) for a in H.support}


def test_generator_counts_and_span():
    counts = {spec: sum(map(len, generators(builtin_algebra(spec)).values()))
              for spec in [KP, "cyclic:k=1,l=60,d=7", *GRID]}
    assert counts[KP] == 4
    assert counts["cyclic:k=1,l=60,d=7"] == 1
    assert all(counts[spec] <= 2 for spec in GRID)
    for spec in [KP, "cyclic:k=3,l=6,d=1", "cyclic:k=2,l=5,d=2", "cyclic:k=1,l=1,d=0"]:
        H = builtin_algebra(spec)
        assert _generated_dims(H, generators(H)) == {a: H.dims[a] for a in H.support}, spec


# -- proofs against full sweeps ------------------------------------------------


@pytest.mark.parametrize("spec", SPECS)
def test_proofs_agree_with_the_full_sweeps(spec):
    # where a proof's preconditions pass, it decides as the sweep does, and
    # the report is the full sweeps' report, witnesses included
    decided = Counter()
    for field, H, found in _perturbed(spec):
        gens = generators(H)
        for key, (needs, proof) in PROOFS.items():
            if all(found[k] is None for k in needs):
                assert (proof(H, gens) is None) == (found[key] is None), (field, key)
                decided[key, found[key] is None] += 1
        assert verify_axioms(H).lines() == _lines(H, found), field
    # every proof decided cases, and every reduced sweep caught a failure
    assert all(decided[key, True] for key in PROOFS)
    assert all(decided[key, False] for key in PROOFS if key != "YB")


def test_yang_baxter_needs_its_preconditions():
    # R edits that break QHG1 or QHG3 and Yang-Baxter with them: a
    # derivation that ignored its preconditions would pass these
    r_cases = [(H, found) for spec in SPECS for field, H, found in _perturbed(spec)
               if field == "rmatrix"]
    broken = [(H, found) for H, found in r_cases
              if found["QHG1"] is not None or found["QHG3"] is not None]
    misreported = [(H, found) for H, found in broken if found["YB"] is not None]
    assert len(misreported) >= 3
    for H, found in misreported:
        assert f"[FAIL] quantum Yang-Baxter: {found['YB']}" in verify_axioms(H).lines()


# -- each precondition is needed -------------------------------------------------

Z2, HALF = "cyclic:k=1,l=2,d=1", Fraction(1, 2)
NIL = ("product", ((0, 0), 1, 1), 0, -1)  # C[Z_2] with g g = 0: 1 is no product of g
KP_PRODUCT = ("product", ((1, 1), 1, 5), 1, 1)  # x xz in grade mu gains x


def _grouplike_idempotent_r(H):
    """R = 1 (x) (1 - p) + x (x) p at Kac-Paljutkin, p = (1 + z^2)(1 + z)/4
    an idempotent: QHG1 holds, as x is grouplike and p, 1 - p are
    orthogonal idempotents, but QHG3 and Yang-Baxter fail."""
    one, q = H.one(), Cyclo.rational(1, 4, H.conductor)
    u = H.mul_raw(0, 0, {4: one}, {4: one})
    add_into(u, 0, one)
    p = H.mul_raw(0, 0, u, {0: q, 4: q})
    r = {(0, 0): one}
    for k, v in p.items():
        add_into(r, (1, k), v)
        add_into(r, (0, k), -v)
    return _r_replaced(H, r)


def _idempotent_basis(H):
    """C[Z_2] rewritten as C x C, e_i e_j = delta_ij e_i, with e0 still the
    unit, D(e1) = 0 = eps(e1) and R = (e0 + e1) (x) e0: HG9 and QHG1 hold
    and (eps(x)id)(R) = e0, but e0 e1 = 0 and (S(x)id)(R) R = R."""
    return [("product", ((0, 0), 0, 1), 1, -1), ("product", ((0, 0), 1, 0), 1, -1),
            ("product", ((0, 0), 1, 1), 0, -1), ("product", ((0, 0), 1, 1), 1, 1),
            ("coproduct", (0, 1), (1, 1), -1), ("counit", (0, 1), None, -1),
            *_r_replaced(H, {(0, 0): 1, (1, 0): 1})]


def _doubled_unit(H):
    """C[Z_2] with e0 e0 = 2 e0 and R = e1 (x) e0 / 2: QHG1 and QHG3 hold,
    but R12R13R23 is 4 times R23R13R12."""
    return [("product", ((0, 0), 0, 0), 0, 1), *_r_replaced(H, {(1, 0): HALF})]


# (check, precondition) -> (spec, edits): an algebra where that
# precondition is the only one of the check's to fail, the proof passes
# and the full sweep fails.
WITNESSES = {
    ("HG1", "HG2"): (Z2, [("unit", (), 1, -1), ("product", ((0, 0), 1, 0), 1, HALF)]),
    ("HG5", "HG1"): (KP, [KP_PRODUCT]),
    ("HG5", "HG2"): (Z2, [NIL, ("product", ((0, 0), 0, 0), 1, -1)]),
    ("HG5", "HG7"): (Z2, [NIL, ("coproduct", (0, 0), (0, 1), HALF)]),
    ("HG6", "HG1"): (KP, [KP_PRODUCT]),
    ("HG6", "HG2"): (Z2, [("unit", (), 1, 1), ("counit", (0, 1), None, -1)]),
    ("HG6", "HG8"): (Z2, [NIL, ("counit", (0, 1), None, -1), ("counit", (0, 0), None, 1)]),
    ("CHG2", "HG1"): (KP, [KP_PRODUCT]),
    ("CHG2", "HG2"): (Z2, [NIL, ("crossing", ((0, 0), 1), 1, -1),
                           ("product", ((0, 0), 0, 0), 1, HALF)]),
    ("CHG2", "CHG3"): (Z2, [NIL, ("crossing", ((0, 0), 0), 1, -1)]),
    ("RINV", "HG2"): (Z2, _idempotent_basis),
    ("RINV", "HG9"): ("cyclic:k=1,l=3,d=1", [("antipode", (0, 1), 0, -1)]),
    ("RINV", "QHG1"): (Z2, [("antipode", (0, 1), 0, 1), ("product", ((0, 0), 1, 1), 1, -1)]),
    ("YB", "HG2"): (Z2, _doubled_unit),
    ("YB", "QHG1"): (KP, [("rmatrix", (), (5, 6), 1), ("rmatrix", (), (6, 5), 1)]),
    ("YB", "QHG3"): (KP, _grouplike_idempotent_r),
}


@pytest.mark.parametrize("key, need", list(WITNESSES), ids=[f"{k}-{n}" for k, n in WITNESSES])
def test_each_precondition_is_needed(key, need):
    spec, edits = WITNESSES[key, need]
    H0 = builtin_algebra(spec)
    H = _edited(H0, *(edits(H0) if callable(edits) else edits))
    found = _sweeps(H)
    needs, proof = PROOFS[key]
    assert need in needs
    assert found[need] is not None
    assert all(found[k] is None for k in needs if k != need)
    assert proof(H, generators(H)) is None and found[key] is not None
    assert verify_axioms(H).lines() == _lines(H, found)


@pytest.mark.parametrize("spec, ceiling", [(KP, 2_770), ("cyclic:k=3,l=6,d=1", 2_891)])
def test_verify_op_counts(spec, ceiling, monkeypatch):
    # Deterministic guard of the proofs: verify_axioms made 13,442 and
    # 10,694 Cyclo multiplications at these algebras with full sweeps, and
    # 2,519 and 2,629 with the proofs; each bound is that count plus 10%.
    H = builtin_algebra(spec)
    calls = [0]
    mul = Cyclo.__mul__

    def counted_mul(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Cyclo, "__mul__", counted_mul)
    monkeypatch.setattr(Cyclo, "__rmul__", counted_mul)
    assert verify_axioms(H).ok
    assert calls[0] <= ceiling
