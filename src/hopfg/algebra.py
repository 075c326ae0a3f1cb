"""Finite type Hopf G-algebras over exact cyclotomic scalars.

An algebra is stored by structure constants: densely indexed bases per
group grade, sparsely valued maps for product, unit, coproduct, counit,
antipode, crossing, and the grade-1 universal R-matrix.  Everything here
is exact; axiom verification (``verify``) proves each axiom, by a sweep
over basis tuples or from a smaller check and the axioms it rests on.

Every structure map is a sparse linear map, and one kernel applies them
all: ``add_into`` is the only place where a sum of Cyclo values is
accumulated into a sparse dict (an entry whose sum is zero is dropped;
``cyclo.add_nums_into`` for numerator tuples), ``apply_rows``
applies sparse rows to a vector, ``apply_rows_at`` applies them to
one factor of a tensor, ``mul_rows`` applies a product table (H's, or
``dual_table``, the dual algebra's) to two vectors, ``echelon_add`` is
the one exact elimination (span tests in ``_greedy_generators``, the
integral systems in ``integrals``), and ``primitive`` divides out a
rational content, so echelon rows and the evaluator's sites and product
rows have coprime int coefficients (the evaluator multiplies contents in
once); it returns numerator tuples (``Cyclo.num``), which those sites
hold and ``cyclos`` turns back into Cyclo values.  Vectors and tensors are raw
dicts ({basis index: Cyclo} and {index tuple: Cyclo}) everywhere else.
``Graded`` pairs such a dict (``entries``) with the GroupElement of the
vector, or of every factor of the tensor (``grade``); it is built only
as the return of ``IntegralData.integral``, ``verify.drinfeld_element``
and ``HopfGAlgebra.coproduct_power``.

The unit rule: a structure constant equal to 1 is its conductor's shared
``Cyclo.one`` (the builtins and the JSON loader build it so, as
``primitive`` does a quotient equal to 1, as ``one.num``), and the
kernel never multiplies by that object: where a factor ``is`` it, the
other factor is the product, and the evaluator's fold skips ``one.num``
in the same way.  A 1 that is another object is simply multiplied, so
values never depend on identity, only the work does.  The product table
is nested rows, ``product[a, b][i][j]`` = e_i e_j.  Tensor products
(``_tensor_mul_raw``) are slotwise apply_rows_at passes of the maps
``right_mul_rows`` keeps; a map the table makes the identity
(e_i -> {i: one}) is skipped under the same rule.
"""

from __future__ import annotations

from math import gcd, lcm

from .cyclo import Cyclo, _make, render_scalar
from .groups import FiniteGroup, Record

# Size limits on an algebra built from outside input, a JSON file or a
# builtin spec, each checked before any table it bounds is built.  Costs
# measured with Python 3.11 on an Intel Xeon.
#
# Loading builds Phi_n and its reduction rows, and every scalar holds
# phi(n) ints.  The costliest n up to the cap, 2145 and 2415 (products of
# four odd primes), take 0.26 s and 60-70 MB for both; n = 2520 takes
# 13 ms and 2 MB, and n = 9240 0.6 s and 160 MB.
MAX_CONDUCTOR = 2520
# A group of order N has an N x N table, and a JSON group table is
# checked for associativity in N^3 steps: 0.9 s at N = 256.
MAX_GROUP_ORDER = 256
# The sum of the grade dimensions, D.  The product table holds one entry
# per pair of basis vectors, and a builtin cyclic algebra's R-matrix l^2
# scalars of phi(l) ints each: cyclic:k=1,l=128 builds in 0.37 s and
# 15 MB, cyclic:k=1,l=256 in 1.5 s and 100 MB.
MAX_DIMENSION = 128


class AlgebraStructureError(ValueError):
    """Raised when structure constants are dimensionally inconsistent."""


class IntegralError(RuntimeError):
    """Raised when integral solving contradicts the expected structure."""


class DrinfeldError(RuntimeError):
    """Raised when ribbon certification of the Drinfeld element fails."""


# ---------------------------------------------------------------------------
# the sparse kernel


def add_into(out: dict, key, v) -> None:
    """out[key] += v, dropping the entry when the sum is zero."""
    acc = out.get(key)
    w = v if acc is None else acc + v
    if w:
        out[key] = w
    elif acc is not None:
        del out[key]


def apply_rows(rows, x: dict, one) -> dict:
    """The linear map with sparse rows (rows[i] is the image of basis
    vector i) applied to the sparse vector x, never multiplying by one
    (the algebra's ``one()``, see the unit rule)."""
    out: dict = {}
    for i, xi in x.items():
        for t, tv in rows[i].items():
            add_into(out, t, xi if tv is one else tv if xi is one else xi * tv)
    return out


def apply_rows_at(entries: dict, pos: int, rows, one) -> dict:
    """Sparse rows applied to factor pos of a sparse tensor, nothing
    multiplied by ``one`` as in ``apply_rows``.

    Row keys are index tuples spliced in place of the factor: 1-tuples
    for a map of one factor (see ``slot_rows``), pairs for a coproduct.
    """
    out: dict = {}
    for idxs, v in entries.items():
        head, tail = idxs[:pos], idxs[pos + 1:]
        for u, uv in rows[idxs[pos]].items():
            add_into(out, head + u + tail, v if uv is one else uv if v is one else v * uv)
    return out


def mul_rows(rows, x: dict, y: dict, one) -> dict:
    """The bilinear map with nested sparse rows (rows[i][j] is the image of
    the pair of basis vectors i, j) applied to the sparse vectors x and y,
    nothing multiplied by ``one`` as in ``apply_rows``."""
    out: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            terms = rows[i][j]
            if terms:
                xy = yj if xi is one else xi if yj is one else xi * yj
                for t, c in terms.items():
                    add_into(out, t, xy if c is one else c if xy is one else xy * c)
    return out


def scaled_raw(x: dict, c, one) -> dict:
    """The sparse vector or tensor x times c, by the unit rule, zeros dropped."""
    return dict(x) if c is one else {k: w for k, v in x.items() if (w := c if v is one else v * c)}


def slot_rows(rows) -> list:
    """Int-keyed sparse rows re-keyed by 1-tuples, for apply_rows_at."""
    return [{(t,): v for t, v in row.items()} for row in rows]


def primitive(x: dict, one) -> tuple:
    """((p, q), y): the positive rational content p/q of the sparse vector
    or tensor x, the gcd of its numerators over the lcm of its denominators
    ((1, 1) for {}), and y = x / (p/q) as numerators (``Cyclo.num``) at
    one's conductor, ints with gcd 1, an entry equal to 1 being ``one.num``
    (von zur Gathen & Gerhard, MCA, 6.2)."""
    x = {k: v.lift(one.n) for k, v in x.items()}  # a value may have a lesser conductor
    p = gcd(*(c for v in x.values() for c in v.num)) or 1
    q = lcm(*(v.den for v in x.values()))
    unit, y = one.num, {}
    for k, v in x.items():
        num = tuple(c // p * (q // v.den) for c in v.num)
        y[k] = unit if num == unit else num
    return (p, q), y


def cyclos(y: dict, one) -> dict:
    """Numerators (``Cyclo.num``) as Cyclo values over 1, ``one.num`` as ``one``."""
    return {k: one if t is one.num else _make(one.n, t, 1) for k, t in y.items()}


def echelon_add(echelon: list, v: dict, one) -> dict:
    """Reduce the sparse vector v by an echelon of (pivot, row) pairs, in
    order, and append what is left, if nonzero, divided by its content
    (``primitive``, which keeps dense rows' entries small) with its least
    index as pivot; return that row, {} exactly when v lies in the rows'
    span.  Each row holds no pivot of the rows before it.  Fraction-free:
    where v has a row's pivot c, v becomes row[c] v - v[c] row, so no
    scalar is inverted; nothing is multiplied by ``one`` (the unit rule)."""
    for c, row in echelon:
        if c in v:
            f, v = v[c], scaled_raw(v, row[c], one)
            for t, r in row.items():
                add_into(v, t, -(f if r is one else f * r))
    if v:
        v = cyclos(primitive(v, one)[1], one)
        echelon.append((min(v), v))
    return v


def _clean(raw: dict) -> dict:
    return {k: v for k, v in raw.items() if v}


def _kept(build):
    """build(owner, *key), computed on first use and kept in owner._kept under
    (build, *key): the one memo of the tables derived from an algebra or an
    ``IntegralData``, each kept on the (immutable) object it derives from."""
    def get(owner, *key):
        kept, k = owner._kept, (build, *key)
        got = kept.get(k)
        if got is None:
            got = kept[k] = build(owner, *key)
        return got
    get.__name__, get.__doc__ = build.__name__, build.__doc__
    return get


class Graded(Record):
    """A sparse vector of one grade, {basis index: Cyclo}, or a tensor whose
    factors all have that grade, {index tuple: Cyclo}."""

    __slots__ = ("grade", "entries")


# ---------------------------------------------------------------------------
# the algebra


class HopfGAlgebra:
    """Structure-constant model of a finite type Hopf G-algebra.

    Internal layout (grade = element index into the group table):
      dims[a]                      dimension of H_a
      product[a,b][i][j]           sparse vector e_i e_j in H_{ab} (tables may be shared)
      unit                         sparse vector in H_1
      coproduct[a][i]              sparse 2-tensor {(p,q): c} in H_a (x) H_a
      counit[a][i]                 Cyclo
      antipode[a][i]               sparse vector in H_{a^{-1}}
      crossing[(b,a)][i]           sparse vector in H_{bab^{-1}}
      rmatrix[(i,j)]               Cyclo, element of H_1 (x) H_1

    Construction validates dimensional consistency, totality of all maps,
    scalar conductors, and that the supported grades form a normal subgroup.
    An instance is treated as immutable after construction: ``_kept`` holds
    each table derived from these maps once (``right_mul_rows``,
    ``r_inverse_raw``, the generating sets and dual table below, the
    evaluator's products and sites).
    """

    def __init__(self, group: FiniteGroup, dims, conductor: int, product, unit,
                 coproduct, counit, antipode, crossing, rmatrix,
                 basis_names=None, name: str | None = None):
        self.group = group
        self.dims = tuple(int(x) for x in dims)
        self.conductor = int(conductor)
        self.product = product
        self.unit = _clean(unit)
        self.coproduct = coproduct
        self.counit = counit
        self.antipode = antipode
        self.crossing = crossing
        self.rmatrix = _clean(rmatrix)
        self.basis_names = basis_names
        self.name = name
        self._kept = {}  # (build, *key) -> a table derived from H (see _kept)
        self._validate_structure()

    # -- structural validation (load errors, before any axiom checking) ----

    def _validate_structure(self):
        G = self.group
        if len(self.dims) != G.order:
            raise AlgebraStructureError("dims length does not match group order")
        if any(d < 0 for d in self.dims):
            raise AlgebraStructureError("negative grade dimension")
        if self.conductor < 1:
            raise AlgebraStructureError("conductor must be positive")

        e = G.identity_index
        support = [a for a in range(G.order) if self.dims[a] > 0]
        if e not in support:
            raise AlgebraStructureError("dims: dim H_1 must be positive")
        sset = set(support)
        for a in support:
            if G.inverses[a] not in sset:
                raise AlgebraStructureError(
                    f"dims: supported grades not closed under inverse at {G.names[a]}")
            for b in support:
                if G.table[a][b] not in sset:
                    raise AlgebraStructureError(
                        f"dims: supported grades not closed under product at "
                        f"({G.names[a]},{G.names[b]})")
            # the crossing maps H_a onto H_{bab^-1}, so the support is normal
            for b in range(G.order):
                if G.conj(b, a) not in sset:
                    raise AlgebraStructureError(
                        f"dims: supported grades not closed under conjugation at "
                        f"(beta,alpha)=({G.names[b]},{G.names[a]})")
        self.support = tuple(support)

        def check_vec(vec: dict, grade: int, what: str):
            for t, v in vec.items():
                if not isinstance(t, int) or not 0 <= t < self.dims[grade]:
                    raise AlgebraStructureError(f"{what}: index {t} out of range")
                if not isinstance(v, Cyclo) or self.conductor % v.n:
                    raise AlgebraStructureError(
                        f"{what}: scalar conductor {getattr(v, 'n', '?')} does not "
                        f"divide declared conductor {self.conductor}")

        check_vec(self.unit, e, "unit")
        if not self.unit:
            raise AlgebraStructureError("unit vector is zero")

        checked = set()  # (id, dims read) of each product table and crossing row list
        for a in support:
            for b in support:
                tab = self.product.get((a, b))
                da, db, names = self.dims[a], self.dims[b], f"({G.names[a]},{G.names[b]})"
                if tab is None:
                    raise AlgebraStructureError(f"product table missing for grades {names}")
                if (key := (id(tab), da, db, self.dims[G.table[a][b]])) in checked:
                    continue
                checked.add(key)
                if not (isinstance(tab, list) and len(tab) <= da and all(
                        isinstance(row, list) and len(row) <= db
                        and all(isinstance(vec, dict) for vec in row) for row in tab)):
                    raise AlgebraStructureError(
                        f"product table for grades {names} is not {da} rows of {db} vectors")
                for i in range(da):
                    for j in range(db):
                        if i >= len(tab) or j >= len(tab[i]):
                            raise AlgebraStructureError(
                                f"product undefined at grades {names} basis ({i},{j})")
                        check_vec(tab[i][j], G.table[a][b], "product")

        for a in support:
            for what in ("coproduct", "counit", "antipode"):
                grades = getattr(self, what)
                if a >= len(grades):
                    raise AlgebraStructureError(f"{what} not given for grade {G.names[a]}")
                if len(grades[a]) != self.dims[a]:
                    raise AlgebraStructureError(f"{what} not total on grade {G.names[a]}")
            ainv = G.inverses[a]
            for i in range(self.dims[a]):
                for what in ("coproduct", "antipode"):
                    if not isinstance(getattr(self, what)[a][i], dict):
                        raise AlgebraStructureError(
                            f"{what} at grade {G.names[a]} basis {i} is not a sparse map")
                for (p, q), v in self.coproduct[a][i].items():
                    if not (0 <= p < self.dims[a] and 0 <= q < self.dims[a]):
                        raise AlgebraStructureError(
                            f"coproduct index out of range on grade {G.names[a]}")
                    check_vec({p: v}, a, "coproduct")
                check_vec(self.antipode[a][i], ainv, "antipode")
                v = self.counit[a][i]
                if not isinstance(v, Cyclo) or self.conductor % v.n:
                    raise AlgebraStructureError("counit scalar with bad conductor")
            for b in range(G.order):
                phi = self.crossing.get((b, a))
                if phi is None or len(phi) != self.dims[a]:
                    raise AlgebraStructureError(
                        f"crossing missing for (beta,alpha)=({G.names[b]},{G.names[a]})")
                target = G.conj(b, a)
                if (key := (id(phi), self.dims[target])) not in checked:
                    checked.add(key)
                    for row in phi:
                        check_vec(row, target, "crossing")

        for (i, j), v in self.rmatrix.items():
            check_vec({i: v}, e, "rmatrix")
            check_vec({j: v}, e, "rmatrix")

    # -- basic access --------------------------------------------------------

    def basis_name(self, grade_idx: int, i: int) -> str:
        if self.basis_names is not None:
            return self.basis_names[grade_idx][i]
        return f"e{i}"

    def one(self):
        return Cyclo.one(self.conductor)

    def zero(self):
        return Cyclo.zero(self.conductor)

    # -- raw sparse kernels (dicts in, dicts out) ----------------------------

    @_kept
    def right_mul_rows(self, a: int, b: int) -> list:
        """maps[j] is x -> x e_j, H_a to H_ab, as rows for apply_rows_at, or
        None where the table makes it the identity.  Built once per pair."""
        rows, one, maps = self.product[a, b], self.one(), []
        for j in range(self.dims[b]):
            m = slot_rows(r[j] for r in rows)
            identity = self.group.table[a][b] == a and all(
                len(r) == 1 and r.get((i,)) is one for i, r in enumerate(m))
            maps.append(None if identity else m)
        return maps

    def mul_raw(self, a: int, b: int, x: dict, y: dict) -> dict:
        return mul_rows(self.product[a, b], x, y, self.one())

    def counit_raw(self, a: int, x: dict) -> Cyclo:
        eps, one = self.counit[a], self.one()
        return sum((xi if eps[i] is one else eps[i] if xi is one else xi * eps[i]
                    for i, xi in x.items()), Cyclo.zero(self.conductor))

    @_kept
    def r_inverse_raw(self) -> dict:
        """(S_1 (x) id)(R), the two-sided inverse of R for a valid algebra."""
        e = self.group.identity_index
        return apply_rows_at(self.rmatrix, 0, slot_rows(self.antipode[e]), self.one())

    # -- the one public map that returns a record ----------------------------

    def coproduct_power(self, a: int, x: dict, nfactors: int) -> Graded:
        """Delta^{(nfactors-1)}(x) for x in H_a, an nfactors-fold tensor;
        nfactors=1 is x."""
        if nfactors < 1:
            raise ValueError("nfactors must be >= 1")
        entries = {(i,): v for i, v in x.items()}
        for last in range(nfactors - 1):
            # split the last slot; coassociativity makes the choice irrelevant
            entries = apply_rows_at(entries, last, self.coproduct[a], self.one())
        return Graded(self.group.element(a), entries)

    # -- equality (used by serialization round-trip tests) --------------------

    def __eq__(self, other):
        if not isinstance(other, HopfGAlgebra):
            return NotImplemented
        return (
            self.group.table == other.group.table
            and self.dims == other.dims
            and self.conductor == other.conductor
            and self.unit == other.unit
            and self.rmatrix == other.rmatrix
            and self.product == other.product
            and self.coproduct == other.coproduct
            and self.counit == other.counit
            and self.antipode == other.antipode
            and self.crossing == other.crossing
        )

    __hash__ = None

    def __repr__(self):
        return f"HopfGAlgebra({self.name or 'custom'}, |G|={self.group.order}, dims={self.dims})"


# ---------------------------------------------------------------------------
# generating sets, which ``verify`` proves checks on and ``integrals`` solves on


def _greedy_generators(H, full, unit, candidates, product):
    """Per grade, the keys of the candidates (grade, key, vector) that
    generate with the unit (grade, vector): in order, each candidate
    outside the span of the unit, the generators and their right products
    by generators becomes one.  product(b, v, c, w) is v w for v of grade
    b and w of grade c, of grade ``H.group.table[b][c]``; full[a] is the
    dimension of grade a.  Once a grade's span is full, no candidate or
    product in it is formed or reduced, which changes no choice.  The span
    is kept by ``echelon_add``, inverting no scalar."""
    table, one = H.group.table, H.one()
    rows = {a: [] for a in full}  # grade -> echelon rows (pivot, row)
    gens, taken, todo = {a: [] for a in full}, [], []  # todo: (b, v, c, w) for v w

    def grow(a, v):
        if len(rows[a]) == full[a] or not (v := echelon_add(rows[a], v, one)):
            return False
        todo.extend((a, v, c, w) for c, w in taken)
        return True

    grow(*unit)
    for a, key, w in candidates:
        if grow(a, w):
            gens[a].append(key)
            taken.append((a, w))
            todo.extend((b, v, a, w) for b in rows for _, v in rows[b])
            while todo:
                b, v, c, w = todo.pop()
                if len(rows[bc := table[b][c]]) < full[bc]:
                    grow(bc, product(b, v, c, w))
    return gens


def _basis_generators(H, grades) -> dict:
    """``_greedy_generators`` on the basis vectors of grades, in grade, then
    index order, from 1; the grades must be closed under products."""
    one = H.one()
    return _greedy_generators(
        H, {a: H.dims[a] for a in grades}, (H.group.identity_index, dict(H.unit)),
        ((a, i, {i: one}) for a in grades for i in range(H.dims[a])),
        lambda b, v, c, w: H.mul_raw(b, c, v, w))


@_kept
def generators(H: HopfGAlgebra) -> dict:
    """Basis indices gens[a] per supported grade a that generate H with 1,
    taken greedily in grade, then index order (``_greedy_generators``)."""
    return _basis_generators(H, H.support)


@_kept
def grade_one_generators(H: HopfGAlgebra) -> list:
    """Basis indices of H_1 that generate H_1 as an algebra with 1, found as
    ``generators`` are but in H_1 alone: generators(H)[1] need not be such a
    set, since products of other grades can land in H_1."""
    e = H.group.identity_index
    return _basis_generators(H, (e,))[e]


@_kept
def dual_table(H: HopfGAlgebra) -> list:
    """The product of H_1*, dual to the coproduct of H_1, as nested rows on
    the dual basis: d_p * d_q = sum_m D(e_m)[p, q] d_m."""
    n = H.dims[H.group.identity_index]
    table = [[{} for _ in range(n)] for _ in range(n)]
    for m, dm in enumerate(H.coproduct[H.group.identity_index]):
        for (p, q), v in dm.items():
            table[p][q][m] = v
    return table


@_kept
def dual_generators(H: HopfGAlgebra) -> list:
    """Vectors of H_1*, on the dual basis, that generate it with eps under
    the product ``dual_table``: Sum_p (p+1) d_p first, which alone
    generates wherever the d_p are orthogonal idempotents, as at a group
    algebra (its powers are Vandermonde rows), then the d_p themselves."""
    e, one = H.group.identity_index, H.one()
    n, table = H.dims[e], dual_table(H)
    vandermonde = {p: Cyclo.rational(p + 1, conductor=H.conductor) if p else one
                   for p in range(n)}
    eps = {p: v for p, v in enumerate(H.counit[e]) if v}
    candidates = [(e, vandermonde, vandermonde)] + [(e, {p: one}, {p: one}) for p in range(n)]
    return _greedy_generators(H, {e: n}, (e, eps), candidates,
                              lambda b, f, c, g: mul_rows(table, f, g, one))[e]


# ---------------------------------------------------------------------------
# tensor and formatting helpers (module level; they need the algebra)


def _tensor_mul_raw(H: HopfGAlgebra, ga, sa: dict, gb, sb: dict):
    """Per entry (kb, vb) of sb, factor p of sa multiplied on the right by
    e_{kb[p]} in one apply_rows_at pass (none for an identity map), times vb."""
    one = H.one()
    maps = [H.right_mul_rows(x, y) for x, y in zip(ga, gb)]
    out: dict = {}
    for kb, vb in sb.items():
        t = sa
        for p, m in enumerate(maps):
            if m[kb[p]] is not None:
                t = apply_rows_at(t, p, m[kb[p]], one)
        for k, v in t.items():
            add_into(out, k, v if vb is one else vb if v is one else v * vb)
    return out


def embed_two_raw(H: HopfGAlgebra, raw: dict, pos1: int, pos2: int, arity: int) -> dict:
    """Place a grade-(1,1) 2-tensor at slots pos1 < pos2 with units elsewhere."""
    out, one = dict(raw), H.one()
    for p in range(arity):
        if p not in (pos1, pos2):  # slots before p are placed: insert the unit at p
            out = {k[:p] + (u,) + k[p:]: v if uv is one else uv if v is one else v * uv
                   for k, v in out.items() for u, uv in H.unit.items()}
    return out


def format_raw_tensor(H: HopfGAlgebra, grade_idxs, raw: dict) -> str:
    """A sparse tensor whose factors have grade indices grade_idxs, term
    by term in index order."""
    parts = []
    for key, v in sorted(raw.items()):
        names = " (x) ".join(H.basis_name(g, i) for g, i in zip(grade_idxs, key))
        parts.append(f"({render_scalar(v)})*{names}")
    return " + ".join(parts) or "0"


def format_raw_vector(H: HopfGAlgebra, a: int, raw: dict) -> str:
    """A sparse vector of grade index a, term by term in basis order."""
    return format_raw_tensor(H, (a,), {(i,): v for i, v in raw.items()})

