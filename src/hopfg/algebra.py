"""Finite type Hopf G-algebras over exact cyclotomic scalars.

An algebra is stored by structure constants: densely indexed bases per
group grade, sparsely valued maps for product, unit, coproduct, counit,
antipode, crossing, and the grade-1 universal R-matrix.  Everything here
is exact; axiom verification (``verify``) proves each axiom, by a sweep
over basis tuples or from a smaller check and the axioms it rests on.

Every structure map is a sparse linear map, and one kernel applies them
all: ``add_into`` is the only place where a sum is accumulated into a
sparse dict (an entry whose sum is zero is dropped), ``apply_rows``
applies sparse rows to a vector, ``apply_rows_at`` applies them to
one factor of a tensor, ``mul_rows`` applies a product table (H's, or
the dual algebra's in ``verify``) to two vectors, ``echelon_add`` is the
one exact elimination (span tests in ``verify``, the integral systems in
``integrals``), and ``primitive`` divides out a rational content, so
echelon rows, cached sites and ``primitive_products`` rows have coprime
int coefficients (the evaluator multiplies contents in once).  Vectors and
tensors are raw dicts ({basis index: Cyclo} and {index tuple: Cyclo}) throughout.
``Graded`` pairs such a dict (``entries``) with the GroupElement of the
vector, or of every factor of the tensor (``grade``); it is built only
as the return of ``IntegralData.integral``, ``verify.drinfeld_element``
and ``HopfGAlgebra.coproduct_power``.

The unit rule: a structure constant equal to 1 is its conductor's shared
``Cyclo.one`` (the builtins and the JSON loader build it so, as
``primitive`` does a quotient equal to 1), and the kernel never
multiplies by that object: where a factor ``is`` it, the other factor
is the product.  A 1 that is another object is simply multiplied, so
values never depend on identity, only the work does.  The product table
is nested rows, ``product[a, b][i][j]`` = e_i e_j.  Tensor products
(``_tensor_mul_raw``) are slotwise apply_rows_at passes of the maps
``right_mul_rows`` caches; a map the table makes the identity
(e_i -> {i: one}) is skipped under the same rule.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

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
# The entries of one dot's site, bounded before the site is built (see
# evaluate._Compiled.sites).  At kac-paljutkin, k = 10 alternating passages
# give 1,048,580 entries (bound 8 * 4^9 = 2^21) in 18.5 s with a 556 MB
# peak, and k = 12 would need about 9 GB.  It also bounds the (table entry,
# site entry) pairs of each site the fold opens (evaluate._Compiled.bind).
MAX_SITE_ENTRIES = 1 << 21


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
    ((1, 1) for {}), and y = x / (p/q), of int coefficients with gcd 1, an
    entry equal to 1 being ``one`` (von zur Gathen & Gerhard, MCA, 6.2)."""
    p = gcd(*(c for v in x.values() for c in v.num)) or 1
    q = lcm(*(v.den for v in x.values()))
    y = {}
    for k, v in x.items():
        num = tuple(c // p * (q // v.den) for c in v.num)
        y[k] = one if num == one.num and v.n == one.n else _make(v.n, num, 1)
    return (p, q), y


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
        v = primitive(v, one)[1]
        echelon.append((min(v), v))
    return v


def _clean(raw: dict) -> dict:
    return {k: v for k, v in raw.items() if v}


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
    An instance is treated as immutable after construction:
    ``right_mul_rows``, ``primitive_products``, ``crossing_site`` and the
    sites an ``IntegralData`` caches are computed once from these maps.
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
        self._right_mul_rows = {}  # (a, b) -> right_mul_rows(a, b)
        self._primitive_products = None  # primitive_products(), built on first use
        self._crossing_sites = {}  # (signs, words) -> crossing_site(signs, words)
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

    def right_mul_rows(self, a: int, b: int) -> list:
        """maps[j] is x -> x e_j, H_a to H_ab, as rows for apply_rows_at, or
        None where the table makes it the identity.  Built once per pair."""
        got = self._right_mul_rows.get((a, b))
        if got is None:
            rows, one, got = self.product[a, b], self.one(), []
            for j in range(self.dims[b]):
                m = slot_rows(r[j] for r in rows)
                identity = self.group.table[a][b] == a and all(
                    len(r) == 1 and r.get((i,)) is one for i, r in enumerate(m))
                got.append(None if identity else m)
            self._right_mul_rows[a, b] = got
        return got

    def primitive_products(self) -> dict:
        """{(a, b): (contents, rows)} over the supported grade pairs: e_i e_j
        is its content contents[i][j] (``one`` for 1) times rows[i][j].  A
        product with a denominator is split by ``primitive``; any other is
        kept with content 1, and a table without denominators is its own rows."""
        if self._primitive_products is None:
            one, views = self.one(), {}
            ones = [[one] * max(self.dims)] * max(self.dims)
            for table in {id(t): t for t in self.product.values()}.values():
                split = [[primitive(x, one) if any(v.den != 1 for v in x.values()) else ((1, 1), x)
                          for x in row] for row in table]
                ks = {c: one if c == (1, 1) else Cyclo.rational(*c, self.conductor)
                      for row in split for c, _ in row}  # one Cyclo per content
                views[id(table)] = (ones, table) if all(k is one for k in ks.values()) else (
                    [[ks[c] for c, _ in row] for row in split], [[y for _, y in row] for row in split])
            self._primitive_products = {ab: views[id(self.product[ab])]
                                        for ab in itertools.product(self.support, repeat=2)}
        return self._primitive_products

    def mul_raw(self, a: int, b: int, x: dict, y: dict) -> dict:
        return mul_rows(self.product[a, b], x, y, self.one())

    def counit_raw(self, a: int, x: dict) -> Cyclo:
        eps, one = self.counit[a], self.one()
        return sum((xi if eps[i] is one else eps[i] if xi is one else xi * eps[i]
                    for i, xi in x.items()), Cyclo.zero(self.conductor))

    def r_inverse_raw(self) -> dict:
        """(S_1 (x) id)(R), the two-sided inverse of R for a valid algebra."""
        e = self.group.identity_index
        return apply_rows_at(self.rmatrix, 0, slot_rows(self.antipode[e]), self.one())

    def crossing_site(self, signs: tuple, words: tuple) -> tuple:
        """(content, sorted primitive entries) of crossings with the given
        signs (R for True, (S_1 (x) id)(R) for False) multiplied out, content
        times entries (see ``primitive``): factor f is the product of the one
        or two ends words[f] lists in order, an end being (crossing, 0 for its
        over factor or 1 for its under one).  Built once per key."""
        got = self._crossing_sites.get((signs, words))
        if got is None:
            one, rows = self.one(), self.product[(self.group.identity_index,) * 2]
            rs = [(self.rmatrix if s else self.r_inverse_raw()).items() for s in signs]
            out = {}
            for terms in itertools.product(*rs):
                tensor = {(): prod((w for _, w in terms[1:]), start=terms[0][1])}
                for word in words:
                    i, *j = (terms[k][0][f] for k, f in word)
                    vec = rows[i][j[0]] if j else {i: one}
                    tensor = {t + (i,): v if x is one else x if v is one else v * x
                              for t, v in tensor.items() for i, x in vec.items()}
                for t, v in tensor.items():
                    add_into(out, t, v)
            content, out = primitive(out, one)
            got = self._crossing_sites[signs, words] = (content, sorted(out.items()))
        return got

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

