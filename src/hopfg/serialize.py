"""JSON serialization for groups, algebras, and diagrams.

All formats are exact round-trips.  Scalars are stored as lists of
"rational*zeta^e" tokens at the owning object's declared conductor, and
structure maps store only their nonzero entries as index blocks:

  unit       [t, term, ...]
  product    [a, b, i, j, [t, term, ...]]
  coproduct  [a, i, [p, q, term, ...]]
  counit     [a, i, [term, ...]]
  antipode   [a, i, [t, term, ...]]
  crossing   [b, a, i, [t, term, ...]]
  rmatrix    [i, j, [term, ...]]

where a, b are group element indices and i, j, p, q, t basis indices.
Blocks are sorted by their index tuple, so a given object always dumps
to the same bytes.
"""

from __future__ import annotations

import json
from math import prod

from .algebra import MAX_CONDUCTOR, MAX_DIMENSION, MAX_GROUP_ORDER, HopfGAlgebra
from .builtins import builtin_algebra
from .cyclo import Cyclo, parse_scalar, render_scalar_terms
from .diagrams import (
    Crossing,
    CrossingEnd,
    DotPassage,
    DottedComponent,
    KirbyDiagram,
    UndottedComponent,
    builtin_diagram_names,
    builtin_diagram,
    connected_sum,
    require_valid,
)
from .groups import FiniteGroup, GroupError, cyclic_group, product_group


class SerializeError(ValueError):
    """Raised for malformed or inconsistent serialized data."""


_BLOCK_FIELDS = ("unit", "product", "coproduct", "counit", "antipode",
                 "crossing", "rmatrix")


def dumps_canonical(obj) -> str:
    """Byte-deterministic JSON: sorted keys, fixed separators, one EOL."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SerializeError(f"cannot read {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SerializeError(
            f"{path!r} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}") from None


def _as_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SerializeError(f"{where}: expected an integer, got {value!r}")
    return value


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise SerializeError(f"{where}: expected a JSON object")
    if key not in obj:
        raise SerializeError(f"{where}: missing field {key!r}")
    return obj[key]


def _need_list(obj: dict, key: str, where: str) -> list:
    value = _need(obj, key, where)
    if not isinstance(value, list):
        raise SerializeError(f"{where}: field {key!r} must be a list")
    return value


# ---------------------------------------------------------------------------
# groups


def group_to_json(G: FiniteGroup) -> dict:
    return {
        "order": G.order,
        "table": [list(row) for row in G.table],
        "names": list(G.names),
    }


def _check_group_order(order: int, where: str) -> int:
    if not 1 <= order <= MAX_GROUP_ORDER:
        raise SerializeError(
            f"{where}: order must be between 1 and {MAX_GROUP_ORDER}, got {order}")
    return order


def group_from_json(obj) -> FiniteGroup:
    order = _check_group_order(
        _as_int(_need(obj, "order", "group"), "group order"), "group")
    table = _need(obj, "table", "group")
    if not isinstance(table, list) or len(table) != order:
        raise SerializeError("group table must be a list of `order` rows")
    for r, row in enumerate(table):
        if not isinstance(row, list) or len(row) != order:
            raise SerializeError(f"group table row {r} must have {order} entries")
        for v in row:
            _as_int(v, f"group table row {r}")
    names = obj.get("names")
    if names is not None:
        if not isinstance(names, list) or len(names) != order or not all(
                isinstance(x, str) for x in names):
            raise SerializeError("group names must be a list of `order` strings")
    try:
        return FiniteGroup(table, names=list(names) if names else None, check=True)
    except GroupError as exc:
        raise SerializeError(f"group JSON invalid: {exc}") from None


def _cyclic_order(spec: str) -> int:
    if not spec.startswith("cyclic:"):
        raise SerializeError(
            f"unknown group constructor {spec!r} (use cyclic:N or product:...)")
    body = spec[len("cyclic:"):]
    try:
        n = int(body)
    except ValueError:
        raise SerializeError(f"bad cyclic group order {body!r}") from None
    return _check_group_order(n, f"group {spec!r}")


def _group_constructor(spec: str) -> FiniteGroup:
    # every order is checked before any table is built
    if not spec.startswith("product:"):
        return cyclic_group(_cyclic_order(spec))
    parts = spec[len("product:"):].split(",")
    if len(parts) < 2:
        raise SerializeError("product group needs at least two factors")
    orders = [_cyclic_order(p.strip()) for p in parts]
    _check_group_order(prod(orders), f"group {spec!r}")
    G = cyclic_group(orders[0])
    for n in orders[1:]:
        G = product_group(G, cyclic_group(n))
    return G


def resolve_group(spec: str) -> FiniteGroup:
    """A group from a constructor string or a JSON file path."""
    if spec.startswith(("cyclic:", "product:")):
        return _group_constructor(spec)
    return group_from_json(_read_json(spec))


# ---------------------------------------------------------------------------
# scalars


def _terms(v: Cyclo, conductor: int) -> list:
    return render_scalar_terms(v.lift(conductor))


def _scalar(terms, conductor: int, where: str) -> Cyclo:
    if not isinstance(terms, list) or not terms or not all(
            isinstance(t, str) for t in terms):
        raise SerializeError(f"{where}: expected a nonempty list of scalar terms")
    total = Cyclo.zero(conductor)
    for t in terms:
        try:
            total = total + parse_scalar(t, conductor)
        except ValueError as exc:
            raise SerializeError(f"{where}: {exc}") from None
    return total


def _target_block(block, conductor: int, where: str):
    """Split [t, term, ...] into (t, scalar)."""
    if not isinstance(block, list) or len(block) < 2:
        raise SerializeError(f"{where}: expected [target_index, term, ...]")
    t = _as_int(block[0], where)
    return t, _scalar(block[1:], conductor, where)


# ---------------------------------------------------------------------------
# algebras


def algebra_to_json(H: HopfGAlgebra) -> dict:
    cond = H.conductor
    order = H.group.order

    unit = [[t] + _terms(v, cond) for t, v in sorted(H.unit.items())]

    product = []
    for a in H.support:
        for b in H.support:
            for (i, j), vec in sorted(H.product[(a, b)].items()):
                for t, v in sorted(vec.items()):
                    product.append([a, b, i, j, [t] + _terms(v, cond)])

    coproduct = []
    counit = []
    antipode = []
    for a in H.support:
        for i in range(H.dims[a]):
            for (p, q), v in sorted(H.coproduct[a][i].items()):
                coproduct.append([a, i, [p, q] + _terms(v, cond)])
            if H.counit[a][i]:
                counit.append([a, i, _terms(H.counit[a][i], cond)])
            for t, v in sorted(H.antipode[a][i].items()):
                antipode.append([a, i, [t] + _terms(v, cond)])

    crossing = []
    for b in range(order):
        for a in H.support:
            for i in range(H.dims[a]):
                for t, v in sorted(H.crossing[(b, a)][i].items()):
                    crossing.append([b, a, i, [t] + _terms(v, cond)])

    rmatrix = [[i, j, _terms(v, cond)] for (i, j), v in sorted(H.rmatrix.items())]

    out = {
        "conductor": cond,
        "group": group_to_json(H.group),
        "dims": list(H.dims),
        "unit": unit,
        "product": product,
        "coproduct": coproduct,
        "counit": counit,
        "antipode": antipode,
        "crossing": crossing,
        "rmatrix": rmatrix,
    }
    if H.name:
        out["name"] = H.name
    if H.basis_names is not None:
        out["basis_names"] = [list(row) for row in H.basis_names]
    return out


def algebra_from_json(obj) -> HopfGAlgebra:
    cond = _as_int(_need(obj, "conductor", "algebra"), "conductor")
    if not 1 <= cond <= MAX_CONDUCTOR:
        raise SerializeError(
            f"conductor must be between 1 and {MAX_CONDUCTOR}, got {cond}")
    gref = _need(obj, "group", "algebra")
    if isinstance(gref, str):
        G = _group_constructor(gref)
    else:
        G = group_from_json(gref)

    dims_raw = _need(obj, "dims", "algebra")
    if not isinstance(dims_raw, list) or len(dims_raw) != G.order:
        raise SerializeError("dims must list one dimension per group element")
    dims = tuple(_as_int(v, "dims") for v in dims_raw)
    support = [a for a in range(G.order) if dims[a] > 0]

    # checked before any table is allocated from dims
    blocks = {}
    for key in _BLOCK_FIELDS:
        blocks[key] = _need(obj, key, "algebra")
        if not isinstance(blocks[key], list):
            raise SerializeError(f"{key}: expected a list of blocks")
    total = sum(dims[a] for a in support)
    if total > MAX_DIMENSION:
        raise SerializeError(
            f"dims: {total} basis vectors in all, more than {MAX_DIMENSION}")
    # (eps (x) id)D(x) = x, so every basis vector has a coproduct block
    if total > len(blocks["coproduct"]):
        raise SerializeError(
            f"dims: {total} basis vectors but only {len(blocks['coproduct'])} "
            f"coproduct blocks; each basis vector needs at least one")

    def check_grade(a, where, allow_any=False):
        a = _as_int(a, where)
        if not 0 <= a < G.order:
            raise SerializeError(f"{where}: grade {a} out of range")
        if not allow_any and dims[a] == 0:
            raise SerializeError(f"{where}: grade {a} has dimension 0")
        return a

    def check_basis(i, a, where):
        i = _as_int(i, where)
        if not 0 <= i < dims[a]:
            raise SerializeError(
                f"{where}: basis index {i} out of range for grade {a}")
        return i

    unit = {}
    for n, block in enumerate(blocks["unit"]):
        where = f"unit block {n}"
        t, v = _target_block(block, cond, where)
        t = check_basis(t, G.identity_index, where)
        if t in unit:
            raise SerializeError(f"{where}: duplicate entry for index {t}")
        unit[t] = v

    product = {(a, b): {(i, j): {} for i in range(dims[a]) for j in range(dims[b])}
               for a in support for b in support}
    for n, block in enumerate(blocks["product"]):
        where = f"product block {n}"
        if not isinstance(block, list) or len(block) != 5:
            raise SerializeError(f"{where}: expected [a, b, i, j, [t, term, ...]]")
        a = check_grade(block[0], where)
        b = check_grade(block[1], where)
        i = check_basis(block[2], a, where)
        j = check_basis(block[3], b, where)
        t, v = _target_block(block[4], cond, where)
        t = check_basis(t, G.table[a][b], where)
        vec = product[(a, b)][(i, j)]
        if t in vec:
            raise SerializeError(f"{where}: duplicate target {t}")
        vec[t] = v

    coproduct = [[{} for _ in range(dims[a])] for a in range(G.order)]
    for n, block in enumerate(blocks["coproduct"]):
        where = f"coproduct block {n}"
        if not isinstance(block, list) or len(block) != 3:
            raise SerializeError(f"{where}: expected [a, i, [p, q, term, ...]]")
        a = check_grade(block[0], where)
        i = check_basis(block[1], a, where)
        tb = block[2]
        if not isinstance(tb, list) or len(tb) < 3:
            raise SerializeError(f"{where}: expected [p, q, term, ...]")
        p = check_basis(tb[0], a, where)
        q = check_basis(tb[1], a, where)
        if (p, q) in coproduct[a][i]:
            raise SerializeError(f"{where}: duplicate target ({p},{q})")
        coproduct[a][i][(p, q)] = _scalar(tb[2:], cond, where)

    counit = [[Cyclo.zero(cond) for _ in range(dims[a])] for a in range(G.order)]
    counit_seen = set()
    for n, block in enumerate(blocks["counit"]):
        where = f"counit block {n}"
        if not isinstance(block, list) or len(block) != 3:
            raise SerializeError(f"{where}: expected [a, i, [term, ...]]")
        a = check_grade(block[0], where)
        i = check_basis(block[1], a, where)
        if (a, i) in counit_seen:
            raise SerializeError(f"{where}: duplicate entry for grade {a} basis {i}")
        counit_seen.add((a, i))
        counit[a][i] = _scalar(block[2], cond, where)

    antipode = [[{} for _ in range(dims[a])] for a in range(G.order)]
    for n, block in enumerate(blocks["antipode"]):
        where = f"antipode block {n}"
        if not isinstance(block, list) or len(block) != 3:
            raise SerializeError(f"{where}: expected [a, i, [t, term, ...]]")
        a = check_grade(block[0], where)
        i = check_basis(block[1], a, where)
        t, v = _target_block(block[2], cond, where)
        t = check_basis(t, G.inverses[a], where)
        if t in antipode[a][i]:
            raise SerializeError(f"{where}: duplicate target {t}")
        antipode[a][i][t] = v

    crossing = {(b, a): [{} for _ in range(dims[a])]
                for b in range(G.order) for a in support}
    for n, block in enumerate(blocks["crossing"]):
        where = f"crossing block {n}"
        if not isinstance(block, list) or len(block) != 4:
            raise SerializeError(f"{where}: expected [b, a, i, [t, term, ...]]")
        b = check_grade(block[0], where, allow_any=True)
        a = check_grade(block[1], where)
        i = check_basis(block[2], a, where)
        t, v = _target_block(block[3], cond, where)
        t = check_basis(t, G.conj(b, a), where)
        if t in crossing[(b, a)][i]:
            raise SerializeError(f"{where}: duplicate target {t}")
        crossing[(b, a)][i][t] = v

    rmatrix = {}
    e = G.identity_index
    for n, block in enumerate(blocks["rmatrix"]):
        where = f"rmatrix block {n}"
        if not isinstance(block, list) or len(block) != 3:
            raise SerializeError(f"{where}: expected [i, j, [term, ...]]")
        i = check_basis(block[0], e, where)
        j = check_basis(block[1], e, where)
        if (i, j) in rmatrix:
            raise SerializeError(f"{where}: duplicate entry ({i},{j})")
        rmatrix[(i, j)] = _scalar(block[2], cond, where)

    name = obj.get("name")
    basis_names = obj.get("basis_names")
    if basis_names is not None:
        if (not isinstance(basis_names, list) or len(basis_names) != G.order
                or any(not isinstance(row, list) or len(row) != dims[a]
                       for a, row in enumerate(basis_names))):
            raise SerializeError("basis_names must match dims per grade")
        basis_names = [list(row) for row in basis_names]

    return HopfGAlgebra(G, dims, cond, product, unit, coproduct, counit,
                        antipode, crossing, rmatrix,
                        basis_names=basis_names, name=name)


def resolve_algebra(spec: str) -> HopfGAlgebra:
    """An algebra from a builtin name or a JSON file path."""
    if spec == "kac-paljutkin" or spec.startswith("cyclic:"):
        return builtin_algebra(spec)
    return algebra_from_json(_read_json(spec))


# ---------------------------------------------------------------------------
# diagrams


def diagram_to_json(d: KirbyDiagram) -> dict:
    def ev(e):
        if isinstance(e, CrossingEnd):
            return ["over" if e.over else "under", e.crossing]
        return ["down" if e.down else "up", e.dot]

    return {
        "dotted": [
            {"id": x.id, "passages": [[ru, rp] for ru, rp in x.passages]}
            for x in d.dotted
        ],
        "undotted": [
            {"id": u.id, "events": [ev(e) for e in u.events]} for u in d.undotted
        ],
        "crossings": [
            {"id": c.id, "sign": "+" if c.positive else "-"} for c in d.crossings
        ],
        "h3": d.h3,
        "h4": d.h4,
    }


_EVENT_KINDS = ("over", "under", "down", "up")


def diagram_from_json(obj) -> KirbyDiagram:
    dotted = []
    for n, x in enumerate(_need_list(obj, "dotted", "diagram")):
        where = f"dotted component {n}"
        did = _as_int(_need(x, "id", where), where)
        passages = []
        for ref in _need_list(x, "passages", where):
            if not isinstance(ref, list) or len(ref) != 2:
                raise SerializeError(f"{where}: passage must be [undotted_id, pos]")
            passages.append((_as_int(ref[0], where), _as_int(ref[1], where)))
        dotted.append(DottedComponent(did, tuple(passages)))

    undotted = []
    for n, u in enumerate(_need_list(obj, "undotted", "diagram")):
        where = f"undotted component {n}"
        uid = _as_int(_need(u, "id", where), where)
        events = []
        for ev in _need_list(u, "events", where):
            if (not isinstance(ev, list) or len(ev) != 2
                    or ev[0] not in _EVENT_KINDS):
                raise SerializeError(
                    f"{where}: event must be [kind, id] with kind one of "
                    f"{', '.join(_EVENT_KINDS)}")
            ref = _as_int(ev[1], where)
            if ev[0] in ("over", "under"):
                events.append(CrossingEnd(ref, ev[0] == "over"))
            else:
                events.append(DotPassage(ref, ev[0] == "down"))
        undotted.append(UndottedComponent(uid, tuple(events)))

    crossings = []
    for n, c in enumerate(_need_list(obj, "crossings", "diagram")):
        where = f"crossing {n}"
        cid = _as_int(_need(c, "id", where), where)
        sign = _need(c, "sign", where)
        if sign not in ("+", "-"):
            raise SerializeError(f"{where}: sign must be '+' or '-'")
        crossings.append(Crossing(cid, sign == "+"))

    h3 = _as_int(_need(obj, "h3", "diagram"), "h3")
    h4 = _as_int(_need(obj, "h4", "diagram"), "h4")
    d = KirbyDiagram(tuple(dotted), tuple(undotted), tuple(crossings), h3, h4)
    require_valid(d)
    return d


def resolve_diagram(spec: str) -> KirbyDiagram:
    """A diagram from a builtin name, a connected-sum combinator, or a
    JSON file path."""
    if spec in builtin_diagram_names():
        return builtin_diagram(spec)
    if spec.startswith("connected-sum:"):
        parts = spec[len("connected-sum:"):].split(",")
        if len(parts) != 2:
            raise SerializeError("connected-sum takes exactly two diagram specs")
        return connected_sum(resolve_diagram(parts[0].strip()),
                             resolve_diagram(parts[1].strip()))
    return diagram_from_json(_read_json(spec))
