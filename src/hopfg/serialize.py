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
The table ``_LAYOUT`` owns this layout: the loader reads every block
through it and the dump writes every block from it.  Blocks are sorted
by their index tuple, so a given object always dumps to the same bytes.
Zero entries are never stored or dumped: a block whose value is zero is
checked like any other, then dropped.
"""

from __future__ import annotations

import json
from math import prod

from .algebra import (MAX_CONDUCTOR, MAX_DIMENSION, MAX_GROUP_ORDER,
                      AlgebraStructureError, HopfGAlgebra)
from .builtins import builtin_algebra
from .cyclo import Cyclo, parse_scalar, render_scalar_terms
from .groups import FiniteGroup, GroupError, cyclic_group, product_group


class SerializeError(ValueError):
    """Raised for malformed or inconsistent serialized data."""


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
    except RecursionError:
        raise SerializeError(f"{path!r} nests JSON arrays or objects too deeply") from None
    except ValueError as exc:  # invalid UTF-8, or an int past the digit limit
        raise SerializeError(f"{path!r} is not valid JSON: {exc}") from None


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


def _scalar(terms: list, conductor: int, where: tuple, memo: dict) -> Cyclo:
    """The sum of the terms, a 1 as the shared Cyclo.one; memo holds the
    term lists (as tuples) read so far in one load, each parsed once."""
    if not terms or not all(isinstance(t, str) for t in terms):
        raise SerializeError(f"{_block(where)}: expected a nonempty list of scalar terms")
    key = tuple(terms)
    if key not in memo:
        total = Cyclo.zero(conductor)
        for t in terms:
            try:
                total = total + parse_scalar(t, conductor)
            except ValueError as exc:
                raise SerializeError(f"{_block(where)}: {exc}") from None
        memo[key] = Cyclo.one(conductor) if total == 1 else total
    return memo[key]


# ---------------------------------------------------------------------------
# algebras

# field -> (leading indices, target indices that open the innermost list);
# a block is [*leading, [*target, term, ...]], or the innermost list alone
# when there are no leading indices.  a and b are grades.
_LAYOUT = {
    "unit": ((), ("t",)),
    "product": (("a", "b", "i", "j"), ("t",)),
    "coproduct": (("a", "i"), ("p", "q")),
    "counit": (("a", "i"), ()),
    "antipode": (("a", "i"), ("t",)),
    "crossing": (("b", "a", "i"), ("t",)),
    "rmatrix": (("i", "j"), ()),
}


def _shape(field: str) -> str:
    lead, target = _LAYOUT[field]
    inner = "[" + ", ".join(target + ("term", "...")) + "]"
    return "[" + ", ".join(lead + (inner,)) + "]" if lead else inner


def _entry_name(lead: tuple, idx: tuple) -> str:
    """'grade a,b basis i,j target t': the indices of one entry."""
    groups = (("grade", [x for k, x in zip(lead, idx) if k in "ab"]),
              ("basis", [x for k, x in zip(lead, idx) if k not in "ab"]),
              ("target", idx[len(lead):]))
    return " ".join(f"{word} {','.join(map(str, xs))}" for word, xs in groups if xs)


def _block(where: tuple) -> str:
    """'<field> block <n>' for where = (field, n), built only for a message."""
    return "%s block %d" % where


def _read_blocks(blocks: list, field: str, conductor: int, memo: dict):
    """Yield (where, index tuple, scalar) for each block n of one field,
    where being (field, n) (see _block).

    The indices are checked to be integers but not to be in range; a
    second block for the same indices is rejected, whatever its value.
    """
    lead, target = _LAYOUT[field]
    nl, nt = len(lead), len(target)
    seen = set()
    for n, block in enumerate(blocks):
        ok = isinstance(block, list) and (not nl or len(block) == nl + 1)
        inner = block[-1] if ok and nl else block
        if not (ok and isinstance(inner, list) and len(inner) >= nt):
            raise SerializeError(f"{field} block {n}: expected {_shape(field)}")
        idx = (*block[:nl], *inner[:nt])
        for x in idx:
            if type(x) is not int:  # _as_int raises unless x is an int subclass
                _as_int(x, _block((field, n)))
        if idx in seen:
            raise SerializeError(
                f"{field} block {n}: duplicate entry for {_entry_name(lead, idx)}")
        seen.add(idx)
        where = (field, n)
        yield where, idx, _scalar(inner[nt:], conductor, where, memo)


def _entries(H: HopfGAlgebra) -> dict:
    """field -> H's entries as (index tuple, scalar), indexed as in _LAYOUT."""
    cells = [(a, i) for a in H.support for i in range(H.dims[a])]
    return {
        "unit": (((t,), v) for t, v in H.unit.items()),
        "product": (((a, b, i, j, t), v) for (a, b), tab in H.product.items()
                    for i, row in enumerate(tab) for j, vec in enumerate(row)
                    for t, v in vec.items()),
        "coproduct": (((a, i, p, q), v) for a, i in cells
                      for (p, q), v in H.coproduct[a][i].items()),
        "counit": (((a, i), H.counit[a][i]) for a, i in cells),
        "antipode": (((a, i, t), v) for a, i in cells
                     for t, v in H.antipode[a][i].items()),
        "crossing": (((b, a, i, t), v) for (b, a), rows in H.crossing.items()
                     for i, row in enumerate(rows) for t, v in row.items()),
        "rmatrix": H.rmatrix.items(),
    }


def algebra_to_json(H: HopfGAlgebra) -> dict:
    cond = H.conductor
    out = {"conductor": cond, "group": group_to_json(H.group), "dims": list(H.dims)}
    memo = {}  # (conductor, numerators, denominator) -> terms, for this dump only
    for field, entries in _entries(H).items():
        n = len(_LAYOUT[field][0])
        blocks = out[field] = []
        for idx, v in sorted(entries):
            if v:
                terms = memo.get(key := (v.n, v.num, v.den))
                if terms is None:
                    terms = memo[key] = render_scalar_terms(v.lift(cond))
                inner = [*idx[n:], *terms]
                blocks.append([*idx[:n], inner] if n else inner)
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
    memo = {}  # term list -> scalar, for this load only (see _scalar)

    # checked before any table is allocated from dims
    blocks = {field: _need_list(obj, field, "algebra") for field in _LAYOUT}
    total = sum(dims[a] for a in support)
    if total > MAX_DIMENSION:
        raise SerializeError(
            f"dims: {total} basis vectors in all, more than {MAX_DIMENSION}")
    # (eps (x) id)D(x) = x, so every basis vector has a coproduct block
    if total > len(blocks["coproduct"]):
        raise SerializeError(
            f"dims: {total} basis vectors but only {len(blocks['coproduct'])} "
            f"coproduct blocks; each basis vector needs at least one")

    def check(where, a, *basis, any_grade=False):
        """Grade a is in range and, unless any_grade, supported; each
        basis index is in range for grade a."""
        if not 0 <= a < G.order:
            raise SerializeError(f"{_block(where)}: grade {a} out of range")
        if not any_grade and dims[a] == 0:
            raise SerializeError(f"{_block(where)}: grade {a} has dimension 0")
        for i in basis:
            if not 0 <= i < dims[a]:
                raise SerializeError(
                    f"{_block(where)}: basis index {i} out of range for grade {a}")

    def read(field):
        return _read_blocks(blocks[field], field, cond, memo)

    # each loop checks the ranges of its indices and stores nonzero entries
    e = G.identity_index
    unit = {}
    for where, (t,), v in read("unit"):
        check(where, e, t)
        if v:
            unit[t] = v

    product = {(a, b): [[{} for _ in range(dims[b])] for _ in range(dims[a])]
               for a in support for b in support}
    for where, (a, b, i, j, t), v in read("product"):
        check(where, a, i)
        check(where, b, j)
        check(where, G.table[a][b], t)
        if v:
            product[a, b][i][j][t] = v

    coproduct = [[{} for _ in range(dims[a])] for a in range(G.order)]
    for where, (a, i, p, q), v in read("coproduct"):
        check(where, a, i, p, q)
        if v:
            coproduct[a][i][(p, q)] = v

    counit = [[Cyclo.zero(cond) for _ in range(dims[a])] for a in range(G.order)]
    for where, (a, i), v in read("counit"):
        check(where, a, i)
        counit[a][i] = v

    antipode = [[{} for _ in range(dims[a])] for a in range(G.order)]
    for where, (a, i, t), v in read("antipode"):
        check(where, a, i)
        check(where, G.inverses[a], t)
        if v:
            antipode[a][i][t] = v

    crossing = {(b, a): [{} for _ in range(dims[a])]
                for b in range(G.order) for a in support}
    for where, (b, a, i, t), v in read("crossing"):
        check(where, b, any_grade=True)
        check(where, a, i)
        check(where, G.conj(b, a), t)
        if v:
            crossing[(b, a)][i][t] = v

    rmatrix = {}
    for where, (i, j), v in read("rmatrix"):
        check(where, e, i, j)
        if v:
            rmatrix[(i, j)] = v

    name = obj.get("name")
    basis_names = obj.get("basis_names")
    if basis_names is not None:
        if (not isinstance(basis_names, list) or len(basis_names) != G.order
                or any(not isinstance(row, list) or len(row) != dims[a]
                       or not all(isinstance(x, str) for x in row)
                       for a, row in enumerate(basis_names))):
            raise SerializeError("basis_names must be strings matching dims per grade")
        basis_names = [list(row) for row in basis_names]

    return HopfGAlgebra(G, dims, cond, product, unit, coproduct, counit,
                        antipode, crossing, rmatrix,
                        basis_names=basis_names, name=name)


def resolve_algebra(spec: str) -> HopfGAlgebra:
    """An algebra from a builtin name or a JSON file path (named in a load error)."""
    if spec == "kac-paljutkin" or spec.startswith("cyclic:"):
        return builtin_algebra(spec)
    obj = _read_json(spec)
    try:
        return algebra_from_json(obj)
    except (SerializeError, AlgebraStructureError) as exc:
        raise type(exc)(f"{spec!r}: {exc}") from None


# ---------------------------------------------------------------------------
# diagrams (each function imports .diagrams itself, so an algebra load does not)


def diagram_to_json(d: KirbyDiagram) -> dict:
    from .diagrams import CrossingEnd

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
    from .diagrams import (Crossing, CrossingEnd, DotPassage, DottedComponent, KirbyDiagram,
                           UndottedComponent, require_valid)

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
    JSON file path (named in a load error)."""
    from .diagrams import DiagramError, builtin_diagram, builtin_diagram_names, connected_sum

    if spec in builtin_diagram_names():
        return builtin_diagram(spec)
    if spec.startswith("connected-sum:"):
        parts = spec[len("connected-sum:"):].split(",")
        if len(parts) != 2:
            raise SerializeError("connected-sum takes exactly two diagram specs")
        return connected_sum(resolve_diagram(parts[0].strip()),
                             resolve_diagram(parts[1].strip()))
    obj = _read_json(spec)
    try:
        return diagram_from_json(obj)
    except (SerializeError, DiagramError) as exc:
        raise type(exc)(f"{spec!r}: {exc}") from None
