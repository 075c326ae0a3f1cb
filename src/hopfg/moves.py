"""Move rewrites on colored Kirby diagrams.

apply_move takes a JSON-style spec dict {"move": name, ...params} and
returns a fresh ColoredDiagram, or raises MoveError when the input fails
diagrams.require_colored or the named site does not match the move's
pattern.  Mechanized moves:

  I-2-insert / I-2-remove   crossing pair creation / cancellation
  I-3                       triple slide across three same-sign crossings
  I-5                       swap the two ends of an adjacent self-crossing
  II-1-insert / II-1-remove pair of opposite passages through one dot
  II-5                      reverse a dot's disk order, invert its color
  II-6                      pass one dot through another, conjugating colors
  III-1-slide / III-1-unslide  handle slide of one dot over another
  III-4-insert / III-4-remove  dot colored 1 with a lone passing strand
  III-5-insert / III-5-remove  bare unknot paired with a 3-handle
  global-conjugate          recolor every dot by a fixed conjugation

Each move's parameters are declared once, in _MOVES, by kind: "dot",
"component" and "crossing" name an id the diagram has, "pos" is any
integer, "crossings" is a list of 3 crossing ids, "bool" is true or false,
"element" is an integer or a name, and "any" is left to the move; a kind
ending in "?" may be left out.  apply_move checks from that table that
the spec has no other key, then presence, type and ids; each rewrite
checks only its own rules (sign, element range, position ranges,
distinctness).  A rewrite edits a diagrams.Editor;
_freeze renumbers and colors its result and asks require_colored of it,
which decides flatness through diagrams.color.

Rewrites renumber ids densely; round-trip pairs restore diagrams up to
that renumbering (which is the identity on already-dense inputs).
"""

from __future__ import annotations

from itertools import combinations, product

from .diagrams import (
    ColoredDiagram,
    ColoringError,
    CrossingEnd,
    DiagramError,
    DotPassage,
    Editor,
    Node,
    renumber,
    require_colored,
)


class MoveError(ValueError):
    """The move's pattern does not match at the named site."""


def _freeze(ed: Editor) -> ColoredDiagram:
    """ed's diagram renumbered densely, colored by ed's colors; raises
    DiagramError or ColoringError unless require_colored accepts it."""
    d = renumber(ed.freeze())
    cd = ColoredDiagram(d, {i: ed.colors[did] for i, did in enumerate(ed.dot_order)})
    require_colored(cd)
    return cd


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MoveError(msg)


# -- crossing moves -------------------------------------------------------


def _i2_insert(ed: Editor, spec: dict, group) -> None:
    ua, ub = spec["over"], spec["under"]
    i, j = spec["over_pos"], spec["under_pos"]
    sign = spec.get("sign", "+")
    _require(sign in ("+", "-"), "I-2-insert: sign must be '+' or '-'")
    _require(0 <= i <= len(ed.comp_nodes[ua]), "I-2-insert: over_pos out of range")
    _require(0 <= j <= len(ed.comp_nodes[ub]), "I-2-insert: under_pos out of range")
    _require(ua != ub or i != j,
             "I-2-insert: same-component windows need distinct positions")
    c1 = ed.new_crossing(sign == "+")
    c2 = ed.new_crossing(sign != "+")
    over_block = [Node(CrossingEnd(c1, True)), Node(CrossingEnd(c2, True))]
    under_block = [Node(CrossingEnd(c1, False)), Node(CrossingEnd(c2, False))]
    blocks = [(ua, i, over_block), (ub, j, under_block)]
    if ua == ub and j > i:
        # insert at the later position first so the earlier index stays valid
        blocks.reverse()
    for uid, p, block in blocks:
        ed.comp_nodes[uid][p:p] = block


def _i2_remove(ed: Editor, spec: dict, group) -> None:
    c1, c2 = spec["c1"], spec["c2"]
    _require(c1 != c2, "I-2-remove: needs two distinct crossings")
    _require(ed.signs[c1] != ed.signs[c2],
             "I-2-remove: crossing signs must be opposite")
    o1, u1 = ed.crossing_nodes(c1)
    o2, u2 = ed.crossing_nodes(c2)
    pos = ed.positions()
    _require(ed.cyclically_adjacent(o1, o2, pos) is not None,
             "I-2-remove: over ends are not adjacent")
    _require(ed.cyclically_adjacent(u1, u2, pos) is not None,
             "I-2-remove: under ends are not adjacent")
    for node in (o1, o2, u1, u2):
        uid, _ = pos[id(node)]
        ed.comp_nodes[uid].remove(node)
    del ed.signs[c1], ed.signs[c2]


def _i3(ed: Editor, spec: dict, group) -> None:
    cids = spec["crossings"]
    _require(len(set(cids)) == 3, "I-3: needs three distinct crossings")
    _require(len({ed.signs[c] for c in cids}) == 1,
             "I-3: crossing signs must all agree")
    ends = {}
    for c in cids:
        o, u = ed.crossing_nodes(c)
        ends[id(o)] = (c, True, o)
        ends[id(u)] = (c, False, u)
    pos = ed.positions()
    pairs = []  # candidate windows: strand-consecutive pairs within the six ends
    for (_, _, na), (_, _, nb) in combinations(ends.values(), 2):
        adj = ed.cyclically_adjacent(na, nb, pos)
        if adj is None:
            continue
        uid, first = adj
        second = nb if first is na else na
        pairs.append((uid, first, second))
        if len(ed.comp_nodes[uid]) == 2:
            # a two-event cycle reads in either order
            pairs.append((uid, second, first))
    windows = _i3_matching(ends, pairs, cids)
    _require(windows is not None,
             "I-3: the six crossing ends admit no valid window matching")
    for uid, first, second in windows:
        nodes = ed.comp_nodes[uid]
        ia, ib = nodes.index(first), nodes.index(second)
        nodes[ia], nodes[ib] = nodes[ib], nodes[ia]


def _i3_matching(ends, pairs, cids):
    """First perfect matching of the six ends into candidate windows that
    realizes the triple-slide pattern, or None."""

    def valid(windows):
        if len({id(node) for _, *nodes in windows for node in nodes}) < 6:
            return False  # the windows overlap
        # rank 1, 2, 3: one all-over, one mixed, one all-under window
        rank = [3 - ends[id(first)][1] - ends[id(second)][1]
                for _, first, second in windows]
        if sorted(rank) != [1, 2, 3]:
            return False
        window_of = {ends[id(node)][:2]: wi
                     for wi, (_, *nodes) in enumerate(windows) for node in nodes}
        if any(window_of[(c, True)] == window_of[(c, False)] for c in cids):
            return False
        configs = set()
        for _, first, second in windows:
            ranks = []
            for node in (first, second):
                c, over, _ = ends[id(node)]
                ranks.append(rank[window_of[(c, not over)]])
            if ranks[0] == ranks[1]:
                return False
            configs.add(ranks[0] > ranks[1])
        return len(configs) == 1

    return next((w for w in combinations(pairs, 3) if valid(w)), None)


def _i5(ed: Editor, spec: dict, group) -> None:
    over, under = ed.crossing_nodes(spec["crossing"])
    pos = ed.positions()
    _require(ed.cyclically_adjacent(over, under, pos) is not None,
             "I-5: crossing ends are not adjacent on one strand")
    uid = pos[id(over)][0]
    _require(uid == pos[id(under)][0], "I-5: not a self-crossing")
    nodes = ed.comp_nodes[uid]
    ia, ib = nodes.index(over), nodes.index(under)
    nodes[ia], nodes[ib] = nodes[ib], nodes[ia]


# -- dot passage moves -----------------------------------------------------


def _ii1_insert(ed: Editor, spec: dict, group) -> None:
    did, uid = spec["dot"], spec["component"]
    i = spec["disk_pos"]
    p = spec["event_pos"]
    first_down = spec.get("first_down", True)
    _require(0 <= i <= len(ed.dot_passages[did]),
             "II-1-insert: disk_pos out of range")
    _require(0 <= p <= len(ed.comp_nodes[uid]),
             "II-1-insert: event_pos out of range")
    n1 = Node(DotPassage(did, first_down))
    n2 = Node(DotPassage(did, not first_down))
    ed.comp_nodes[uid][p:p] = [n1, n2]
    ed.dot_passages[did][i:i] = [n1, n2]


def _ii1_remove(ed: Editor, spec: dict, group) -> None:
    did = spec["dot"]
    i = spec["disk_pos"]
    passages = ed.dot_passages[did]
    _require(0 <= i and i + 1 < len(passages),
             "II-1-remove: disk_pos does not name a passage pair")
    na, nb = passages[i], passages[i + 1]
    _require(na.ev.down != nb.ev.down,
             "II-1-remove: passage directions must be opposite")
    pos = ed.positions()
    _require(ed.cyclically_adjacent(na, nb, pos) is not None,
             "II-1-remove: passages are not adjacent on the strand")
    uid = pos[id(na)][0]
    ed.comp_nodes[uid].remove(na)
    ed.comp_nodes[uid].remove(nb)
    del passages[i:i + 2]


def _ii5(ed: Editor, spec: dict, group) -> None:
    did = spec["dot"]
    passages = ed.dot_passages[did]
    passages.reverse()
    for node in passages:
        node.ev = DotPassage(did, not node.ev.down)
    ed.colors[did] = ed.colors[did].inv


def _aligned_partners(ed: Editor, did: int, other: int, after: bool, ctx: str):
    """Partner nodes of `other` aligned with dot `did`'s disk order.

    Every passage of `did` must be Down and be immediately followed
    (after=True) or preceded (after=False) on its strand by a Down
    passage of `other`; partner j must sit at disk slot j of `other`.
    """
    passages = ed.dot_passages[did]
    k = len(passages)
    _require(k >= 1, f"{ctx}: dot {did} has no passages")
    other_passages = ed.dot_passages[other]
    _require(len(other_passages) >= k,
             f"{ctx}: dot {other} has fewer passages than dot {did}")
    pos = ed.positions()
    partners = []
    for j, node in enumerate(passages):
        _require(node.ev.down, f"{ctx}: passages of dot {did} must all go down")
        uid, idx = pos[id(node)]
        nodes = ed.comp_nodes[uid]
        step = 1 if after else -1
        partner = nodes[(idx + step) % len(nodes)]
        ev = partner.ev
        _require(isinstance(ev, DotPassage) and ev.dot == other and ev.down,
                 f"{ctx}: strand neighbor of passage {j} is not a down passage "
                 f"of dot {other}")
        _require(other_passages[j] is partner,
                 f"{ctx}: disk slot {j} of dot {other} is not aligned")
        partners.append(partner)
    return partners


def _ii6(ed: Editor, spec: dict, group) -> None:
    did, bid = spec["dot"], spec["through"]
    _require(did != bid, "II-6: needs two distinct dots")
    a = ed.colors[did]
    b = ed.colors[bid]
    try:
        partners = _aligned_partners(ed, did, bid, after=True, ctx="II-6")
        ed.colors[did] = b.inv * a * b
    except MoveError:
        partners = _aligned_partners(ed, did, bid, after=False, ctx="II-6")
        ed.colors[did] = b * a * b.inv
    pos = ed.positions()
    for node, partner in zip(ed.dot_passages[did], partners):
        uid, _ = pos[id(node)]
        nodes = ed.comp_nodes[uid]
        ia, ib = nodes.index(node), nodes.index(partner)
        nodes[ia], nodes[ib] = nodes[ib], nodes[ia]


def _iii1_slide(ed: Editor, spec: dict, group) -> None:
    did, bid = spec["dot"], spec["over"]
    _require(did != bid, "III-1-slide: needs two distinct dots")
    passages = ed.dot_passages[did]
    _require(all(node.ev.down for node in passages),
             f"III-1-slide: passages of dot {did} must all go down")
    pos = ed.positions()
    new_nodes = []
    for node in passages:
        uid, _ = pos[id(node)]
        nodes = ed.comp_nodes[uid]
        fresh = Node(DotPassage(bid, True))
        nodes.insert(nodes.index(node) + 1, fresh)
        new_nodes.append(fresh)
    ed.dot_passages[bid][0:0] = new_nodes
    ed.colors[did] = ed.colors[did] * ed.colors[bid].inv


def _iii1_unslide(ed: Editor, spec: dict, group) -> None:
    did, bid = spec["dot"], spec["over"]
    _require(did != bid, "III-1-unslide: needs two distinct dots")
    partners = _aligned_partners(ed, did, bid, after=True, ctx="III-1-unslide")
    pos = ed.positions()
    for partner in partners:
        uid, _ = pos[id(partner)]
        ed.comp_nodes[uid].remove(partner)
    del ed.dot_passages[bid][:len(partners)]
    ed.colors[did] = ed.colors[did] * ed.colors[bid]


# -- canceling pair moves ---------------------------------------------------


def _iii4_insert(ed: Editor, spec: dict, group) -> None:
    _require(group is not None, "III-4-insert: no group available; pass group=")
    did = ed.new_dot(group.element(group.identity_index))
    uid = ed.new_component()
    node = Node(DotPassage(did, True))
    ed.comp_nodes[uid].append(node)
    ed.dot_passages[did].append(node)


def _iii4_remove(ed: Editor, spec: dict, group) -> None:
    did = spec["dot"]
    _require(ed.colors[did].is_identity(),
             f"III-4-remove: dot {did} is not colored with the identity")
    passages = ed.dot_passages[did]
    _require(len(passages) == 1, "III-4-remove: dot must have exactly one passage")
    pos = ed.positions()
    uid, _ = pos[id(passages[0])]
    _require(len(ed.comp_nodes[uid]) == 1,
             "III-4-remove: the strand meets crossings or other dots")
    ed.comp_order.remove(uid)
    del ed.comp_nodes[uid]
    ed.dot_order.remove(did)
    del ed.dot_passages[did]
    del ed.colors[did]


def _iii5_insert(ed: Editor, spec: dict, group) -> None:
    ed.new_component()
    ed.h3 += 1


def _iii5_remove(ed: Editor, spec: dict, group) -> None:
    uid = spec["component"]
    _require(not ed.comp_nodes[uid],
             f"III-5-remove: undotted component {uid} is not bare")
    _require(ed.h3 >= 1, "III-5-remove: no 3-handle available to cancel")
    ed.comp_order.remove(uid)
    del ed.comp_nodes[uid]
    ed.h3 -= 1


def _global_conjugate(ed: Editor, spec: dict, group) -> None:
    _require(group is not None, "global-conjugate: no group available; pass group=")
    beta = spec["element"]
    if isinstance(beta, str):
        names = list(group.names)
        _require(beta in names, f"global-conjugate: unknown element {beta!r}")
        beta = names.index(beta)
    _require(0 <= beta < group.order, "global-conjugate: element out of range")
    for did in list(ed.colors):
        ed.colors[did] = group.element(group.conj(beta, ed.colors[did].index))


# name -> (rewrite, {parameter: kind}); the kinds are described above
_MOVES = {
    "I-2-insert": (_i2_insert, {"over": "component", "over_pos": "pos",
                                "under": "component", "under_pos": "pos",
                                "sign": "any?"}),
    "I-2-remove": (_i2_remove, {"c1": "crossing", "c2": "crossing"}),
    "I-3": (_i3, {"crossings": "crossings"}),
    "I-5": (_i5, {"crossing": "crossing"}),
    "II-1-insert": (_ii1_insert, {"dot": "dot", "disk_pos": "pos",
                                  "component": "component", "event_pos": "pos",
                                  "first_down": "bool?"}),
    "II-1-remove": (_ii1_remove, {"dot": "dot", "disk_pos": "pos"}),
    "II-5": (_ii5, {"dot": "dot"}),
    "II-6": (_ii6, {"dot": "dot", "through": "dot"}),
    "III-1-slide": (_iii1_slide, {"dot": "dot", "over": "dot"}),
    "III-1-unslide": (_iii1_unslide, {"dot": "dot", "over": "dot"}),
    "III-4-insert": (_iii4_insert, {}),
    "III-4-remove": (_iii4_remove, {"dot": "dot"}),
    "III-5-insert": (_iii5_insert, {}),
    "III-5-remove": (_iii5_remove, {"component": "component"}),
    "global-conjugate": (_global_conjugate, {"element": "element"}),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# kind -> (test of a value, what the value must be); the other kinds are integers
_TYPES = {"any": (lambda v: True, "anything"),
          "bool": (lambda v: isinstance(v, bool), "true or false"),
          "element": (lambda v: _is_int(v) or isinstance(v, str), "an integer or an element name"),
          "crossings": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_int, v)),
                        "a list of 3 integers")}


def _check_params(ed: Editor, name: str, params: dict, spec: dict) -> None:
    """Keys, then presence, then types, then ids of spec's parameters, as
    _MOVES says."""
    if unknown := [k for k in spec if k != "move" and k not in params]:
        raise MoveError(f"{name}: unknown parameters {unknown}; "
                        f"it takes {sorted(params) or 'none'}")
    missing = [k for k, kind in params.items()
               if k not in spec and not kind.endswith("?")]
    if missing:
        raise MoveError(f"{name}: missing parameters {missing}")
    given = [(k, kind.rstrip("?"), spec[k]) for k, kind in params.items() if k in spec]
    for key, kind, v in given:
        test, what = _TYPES.get(kind, (_is_int, "an integer"))
        if not test(v):
            raise MoveError(f"{name}: {key} must be {what}, got {v!r}")
    known = {"dot": (ed.dot_passages, "dotted component"),
             "component": (ed.comp_nodes, "undotted component"),
             "crossing": (ed.signs, "crossing"), "crossings": (ed.signs, "crossing")}
    for key, kind, v in given:
        if kind in known:
            ids, noun = known[kind]
            for x in v if kind == "crossings" else [v]:
                if x not in ids:
                    raise MoveError(f"{name}: unknown {noun} {x}")


def move_names() -> tuple:
    return tuple(sorted(_MOVES))


def apply_move(cd: ColoredDiagram, spec: dict, group=None) -> ColoredDiagram:
    """Rewrite cd by one move; spec is {"move": name, ...params}.

    group is only needed by III-4-insert and global-conjugate when the
    diagram has no colored dots to read it from.
    """
    try:
        require_colored(cd)
    except (DiagramError, ColoringError) as exc:
        raise MoveError(f"cannot rewrite this colored diagram: {exc}") from None
    return _apply(cd, spec, group)


def _apply(cd: ColoredDiagram, spec: dict, group) -> ColoredDiagram:
    """apply_move on a cd that require_colored has accepted."""
    if not isinstance(spec, dict) or "move" not in spec:
        raise MoveError("move spec must be a dict with a 'move' key")
    name = spec["move"]
    if not isinstance(name, str) or name not in _MOVES:
        raise MoveError(f"unknown move {name!r}")
    rewrite, params = _MOVES[name]
    ed = Editor(cd.diagram, cd.colors)
    _check_params(ed, name, params, spec)
    if group is None and cd.colors:
        group = next(iter(cd.colors.values())).group
    rewrite(ed, spec, group)
    try:
        return _freeze(ed)
    except (DiagramError, ColoringError) as exc:  # pragma: no cover - bug guard
        raise MoveError(f"{name}: rewrite produced an unreadable diagram: {exc}")


# -- candidate enumeration (for fuzzing) -------------------------------------


def move_candidates(cd: ColoredDiagram, inserts: bool = True, group=None) -> list:
    """All applicable move specs, deterministic order.

    Insert-type specs are enumerated over every legal position, so the
    list grows with diagram size; they apply to every valid diagram by
    construction.  Pattern moves are verified by a dry run before being
    reported.  A diagram that require_colored rejects has no candidates.
    """
    d = cd.diagram
    try:
        require_colored(cd)
    except (DiagramError, ColoringError):
        return []
    out = []
    cross_ids = [c.id for c in d.crossings]
    for c1, c2 in combinations(cross_ids, 2):
        out.append({"move": "I-2-remove", "c1": c1, "c2": c2})
        out.append({"move": "I-2-remove", "c1": c2, "c2": c1})
    for triple in combinations(cross_ids, 3):
        out.append({"move": "I-3", "crossings": list(triple)})
    for c in cross_ids:
        out.append({"move": "I-5", "crossing": c})
    for x in d.dotted:
        for i in range(max(len(x.passages) - 1, 0)):
            out.append({"move": "II-1-remove", "dot": x.id, "disk_pos": i})
        out.append({"move": "II-5", "dot": x.id})
        out.append({"move": "III-4-remove", "dot": x.id})
        for y in d.dotted:
            if y.id == x.id:
                continue
            out.append({"move": "II-6", "dot": x.id, "through": y.id})
            out.append({"move": "III-1-slide", "dot": x.id, "over": y.id})
            out.append({"move": "III-1-unslide", "dot": x.id, "over": y.id})
    for u in d.undotted:
        out.append({"move": "III-5-remove", "component": u.id})
    if group is None and cd.colors:
        group = next(iter(cd.colors.values())).group
    if group is not None:
        for beta in range(group.order):
            out.append({"move": "global-conjugate", "element": beta})
    applicable = []
    for spec in out:
        try:
            _apply(cd, spec, group)
        except MoveError:
            continue
        applicable.append(spec)
    if inserts:
        for ua, ub in product(d.undotted, repeat=2):
            for i, j, sign in product(range(len(ua.events) + 1),
                                      range(len(ub.events) + 1), "+-"):
                if ua.id != ub.id or i != j:
                    applicable.append({"move": "I-2-insert",
                                       "over": ua.id, "over_pos": i,
                                       "under": ub.id, "under_pos": j,
                                       "sign": sign})
        for x, u in product(d.dotted, d.undotted):
            for i, p, first_down in product(range(len(x.passages) + 1),
                                            range(len(u.events) + 1), (True, False)):
                applicable.append({"move": "II-1-insert", "dot": x.id,
                                   "disk_pos": i, "component": u.id,
                                   "event_pos": p, "first_down": first_down})
        if group is not None:
            applicable.append({"move": "III-4-insert"})
        applicable.append({"move": "III-5-insert"})
    return applicable
