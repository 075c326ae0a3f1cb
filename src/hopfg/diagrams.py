"""Combinatorial planar Kirby diagrams and G-colorings.

A diagram is a set of dotted components (1-handles), undotted framed
components (2-handles, blackboard framing), explicit crossing signs, and
recorded 3-/4-handle counts.  Undotted components store their events in
traversal order; dotted components list their passage points from left
to right across the spanning disk as (undotted id, event position)
references.  Planar realizability is trusted, not checked.

require_colored is the one test that a ColoredDiagram can be read: the
diagram is valid, every dot has a color, and the coloring is flat.
Editor is the one way to rebuild a diagram: rotate_component, reorient
and every move rewrite edit its node lists and freeze the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, GroupElement, GroupHom, Presentation, enumerate_homs


class DiagramError(ValueError):
    """Raised for structurally broken diagrams or bad references."""


class ColoringError(ValueError):
    """Raised when a coloring violates a component relation."""


@dataclass(frozen=True)
class CrossingEnd:
    crossing: int
    over: bool

    def __repr__(self):
        return f"{'O' if self.over else 'U'}(c{self.crossing})"


@dataclass(frozen=True)
class DotPassage:
    dot: int
    down: bool

    def __repr__(self):
        return f"D(x{self.dot},{'down' if self.down else 'up'})"


@dataclass(frozen=True)
class Crossing:
    id: int
    positive: bool


@dataclass(frozen=True)
class DottedComponent:
    id: int
    passages: tuple  # of (undotted id, event position), left to right


@dataclass(frozen=True)
class UndottedComponent:
    id: int
    events: tuple  # of CrossingEnd | DotPassage, in traversal order


@dataclass(frozen=True)
class KirbyDiagram:
    dotted: tuple
    undotted: tuple
    crossings: tuple
    h3: int = 0
    h4: int = 1


@dataclass
class ColoredDiagram:
    diagram: KirbyDiagram
    colors: dict  # dotted id -> GroupElement

    def color_of(self, did: int) -> GroupElement:
        return self.colors[did]


def validate(d: KirbyDiagram):
    """Referential-integrity report: empty list means the diagram is sound."""
    problems = []
    uids = [u.id for u in d.undotted]
    dids = [x.id for x in d.dotted]
    dot_ids = set(dids)
    cids = [c.id for c in d.crossings]
    if len(set(uids)) != len(uids):
        problems.append("duplicate undotted component ids")
    if len(dot_ids) != len(dids):
        problems.append("duplicate dotted component ids")
    if len(set(cids)) != len(cids):
        problems.append("duplicate crossing ids")
    if d.h3 < 0 or d.h4 < 0:
        problems.append("negative handle count")

    crossing_roles = {c.id: [] for c in d.crossings}
    dot_events = {}
    for u in d.undotted:
        for pos, ev in enumerate(u.events):
            if isinstance(ev, CrossingEnd):
                if ev.crossing not in crossing_roles:
                    problems.append(
                        f"undotted {u.id} references unknown crossing {ev.crossing}")
                else:
                    crossing_roles[ev.crossing].append(ev.over)
            elif isinstance(ev, DotPassage):
                if ev.dot not in dot_ids:
                    problems.append(
                        f"undotted {u.id} passes through unknown dot {ev.dot}")
                dot_events[(u.id, pos)] = ev
            else:
                problems.append(f"undotted {u.id} has a malformed event at {pos}")
    for cid, roles in crossing_roles.items():
        if sorted(roles) != [False, True]:
            problems.append(
                f"crossing {cid} needs exactly one over and one under end, "
                f"got {len(roles)} end(s)")

    seen_refs = set()
    for x in d.dotted:
        for ref in x.passages:
            if not (isinstance(ref, tuple) and len(ref) == 2):
                problems.append(f"dot {x.id} has a malformed passage reference")
                continue
            if ref in seen_refs:
                problems.append(f"passage {ref} listed twice")
            seen_refs.add(ref)
            ev = dot_events.get(ref)
            if ev is None:
                problems.append(
                    f"dot {x.id} references {ref}, which is not a dot passage event")
            elif ev.dot != x.id:
                problems.append(
                    f"dot {x.id} references {ref}, which names dot {ev.dot}")
    for ref, ev in dot_events.items():
        if ref not in seen_refs:
            problems.append(
                f"passage event {ref} through dot {ev.dot} is missing from "
                f"that dot's passage list")
    return problems


def require_valid(d: KirbyDiagram):
    problems = validate(d)
    if problems:
        raise DiagramError("; ".join(problems))


def fundamental_presentation(d: KirbyDiagram) -> Presentation:
    """One generator per dotted component (in list order), one relation
    word per undotted component: +g for a downward passage, -g for an
    upward one, in traversal order."""
    gen_index = {x.id: i + 1 for i, x in enumerate(d.dotted)}
    relations = []
    for u in d.undotted:
        word = []
        for ev in u.events:
            if isinstance(ev, DotPassage):
                g = gen_index[ev.dot]
                word.append(g if ev.down else -g)
        relations.append(tuple(word))
    return Presentation(len(d.dotted), tuple(relations))


def color(d: KirbyDiagram, hom: GroupHom) -> ColoredDiagram:
    pres = fundamental_presentation(d)
    if len(hom.images) != pres.num_generators:
        raise ColoringError(
            f"coloring supplies {len(hom.images)} generator images, diagram "
            f"has {pres.num_generators} dotted components")
    for u, word in zip(d.undotted, pres.relations):
        if not hom.word_image(word).is_identity():
            raise ColoringError(
                f"relation of undotted component {u.id} does not map to the "
                f"identity under the coloring")
    colors = {x.id: hom.images[i] for i, x in enumerate(d.dotted)}
    return ColoredDiagram(d, colors)


def colorings(d: KirbyDiagram, G: FiniteGroup):
    """All valid colorings of d by G, in lexicographic hom order."""
    pres = fundamental_presentation(d)
    return [color(d, hom) for hom in enumerate_homs(pres, G)]


def require_colored(cd: ColoredDiagram) -> None:
    """Raise DiagramError unless cd's diagram is valid and every dot has a
    color, and ColoringError unless the coloring is flat."""
    require_valid(cd.diagram)
    require_coloring(cd)


def require_coloring(cd: ColoredDiagram) -> None:
    """require_colored of a cd whose diagram is already known to be valid."""
    d = cd.diagram
    missing = [x.id for x in d.dotted if x.id not in cd.colors]
    if missing:
        raise DiagramError(f"dotted components {missing} have no color")
    if d.dotted:
        images = [cd.colors[x.id] for x in d.dotted]
        G = images[0].group
        if any(g.group is not G and g.group.table != G.table for g in images):
            raise ColoringError("the dot colors come from different groups")
        color(d, GroupHom(G, images))


# -- editing, reorientation, rotation, renumbering -----------------------------


class Node:
    # one strand event with object identity, so edits survive reindexing
    __slots__ = ("ev",)

    def __init__(self, ev):
        self.ev = ev


class Editor:
    """Mutable working copy of a diagram and, optionally, its colors.

    Dot passages point at Nodes, not positions, so edits to the node lists
    of components keep them attached.  The input is trusted to be valid.
    """

    def __init__(self, d: KirbyDiagram, colors=None):
        self.h3 = d.h3
        self.h4 = d.h4
        self.signs = {c.id: c.positive for c in d.crossings}
        self.comp_order = [u.id for u in d.undotted]
        self.comp_nodes = {}
        node_at = {}
        for u in d.undotted:
            nodes = [Node(ev) for ev in u.events]
            self.comp_nodes[u.id] = nodes
            for pos, node in enumerate(nodes):
                node_at[(u.id, pos)] = node
        self.dot_order = [x.id for x in d.dotted]
        self.dot_passages = {
            x.id: [node_at[ref] for ref in x.passages] for x in d.dotted
        }
        self.colors = dict(colors or {})

    # -- id allocation ---------------------------------------------------

    def new_crossing(self, positive: bool) -> int:
        cid = max(self.signs, default=-1) + 1
        self.signs[cid] = positive
        return cid

    def new_dot(self, color: GroupElement) -> int:
        did = max(self.dot_order, default=-1) + 1
        self.dot_order.append(did)
        self.dot_passages[did] = []
        self.colors[did] = color
        return did

    def new_component(self) -> int:
        uid = max(self.comp_order, default=-1) + 1
        self.comp_order.append(uid)
        self.comp_nodes[uid] = []
        return uid

    # -- queries ----------------------------------------------------------

    def component(self, uid: int) -> list:
        """The node list of undotted component uid, edited in place."""
        if uid not in self.comp_nodes:
            raise DiagramError(f"no undotted component {uid}")
        return self.comp_nodes[uid]

    def positions(self) -> dict:
        pos = {}
        for uid in self.comp_order:
            for i, node in enumerate(self.comp_nodes[uid]):
                pos[id(node)] = (uid, i)
        return pos

    def crossing_nodes(self, cid: int):
        """(over node, under node) of crossing cid."""
        ends = {node.ev.over: node for nodes in self.comp_nodes.values()
                for node in nodes
                if isinstance(node.ev, CrossingEnd) and node.ev.crossing == cid}
        return ends[True], ends[False]

    def cyclically_adjacent(self, na: Node, nb: Node, pos: dict):
        """Return (uid, first-node) if na, nb are consecutive strand events."""
        ua, ia = pos[id(na)]
        ub, ib = pos[id(nb)]
        if ua != ub:
            return None
        n = len(self.comp_nodes[ua])
        if n < 2:
            return None
        if (ia + 1) % n == ib:
            return ua, na
        if (ib + 1) % n == ia:
            return ua, nb
        return None

    def freeze(self) -> KirbyDiagram:
        """The edited diagram, with the editor's ids, crossings in id order."""
        pos = self.positions()
        undotted = tuple(
            UndottedComponent(uid, tuple(node.ev for node in self.comp_nodes[uid]))
            for uid in self.comp_order
        )
        dotted = tuple(
            DottedComponent(did, tuple(pos[id(node)] for node in self.dot_passages[did]))
            for did in self.dot_order
        )
        crossings = tuple(Crossing(c, self.signs[c]) for c in sorted(self.signs))
        return KirbyDiagram(dotted, undotted, crossings, self.h3, self.h4)


def reorient(d: KirbyDiagram, uid: int) -> KirbyDiagram:
    """Reverse one undotted component's orientation.

    Its event list is reversed, its own passage directions flip, and the
    sign of every crossing with exactly one end on it flips.  Passage
    references into it are re-pointed; disk orders are unaffected.
    """
    require_valid(d)
    ed = Editor(d)
    nodes = ed.component(uid)
    nodes.reverse()
    ends = [node.ev.crossing for node in nodes if isinstance(node.ev, CrossingEnd)]
    for node in nodes:
        if isinstance(node.ev, DotPassage):
            node.ev = DotPassage(node.ev.dot, not node.ev.down)
    for cid in ends:
        if ends.count(cid) == 1:
            ed.signs[cid] = not ed.signs[cid]
    return ed.freeze()


def rotate_component(d: KirbyDiagram, uid: int, r: int) -> KirbyDiagram:
    """Shift the cyclic start point of one undotted component by r."""
    require_valid(d)
    ed = Editor(d)
    nodes = ed.component(uid)
    if nodes:
        r %= len(nodes)
        nodes[:] = nodes[r:] + nodes[:r]
    return ed.freeze()


def relabel(d: KirbyDiagram, doff: int = 0, uoff: int = 0, coff: int = 0):
    """d's dotted, undotted and crossing tuples with every id relabeled
    densely in list order, counting from the given offsets."""
    dmap = {x.id: doff + i for i, x in enumerate(d.dotted)}
    umap = {u.id: uoff + i for i, u in enumerate(d.undotted)}
    cmap = {c.id: coff + i for i, c in enumerate(d.crossings)}

    def event(ev):
        if isinstance(ev, CrossingEnd):
            return CrossingEnd(cmap[ev.crossing], ev.over)
        return DotPassage(dmap[ev.dot], ev.down)

    dotted = tuple(
        DottedComponent(dmap[x.id], tuple((umap[ru], rp) for ru, rp in x.passages))
        for x in d.dotted
    )
    undotted = tuple(
        UndottedComponent(umap[u.id], tuple(event(ev) for ev in u.events))
        for u in d.undotted
    )
    crossings = tuple(Crossing(cmap[c.id], c.positive) for c in d.crossings)
    return dotted, undotted, crossings


def renumber(d: KirbyDiagram) -> KirbyDiagram:
    """Relabel all ids densely (0, 1, ...) in list order."""
    return KirbyDiagram(*relabel(d), d.h3, d.h4)


def connected_sum(a: KirbyDiagram, b: KirbyDiagram) -> KirbyDiagram:
    """Disjoint union of two diagrams; handle counts add (one 4-handle)."""
    da, ua, ca = relabel(a)
    db, ub, cb = relabel(b, len(a.dotted), len(a.undotted), len(a.crossings))
    return KirbyDiagram(da + db, ua + ub, ca + cb, a.h3 + b.h3, a.h4 + b.h4 - 1)


# -- builtin diagrams ----------------------------------------------------------


def _cp2(positive: bool) -> KirbyDiagram:
    # +1- or -1-framed unknot: one self-crossing curl
    events = (CrossingEnd(0, True), CrossingEnd(0, False))
    return KirbyDiagram(
        dotted=(),
        undotted=(UndottedComponent(0, events),),
        crossings=(Crossing(0, positive),),
        h3=0,
        h4=1,
    )


def _s2xs2() -> KirbyDiagram:
    # Hopf link, both components 0-framed
    u0 = UndottedComponent(0, (CrossingEnd(0, True), CrossingEnd(1, False)))
    u1 = UndottedComponent(1, (CrossingEnd(0, False), CrossingEnd(1, True)))
    return KirbyDiagram(
        dotted=(),
        undotted=(u0, u1),
        crossings=(Crossing(0, True), Crossing(1, True)),
        h3=0,
        h4=1,
    )


def _s1xs3() -> KirbyDiagram:
    return KirbyDiagram(
        dotted=(DottedComponent(0, ()),),
        undotted=(),
        crossings=(),
        h3=1,
        h4=1,
    )


def _s1xs1xs2() -> KirbyDiagram:
    # two dots, one undotted component tracing the commutator through
    # them, and a second undotted component it clasps
    eta1 = UndottedComponent(0, (
        DotPassage(0, True),
        CrossingEnd(0, False),
        CrossingEnd(1, True),
        DotPassage(1, True),
        DotPassage(0, False),
        DotPassage(1, False),
    ))
    eta2 = UndottedComponent(1, (CrossingEnd(0, True), CrossingEnd(1, False)))
    xi1 = DottedComponent(0, ((0, 0), (0, 4)))
    xi2 = DottedComponent(1, ((0, 5), (0, 3)))
    return KirbyDiagram(
        dotted=(xi1, xi2),
        undotted=(eta1, eta2),
        crossings=(Crossing(0, True), Crossing(1, True)),
        h3=2,
        h4=1,
    )


def _s4() -> KirbyDiagram:
    return KirbyDiagram(dotted=(), undotted=(), crossings=(), h3=0, h4=1)


_BUILTIN_DIAGRAMS = {
    "cp2": lambda: _cp2(True),
    "cp2bar": lambda: _cp2(False),
    "s2xs2": _s2xs2,
    "s1xs3": _s1xs3,
    "s1xs1xs2": _s1xs1xs2,
    "s4": _s4,
}


def builtin_diagram(name: str) -> KirbyDiagram:
    """Resolve a builtin diagram name, including 'connected-sum:A,B'."""
    if name in _BUILTIN_DIAGRAMS:
        return _BUILTIN_DIAGRAMS[name]()
    if name.startswith("connected-sum:"):
        parts = [part.strip() for part in name[len("connected-sum:"):].split(",")]
        if len(parts) != 2:
            raise DiagramError("connected-sum takes exactly two diagram names")
        return connected_sum(builtin_diagram(parts[0]), builtin_diagram(parts[1]))
    raise DiagramError(f"unknown builtin diagram {name!r}")


def builtin_diagram_names():
    return tuple(_BUILTIN_DIAGRAMS)
