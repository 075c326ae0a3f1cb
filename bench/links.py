"""Seeded generators of framed links, written in hopfg's diagram JSON form.

A chain or a necklace of n unknots is drawn as n round circles in a row
(or on a ring), each overlapping its neighbours, so every overlap gives a
Hopf clasp of two crossings.  With every circle oriented anticlockwise,
a circle meets its next neighbour at the lower point B and then the upper
point T, and its previous neighbour at T and then B.  When the earlier
circle of a pair is over at T (and under at B) both crossings are
positive; the other choice makes both negative.

Everything else is a local gadget spliced into one strand, so any
position keeps the diagram planar:

* kink: a curl, two consecutive ends of one new crossing.  Either end may
  come first with either sign (the curl can lie on either side).
* finger: the strand dips down through a small dotted circle and comes
  straight back up, two adjacent passages in either disk order.
* coil: the strand goes down through a dotted circle, round the right end
  of its disk and down again to the right of the first passage, and then
  back round the left end, crossing its first descent once.  In traversal
  order: down, end A, down, end B, with disk order first, second.  When A
  (the descent, heading down) is over, B heads left underneath and the
  crossing is negative; otherwise it is positive.  The mirror image swaps
  the disk order and the sign.

A gadget is kept whole as one block of events.  After the gadgets, each
component gets a seeded orientation and a seeded start rotation at a
block boundary.  Reversing a component reverses its events, turns its
passages over and flips the sign of every crossing it shares with another
component, as a reorientation does.
"""

from __future__ import annotations

import itertools
import random


class _Builder:
    def __init__(self, n: int):
        self.events = [[] for _ in range(n)]  # blocks of [kind, ref, tag]
        self.signs = []   # crossing id -> "+" / "-"
        self.disks = []   # dot id -> passage tags, left to right
        self.tags = itertools.count()

    def crossing(self, sign: str) -> int:
        self.signs.append(sign)
        return len(self.signs) - 1

    def dot(self) -> int:
        self.disks.append([])
        return len(self.disks) - 1

    def splice(self, place: random.Random, u: int, block: list):
        self.events[u].insert(place.randrange(len(self.events[u]) + 1), block)

    def kink(self, signs: random.Random, place: random.Random, u: int):
        c = self.crossing(signs.choice("+-"))
        ends = [["over", c, None], ["under", c, None]]
        signs.shuffle(ends)
        self.splice(place, u, ends)

    def finger(self, signs: random.Random, place: random.Random, u: int):
        x = self.dot()
        a, b = next(self.tags), next(self.tags)
        self.disks[x] = [a, b] if signs.random() < 0.5 else [b, a]
        self.splice(place, u, [["down", x, a], ["up", x, b]])

    def coil(self, signs: random.Random, place: random.Random, u: int):
        x = self.dot()
        a, b = next(self.tags), next(self.tags)
        a_over = signs.random() < 0.5
        mirror = signs.random() < 0.5
        c = self.crossing("-" if a_over != mirror else "+")
        self.disks[x] = [b, a] if mirror else [a, b]
        self.splice(place, u, [
            ["down", x, a], ["over" if a_over else "under", c, None],
            ["down", x, b], ["under" if a_over else "over", c, None]])

    def reorient(self, u: int):
        own = [ev[1] for block in self.events[u] for ev in block
               if ev[0] in ("over", "under")]
        for c in set(own):
            if own.count(c) == 1:
                self.signs[c] = "-" if self.signs[c] == "+" else "+"
        flip = {"down": "up", "up": "down", "over": "over", "under": "under"}
        self.events[u] = [[[flip[k], ref, tag] for k, ref, tag in reversed(block)]
                          for block in reversed(self.events[u])]

    def rotate(self, u: int, r: int):
        blocks = self.events[u]
        if blocks:
            r %= len(blocks)
            self.events[u] = blocks[r:] + blocks[:r]

    def diagram(self) -> dict:
        events = [[ev for block in blocks for ev in block] for blocks in self.events]
        where = {}
        for u, evs in enumerate(events):
            for pos, (_, _, tag) in enumerate(evs):
                if tag is not None:
                    where[tag] = [u, pos]
        return {
            "dotted": [{"id": x, "passages": [where[t] for t in tags]}
                       for x, tags in enumerate(self.disks)],
            "undotted": [{"id": u, "events": [[k, ref] for k, ref, _ in evs]}
                         for u, evs in enumerate(events)],
            "crossings": [{"id": c, "sign": s} for c, s in enumerate(self.signs)],
            "h3": 0,
            "h4": 1,
        }


def clasped_link(n: int, closed: bool, kinks: int = 0, fingers: int = 0,
                 coils: int = 0, *, seed: int = 0, layout: int = 0, turn: int = 0) -> dict:
    """A chain (closed=False) or necklace (closed=True) of n clasped
    unknots with the given numbers of kinks, fingers and coils, dealt to
    the components in turn.

    ``seed`` draws the crossing signs: the handedness of each clasp, the
    sign and end order of each kink, and the mirror image or disk order of
    each coil and finger.  ``layout`` draws where each gadget is spliced
    in, and ``layout`` with ``turn`` draws each component's orientation and
    start rotation.  The seed changes the invariant but not the shape the
    contraction sees, so every seed costs about the same; diagrams that
    differ only in ``turn`` are the same link.
    """
    if n < (3 if closed else 1):
        raise ValueError("a necklace needs at least 3 components")
    signs = random.Random(f"signs/{seed}")
    place = random.Random(f"layout/{layout}")
    b = _Builder(n)
    pairs = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if closed else [])
    nxt, prv = {}, {}
    for i, j in pairs:
        positive = signs.random() < 0.5
        top = b.crossing("+" if positive else "-")
        bottom = b.crossing("+" if positive else "-")
        # the earlier circle is over at T exactly when the clasp is positive
        i_top = "over" if positive else "under"
        j_top = "under" if positive else "over"
        other = {"over": "under", "under": "over"}
        nxt[i] = [[[other[i_top], bottom, None]], [[i_top, top, None]]]
        prv[j] = [[[j_top, top, None]], [[other[j_top], bottom, None]]]
    for u in range(n):
        b.events[u] = nxt.get(u, []) + prv.get(u, [])
    gadgets = [b.kink] * kinks + [b.finger] * fingers + [b.coil] * coils
    for g, gadget in enumerate(gadgets):
        gadget(signs, place, g % n)
    spin = random.Random(f"turn/{layout}/{turn}")
    for u in range(n):
        if spin.random() < 0.5:
            b.reorient(u)
        b.rotate(u, spin.randrange(max(len(b.events[u]), 1)))
    return b.diagram()
