"""Finite groups as validated multiplication tables, plus homomorphism
enumeration from finitely presented groups (the source of diagram colorings).
"""

from __future__ import annotations

from dataclasses import dataclass


class GroupError(ValueError):
    pass


# Steps (extensions of generator images tried) one enumerate_homs call
# may take, which bounds the connections a summed invariant binds.  m dots
# without passages have 2^m connections into Z_2, in 2^(m+1) - 2 steps.
# Through hopfg sum (Python 3.11, Intel Xeon): m = 16 binds 65,536 at
# cyclic:k=2,l=2,d=1 in about 3 s with a 47 MB peak, 3 dots bind 125,000
# at cyclic:k=50,l=2,d=1 in about 4 s with 60 MB, and m = 17 exits 2 in 0.3 s.
MAX_HOM_STEPS = 1 << 17


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[a][b] is the index of the product of elements a and b.  The
    identity, inverses, and associativity are checked on construction,
    naming the first violation found.
    """

    def __init__(self, table, names=None, check: bool = True):
        self.order = len(table)
        if self.order == 0:
            raise GroupError("empty multiplication table")
        self.table = tuple(tuple(row) for row in table)
        for a, row in enumerate(self.table):
            if len(row) != self.order:
                raise GroupError(f"row {a} has length {len(row)}, expected {self.order}")
            for b, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < self.order:
                    raise GroupError(f"entry ({a},{b}) = {v!r} is not an element index")
        if names is not None:
            names = [str(x) for x in names]
            if len(names) != self.order:
                raise GroupError("names list does not match group order")
        self.names = names or [f"g{i}" for i in range(self.order)]

        identity = None
        for e in range(self.order):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.order)):
                identity = e
                break
        if identity is None:
            raise GroupError("no identity element in table")
        self.identity_index = identity

        inverses = []
        for a in range(self.order):
            inv = next(
                (b for b in range(self.order)
                 if self.table[a][b] == identity and self.table[b][a] == identity),
                None,
            )
            if inv is None:
                raise GroupError(f"element {a} has no inverse")
            inverses.append(inv)
        self.inverses = tuple(inverses)

        if check:
            t = self.table
            for a in range(self.order):
                for b in range(self.order):
                    ab = t[a][b]
                    for c in range(self.order):
                        if t[ab][c] != t[a][t[b][c]]:
                            raise GroupError(f"associativity fails at triple ({a},{b},{c})")

    # -- element access ------------------------------------------------------

    def element(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise GroupError(f"element index {index} out of range")
        return GroupElement(self, index)

    @property
    def identity(self) -> "GroupElement":
        return GroupElement(self, self.identity_index)

    def elements(self):
        return [GroupElement(self, i) for i in range(self.order)]

    def element_by_name(self, name: str) -> "GroupElement":
        try:
            return GroupElement(self, self.names.index(name))
        except ValueError:
            raise GroupError(f"no element named {name!r}") from None

    def conj(self, b: int, a: int) -> int:
        """Index of b a b^{-1}."""
        return self.table[self.table[b][a]][self.inverses[b]]

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True)
class GroupElement:
    group: FiniteGroup
    index: int

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            raise GroupError("elements of different groups")
        return GroupElement(self.group, self.group.table[self.index][other.index])

    @property
    def inv(self) -> "GroupElement":
        return GroupElement(self.group, self.group.inverses[self.index])

    @property
    def name(self) -> str:
        return self.group.names[self.index]

    def is_identity(self) -> bool:
        return self.index == self.group.identity_index

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.group is self.group
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.group), self.index))

    def __repr__(self):
        return f"<{self.name}>"


# ---------------------------------------------------------------------------
# constructors


def cyclic_group(k: int) -> FiniteGroup:
    if k < 1:
        raise GroupError("cyclic group order must be positive")
    table = [[(a + b) % k for b in range(k)] for a in range(k)]
    names = ["1"] + [f"a^{i}" if i > 1 else "a" for i in range(1, k)]
    return FiniteGroup(table, names=names, check=False)


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    n, m = g.order, h.order
    table = [
        [g.table[a1][b1] * m + h.table[a2][b2] for b1 in range(n) for b2 in range(m)]
        for a1 in range(n)
        for a2 in range(m)
    ]
    names = [f"({g.names[a1]},{h.names[a2]})" for a1 in range(n) for a2 in range(m)]
    return FiniteGroup(table, names=names, check=False)


def group_from_table(table, names=None) -> FiniteGroup:
    return FiniteGroup(table, names=names, check=True)


# ---------------------------------------------------------------------------
# presentations and homomorphisms


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generators 1..n, relation words as tuples of
    nonzero signed generator numbers (negative = inverse)."""

    num_generators: int
    relations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for word in self.relations:
            for letter in word:
                if letter == 0 or abs(letter) > self.num_generators:
                    raise GroupError(f"bad letter {letter} in relation {word}")


class GroupHom:
    """A homomorphism from a finitely presented group into a FiniteGroup,
    recorded by its generator images."""

    def __init__(self, target: FiniteGroup, images: tuple[GroupElement, ...]):
        self.target = target
        self.images = tuple(images)

    def word_image(self, word) -> GroupElement:
        return self.target.element(
            _word_index(self.target, word, [g.index for g in self.images]))

    def __eq__(self, other):
        return (
            isinstance(other, GroupHom)
            and other.target is self.target
            and other.images == self.images
        )

    def __hash__(self):
        return hash((id(self.target), self.images))

    def __repr__(self):
        return f"GroupHom({', '.join(e.name for e in self.images)})"


def _word_index(G: FiniteGroup, word, images) -> int:
    """The index in G of word's image, generator i + 1 sent to images[i]."""
    t, inv, acc = G.table, G.inverses, G.identity_index
    for letter in word:
        g = images[abs(letter) - 1]
        acc = t[acc][g if letter > 0 else inv[g]]
    return acc


def enumerate_homs(pres: Presentation, G: FiniteGroup) -> list[GroupHom]:
    """All tuples in G^m satisfying the relations, lexicographic by index.

    The images of generators 1..k that pass every relation among them are
    extended by each image of generator k + 1 in turn, one generator at a
    time (no recursion, so m is not bounded by Python's stack); a relation
    is checked as soon as every generator it mentions has an image.  Each
    extension tried is one step, and a GroupError is raised before a
    generator whose extensions would take the total past MAX_HOM_STEPS.
    """
    m = pres.num_generators
    # bucket relations by the largest generator they mention
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(m + 1)]
    for word in pres.relations:
        top = max((abs(x) for x in word), default=0)
        buckets[top].append(word)

    e, steps = G.identity_index, 0
    level = [()] if all(_word_index(G, w, ()) == e for w in buckets[0]) else []
    for k in range(1, m + 1):
        steps += len(level) * G.order
        if steps > MAX_HOM_STEPS:
            raise GroupError(
                f"too many connections to enumerate: {m} generators into a group of "
                f"order {G.order} take more than {MAX_HOM_STEPS} steps (MAX_HOM_STEPS)")
        extended = (t + (g,) for t in level for g in range(G.order))
        level = [x for x in extended if all(_word_index(G, w, x) == e for w in buckets[k])]
    elements = G.elements()
    return [GroupHom(G, tuple(map(elements.__getitem__, t))) for t in level]
