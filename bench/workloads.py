"""The four workloads: their inputs, their operations and the checks.

A workload is built in three steps.  ``setup`` is the program's own
set-up (import hopfg, build algebras, solve integrals, write input
files); it is what ``setup_s`` times.  ``prepare`` makes the expected
values, by the oracle or from properties of the invariant, and is not
timed.  ``operations`` lists the round: the operations the timed phase
runs, in order, again and again.

An operation is ``Op(label, run, check)``.  Only ``run`` is timed.
``check`` gets its result and returns None, or the reason it is wrong.
Checks may read values that earlier operations of the same round put in
``self.seen``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from links import clasped_link
from oracle import cyclic_value, parse_terms, reduce_counts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GRID = [(k, l, d) for k in (1, 2, 3) for l in range(1, 7) for d in range(l)]
KP = "kac-paljutkin"


@dataclass
class Op:
    label: str
    run: object
    check: object


def cyclic_spec(k, l, d):
    return f"cyclic:k={k},l={l},d={d}"


def parse_cyclic(spec):
    if not spec.startswith("cyclic:"):
        return None
    vals = dict(part.split("=") for part in spec[len("cyclic:"):].split(","))
    return int(vals["k"]), int(vals["l"]), int(vals["d"])


def plain(value, conductor):
    """An engine scalar as {power: Fraction} at the algebra's conductor."""
    return dict(value.lift(conductor).c)


def times(a: dict, b: dict, n: int) -> dict:
    """Product of two {power: Fraction} values in Q(zeta_n), reduced by the
    oracle's own cyclotomic reduction."""
    counts = [Fraction(0)] * (2 * n)
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            counts[e1 + e2] += v1 * v2
    return {e: v for e, v in reduce_counts(counts, n).items() if v}


def plus(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def flat_colorings(diagram: dict, K: int) -> list:
    """Every coloring of the dots by 0..K-1 under which each undotted
    component's word is trivial, in hopfg's lexicographic hom order."""
    dots = [x["id"] for x in diagram["dotted"]]
    words = [[(ref, 1 if kind == "down" else -1) for kind, ref in u["events"]
              if kind in ("down", "up")] for u in diagram["undotted"]]
    out = []
    for alphas in product(range(K), repeat=len(dots)):
        col = dict(zip(dots, alphas))
        if all(sum(s * col[ref] for ref, s in w) % K == 0 for w in words):
            out.append(col)
    return out


def expected_cyclic(diagram: dict, k: int, l: int, d: int) -> list:
    """[(coloring, value)] for every flat connection, by the oracle."""
    return [(col, cyclic_value(diagram, k, l, d, col))
            for col in flat_colorings(diagram, k)]


def compare_summed(summed, expected, conductor) -> str | None:
    """A SummedInvariant against [(coloring, value)] from the oracle."""
    if summed.hom_count != len(expected):
        return f"{summed.hom_count} connections, expected {len(expected)}"
    total = {}
    for (col, want), hom, iv in zip(expected, summed.homs, summed.values):
        if [img.index for img in hom.images] != list(col.values()):
            return f"connection {[img.index for img in hom.images]} out of order"
        if plain(iv.value, conductor) != want:
            return f"value at connection {list(col.values())} differs from the oracle"
        total = plus(total, want)
    if plain(summed.total, conductor) != total:
        return "sum over connections differs from the oracle"
    return None


def seeded_walk(hp, cd, group, rng: random.Random, steps: int) -> list:
    """Move specs for a seeded walk from the colored diagram cd.  Each step
    draws a move type uniformly among those ``move_candidates`` offers,
    then one of its specs; a spec that would give the diagram more
    passages or crossings than at the start is skipped, so the cost of
    every step stays close to the start's."""
    passages = sum(len(x.passages) for x in cd.diagram.dotted)
    crossings = len(cd.diagram.crossings)
    specs = []
    for _ in range(steps):
        by_move = {}
        for c in hp.move_candidates(cd, inserts=True, group=group):
            by_move.setdefault(c["move"], []).append(c)
        while True:  # global-conjugate never grows a diagram, so this ends
            name = rng.choice(sorted(by_move))
            spec = rng.choice(by_move[name])
            moved = hp.apply_move(cd, spec, group=group)
            d = moved.diagram
            if (sum(len(x.passages) for x in d.dotted) <= passages
                    and len(d.crossings) <= crossings):
                break
            by_move[name].remove(spec)
            if not by_move[name]:
                del by_move[name]
        cd = moved
        specs.append(spec)
    return specs


def _import_hopfg():
    if not os.path.isfile(os.path.join(SRC, "hopfg", "__init__.py")):
        raise SystemExit(f"error: no hopfg sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hopfg

    if os.path.dirname(os.path.dirname(os.path.abspath(hopfg.__file__))) != SRC:
        raise SystemExit(f"error: imported hopfg from {hopfg.__file__}, not {SRC}")
    return hopfg


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.seen = {}

    def setup(self):
        self.hp = _import_hopfg()

    def prepare(self):
        pass

    def operations(self) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _bank(self, specs):
        hp = self.hp
        out = {}
        for spec in specs:
            H = hp.builtin_algebra(spec)
            out[spec] = (H, hp.solve_integrals(H))
        return out


# ---------------------------------------------------------------------------


class SmallDiagrams(Workload):
    """Every builtin diagram and two connected sums, summed over all
    connections on the 63 grid algebras and Kac-Paljutkin, then Kac-Paljutkin
    under rotation and reorientation, then seeded move walks."""

    name = "small-diagrams"
    SUMS = ("connected-sum:cp2,s2xs2", "connected-sum:s1xs3,cp2bar")
    # (algebra, diagram) of each walk; the seed draws connection and moves
    WALKS = ((KP, "s1xs1xs2"), ("cyclic:k=2,l=3,d=1", "s2xs2"), ("cyclic:k=3,l=2,d=1", "cp2"),
             ("cyclic:k=1,l=4,d=3", "s1xs3"), ("cyclic:k=2,l=3,d=1", "s1xs1xs2"), (KP, "cp2bar"))
    STEPS = 4

    def setup(self):
        super().setup()
        hp = self.hp
        self.specs = [cyclic_spec(*p) for p in GRID] + [KP]
        self.bank = self._bank(self.specs)
        self.names = list(hp.builtin_diagram_names()) + list(self.SUMS)
        self.diagrams = {n: hp.builtin_diagram(n) for n in self.names}

    def prepare(self):
        hp = self.hp
        rng = random.Random(self.seed)
        self.plain = {n: hp.diagram_to_json(d) for n, d in self.diagrams.items()}
        self.expected = {}
        for spec in self.specs[:-1]:
            k, l, d = parse_cyclic(spec)
            for n in self.names:
                self.expected[spec, n] = expected_cyclic(self.plain[n], k, l, d)
        # Kac-Paljutkin: each diagram again under a seeded rotation and
        # reorientation of every undotted component
        self.turned = {}
        for n in self.names:
            d = self.diagrams[n]
            if not d.undotted:
                continue
            for u in d.undotted:
                if rng.random() < 0.5:
                    d = hp.reorient(d, u.id)
                d = hp.rotate_component(d, u.id, rng.randrange(max(len(u.events), 1)))
            self.turned[n] = d
        # walks: connection and moves are drawn here; each round replays them
        self.walks = []
        for spec, name in self.WALKS:
            G = self.bank[spec][0].group
            homs = hp.enumerate_homs(hp.fundamental_presentation(self.diagrams[name]), G)
            hom_index = rng.randrange(len(homs))
            start = hp.color(self.diagrams[name], homs[hom_index])
            self.walks.append((spec, name, hom_index,
                               seeded_walk(hp, start, G, rng, self.STEPS)))

    def operations(self):
        ops = []
        for spec in self.specs:
            for n in self.names:
                ops.append(Op(f"summed {n} @ {spec}", self._summed(spec, self.diagrams[n]),
                              self._check_summed(spec, n)))
        for n, d in self.turned.items():
            ops.append(Op(f"turned {n} @ {KP}", self._summed(KP, d), self._check_turned(n)))
        for w, walk in enumerate(self.walks):
            for step in range(self.STEPS):
                ops.append(Op(f"walk {w} step {step} @ {walk[0]}", self._step(w, step),
                              self._check_step(w)))
        return ops

    def _summed(self, spec, d):
        H, ints = self.bank[spec]
        hp = self.hp
        return lambda: hp.evaluate_summed(H, ints, d)

    def _check_summed(self, spec, n):
        H = self.bank[spec][0]

        def check(summed):
            values = {tuple(img.index for img in hom.images): plain(iv.value, H.conductor)
                      for hom, iv in zip(summed.homs, summed.values)}
            self.seen[spec, n] = values
            if spec != KP:
                return compare_summed(summed, self.expected[spec, n], H.conductor)
            if n == "s1xs3" and any(v != {0: 8} for v in values.values()):
                return "s1xs3 differs from dim H_1 = 8"
            if n == "s4" and values != {(): {0: 1}}:
                return "s4 differs from 1"
            if n.startswith("connected-sum:"):
                a, b = n[len("connected-sum:"):].split(",")
                na = len(self.diagrams[a].dotted)
                for imgs, v in values.items():
                    va = self.seen[spec, a][imgs[:na]]
                    vb = self.seen[spec, b][imgs[na:]]
                    if v != times(va, vb, H.conductor):
                        return f"connected sum at {imgs} is not the product"
            return None

        return check

    def _check_turned(self, n):
        conductor = self.bank[KP][0].conductor

        def check(summed):
            values = {tuple(img.index for img in hom.images): plain(iv.value, conductor)
                      for hom, iv in zip(summed.homs, summed.values)}
            if values != self.seen[KP, n]:
                return "rotation and reorientation changed the value"
            return None

        return check

    def _step(self, w, step):
        spec, name, hom_index, moves = self.walks[w]
        H, ints = self.bank[spec]
        hp = self.hp

        def run():
            if step == 0:
                d = self.diagrams[name]
                self._walk = hp.color(d, hp.enumerate_homs(
                    hp.fundamental_presentation(d), H.group)[hom_index])
            offered = hp.move_candidates(self._walk, inserts=True, group=H.group)
            self._walk = hp.apply_move(self._walk, moves[step], group=H.group)
            return hp.evaluate(H, ints, self._walk), moves[step] in offered

        return run

    def _check_step(self, w):
        spec, name, hom_index, _ = self.walks[w]
        H = self.bank[spec][0]

        def check(result):
            iv, offered = result
            if not offered:
                return "move_candidates no longer offers the walk's move"
            if spec == KP:
                want = list(self.seen[KP, name].values())[hom_index]
            else:
                want = self.expected[spec, name][hom_index][1]
            if plain(iv.value, H.conductor) != want:
                return "move changed the value"
            return None

        return check


# ---------------------------------------------------------------------------


class WideLinks(Workload):
    """Seeded chains and necklaces of 3-6 clasped unknots with kinks, coils
    and fingers; every connection at a few cyclic algebras, and the links
    with dots on Kac-Paljutkin.

    Kac-Paljutkin has no closed form, so its values are checked by
    invariance: a finger can be pulled back out of its dot, so the
    connections that differ only there agree; a link with a coil is
    evaluated again under a second rotation and orientation.  The links
    without dots are not run on Kac-Paljutkin: a second rotation would be
    their only check, and those cheap evaluations would sit at the middle
    of the op times, where op_p50_ms would jump between them and the
    cyclic ones from run to run.
    """

    name = "wide-links"
    L4, L4K2, L5, L6 = ("cyclic:k=1,l=4,d=1", "cyclic:k=2,l=4,d=3",
                        "cyclic:k=1,l=5,d=2", "cyclic:k=1,l=6,d=1")
    # (components, closed, kinks, fingers, coils, algebras)
    SHAPES = (
        (3, False, 2, 0, 1, (L4, L4K2, L5, L6, KP)),
        (3, True, 3, 1, 0, (L4, L4K2, KP)),
        (4, False, 3, 1, 0, (L4, L4K2, KP)),
        (4, True, 4, 0, 0, (L4, L4K2)),
        (5, False, 3, 0, 0, (L4, L4K2)),
        (5, True, 4, 0, 1, (L4, L4K2, KP)),
        (6, False, 4, 0, 0, (L4, L4K2)),
        (6, True, 5, 0, 0, (L4,)),
    )

    def setup(self):
        super().setup()
        hp = self.hp
        self.bank = self._bank([self.L4, self.L4K2, self.L5, self.L6, KP])
        kp_group = self.bank[KP][0].group
        self.links = []
        for i, (n, closed, kinks, fingers, coils, specs) in enumerate(self.SHAPES):
            shape = (n, closed, kinks, fingers, coils)
            link = clasped_link(*shape, seed=self.seed * 100 + i, layout=i)
            d = hp.diagram_from_json(link)
            cols = {s: hp.colorings(d, self.bank[s][0].group) for s in specs}
            turned = []
            if coils:
                dt = hp.diagram_from_json(
                    clasped_link(*shape, seed=self.seed * 100 + i, layout=i, turn=1))
                turned = hp.colorings(dt, kp_group)
            self.links.append((i, link, cols, turned))

    def prepare(self):
        self.expected = {}
        # dots of each link that carry a finger: both passages on one
        # component, in opposite directions
        self.fingers = {}
        for i, link, cols, _ in self.links:
            self.fingers[i] = [
                n for n, x in enumerate(link["dotted"])
                if sorted(link["undotted"][u]["events"][p][0] for u, p in x["passages"])
                == ["down", "up"]]
            for spec in cols:
                if spec != KP:
                    k, l, d = parse_cyclic(spec)
                    for col in flat_colorings(link, k):
                        self.expected[i, spec, tuple(col.values())] = cyclic_value(link, k, l, d, col)

    def operations(self):
        ops = []
        for i, _, cols, turned in self.links:
            for spec, cds in cols.items():
                for cd in cds:
                    ops.append(Op(f"link {i} {self._hom(cd)} @ {spec}",
                                  self._eval(spec, cd), self._check(i, spec, cd)))
            for cd in turned:
                ops.append(Op(f"link {i} turned {self._hom(cd)} @ {KP}",
                              self._eval(KP, cd), self._check_turned(i, cd)))
        return ops

    @staticmethod
    def _hom(cd):
        return tuple(cd.colors[x.id].index for x in cd.diagram.dotted)

    def _eval(self, spec, cd):
        H, ints = self.bank[spec]
        hp = self.hp
        return lambda: hp.evaluate(H, ints, cd)

    def _check(self, i, spec, cd):
        H = self.bank[spec][0]
        hom = self._hom(cd)

        def check(iv):
            got = plain(iv.value, H.conductor)
            self.seen[i, spec, hom] = got
            if spec != KP:
                return None if got == self.expected.get((i, spec, hom)) \
                    else "value differs from the oracle"
            # the same connection with every finger's dot colored trivially
            base = tuple(0 if n in self.fingers[i] else a for n, a in enumerate(hom))
            if got != self.seen[i, spec, base]:
                return "pulling a finger out of its dot changed the value"
            return None

        return check

    def _check_turned(self, i, cd):
        key = (i, KP, self._hom(cd))
        conductor = self.bank[KP][0].conductor

        def check(iv):
            if plain(iv.value, conductor) != self.seen[key]:
                return "rotation and reorientation changed the value"
            return None

        return check


# ---------------------------------------------------------------------------


class AlgebraCheck(Workload):
    """The ``hopfg check`` path on Kac-Paljutkin and four of the largest
    grid algebras, each loaded from its exported canonical JSON."""

    name = "algebra-check"

    def setup(self):
        super().setup()
        hp = self.hp
        rng = random.Random(self.seed)
        # d is drawn among values with the same gcd with l, so every seed
        # gives R-matrices of the same density
        self.specs = [KP, cyclic_spec(3, 6, rng.choice((1, 5))),
                      cyclic_spec(3, 5, rng.choice((1, 2, 3, 4))),
                      cyclic_spec(2, 6, rng.choice((1, 5))),
                      cyclic_spec(3, 4, rng.choice((1, 3)))]
        self.algebras = {}
        for spec in self.specs:
            H = hp.builtin_algebra(spec)
            path = os.path.join(self.work, spec.replace(":", "_").replace(",", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(hp.dumps_canonical(hp.algebra_to_json(H)))
            self.algebras[spec] = (H, path)

    def operations(self):
        return [Op(f"check {spec}", self._run(spec), self._check(spec)) for spec in self.specs]

    def _run(self, spec):
        hp = self.hp
        path = self.algebras[spec][1]

        def run():
            H = hp.resolve_algebra(path)
            report = hp.verify_axioms(H)
            ints = hp.solve_integrals(H)
            u = hp.drinfeld_element(H)
            text = hp.dumps_canonical(hp.algebra_to_json(H))
            return H, report, ints, u, text

        return run

    def _check(self, spec):
        original, path = self.algebras[spec]
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        size = 8 if spec == KP else parse_cyclic(spec)[1]

        def check(result):
            H, report, ints, u, text = result
            failed = [name for name, ok, _ in report.checks if not ok]
            if failed:
                return f"axiom checks failed: {failed}"
            cond = H.conductor
            for a in range(H.group.order):
                entries = {i: plain(v, cond) for i, v in ints.integral(a).entries.items()}
                if entries != {i: {0: Fraction(1, size)} for i in range(size)}:
                    return f"integral of grade {a} is not 1/{size} on every basis vector"
            lam = [plain(v, cond) for v in ints.lam_values]
            if lam != [{0: Fraction(size)}] + [{}] * (size - 1):
                return "cointegral differs from its closed form"
            if not u.grade.is_identity():
                return "drinfeld element is not in grade 1"
            if text != source:
                return "re-exported JSON differs from the loaded file"
            if H != original:
                return "loaded algebra differs from the exported one"
            return None

        return check


# ---------------------------------------------------------------------------


class CliSession(Workload):
    """A seeded list of ``hopfg`` commands, each in a fresh interpreter."""

    name = "cli-session"
    in_process = False
    traced = False  # run each command under bench/cli_traced.py
    op_id = 0       # operation id the traced command records its spans under

    def setup(self):
        super().setup()
        hp = self.hp
        rng = random.Random(self.seed)
        w = self.work
        self.files = {}

        def write(name, obj):
            path = os.path.join(w, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(obj if isinstance(obj, str) else json.dumps(obj))
            self.files[name] = path
            return path

        s = self.seed * 100
        self.link_a = clasped_link(3, False, 2, 1, 0, seed=s + 1, layout=1)
        self.link_b = clasped_link(3, True, 2, 0, 0, seed=s + 2, layout=2)
        write("link_a.json", self.link_a)
        write("link_b.json", self.link_b)
        broken = json.loads(json.dumps(self.link_b))
        broken["undotted"][0]["events"] = [
            ["over" if k == "under" else k, ref] for k, ref in broken["undotted"][0]["events"]]
        write("broken_link.json", broken)
        write("not_json.json", '{"dotted": [')
        # move scripts: seeded walks over the candidates the library offers
        kp = hp.builtin_algebra(KP)
        self.script_kp = seeded_walk(hp, hp.color(hp.builtin_diagram("s1xs1xs2"), hp.GroupHom(
            kp.group, (kp.group.element(1), kp.group.element(1)))), kp.group, rng, 3)
        write("script_kp.json", self.script_kp)
        c = hp.builtin_algebra("cyclic:k=2,l=3,d=1")
        link = hp.diagram_from_json(self.link_a)
        cd = hp.colorings(link, c.group)[-1]
        self.script_c = seeded_walk(hp, cd, c.group, rng, 3)
        self.script_c_connection = ",".join(str(cd.colors[x.id].index) for x in link.dotted)
        write("script_c.json", self.script_c)
        self.commands = self._commands(rng)

    def _commands(self, rng):
        """[(argv, expected exit code, check or None)]"""
        f = self.files
        out = os.path.join(self.work, "out")
        sum_alg = rng.choice(("cyclic:k=2,l=3,d=1", "cyclic:k=2,l=3,d=2"))
        sum_dia = "s1xs1xs2"
        inv_alg = cyclic_spec(1, 5, rng.randrange(1, 5))
        int_alg = cyclic_spec(2, 5, rng.randrange(5))
        exp_alg = cyclic_spec(2, 4, rng.choice((1, 3)))
        chk_alg = cyclic_spec(1, 3, rng.randrange(3))
        return [
            (["sum", "--algebra", sum_alg, "--diagram", sum_dia], 0,
             self._text_has(f"sum over {len(flat_colorings(self._builtin_plain(sum_dia), 2))} connection(s)")),
            (["sum", "--algebra", sum_alg, "--diagram", sum_dia, "--format", "json"], 0,
             self._json_oracle(sum_alg, self._builtin_plain(sum_dia))),
            (["invariant", "--algebra", inv_alg, "--diagram", f["link_b.json"], "--format", "json"], 0,
             self._json_oracle(inv_alg, self.link_b)),
            (["invariant", "--algebra", KP, "--diagram", "s1xs3", "--connection", "mu"], 0,
             self._text_has("I = 8\n")),
            (["integrals", "--algebra", int_alg, "--format", "json"], 0, self._json_integrals(5)),
            (["export", "--algebra", exp_alg, "--output", out + "_alg.json"], 0, None),
            (["sum", "--algebra", out + "_alg.json", "--diagram", "connected-sum:cp2,s2xs2",
              "--format", "json"], 0,
             self._json_oracle(exp_alg, self._builtin_plain("connected-sum:cp2,s2xs2"))),
            (["export", "--diagram", f["link_a.json"], "--output", out + "_link.json"], 0, None),
            (["sum", "--algebra", exp_alg, "--diagram", out + "_link.json", "--format", "json"], 0,
             self._json_oracle(exp_alg, self.link_a)),
            (["moves", "--algebra", KP, "--diagram", "s1xs1xs2", "--connection", "mu,mu",
              "--script", f["script_kp.json"], "--format", "json"], 0, self._json_moves_ok),
            (["moves", "--algebra", "cyclic:k=2,l=3,d=1", "--diagram", f["link_a.json"],
              "--connection", self.script_c_connection, "--script", f["script_c.json"]], 0,
             self._text_has(f"result: all {len(self.script_c)} step(s) preserve the invariant")),
            (["check", "--algebra", chk_alg], 0, self._text_has("result: PASS")),
            (["sum", "--algebra", "cyclic:k=0,l=2,d=0", "--diagram", "s4"], 2, None),
            (["invariant", "--algebra", KP, "--diagram", f["broken_link.json"]], 2, None),
            (["sum", "--algebra", KP, "--diagram", f["not_json.json"]], 2, None),
            (["invariant", "--algebra", KP, "--diagram", "s1xs3", "--connection", "nu"], 2, None),
        ]

    def _builtin_plain(self, name):
        return self.hp.diagram_to_json(self.hp.builtin_diagram(name))

    @staticmethod
    def _text_has(text):
        def check(out):
            return None if text in out else f"output lacks {text.strip()!r}"
        return check

    def _json_oracle(self, spec, diagram):
        k, l, d = parse_cyclic(spec)
        expected = expected_cyclic(diagram, k, l, d)

        def check(out):
            doc = json.loads(out)
            got = [parse_terms(c["value"]["terms"]) for c in doc["connections"]]
            if "hom_count" in doc:
                if got != [v for _, v in expected]:
                    return "connection values differ from the oracle"
                total = {}
                for _, v in expected:
                    total = plus(total, v)
                if parse_terms(doc["sum"]["terms"]) != total:
                    return "sum differs from the oracle"
            elif got != [expected[0][1]]:
                return "value differs from the oracle"
            return None

        return check

    @staticmethod
    def _json_integrals(l):
        def check(out):
            doc = json.loads(out)
            for block in doc["integrals"]:
                if [parse_terms(t) for _, t in block["entries"]] != [{0: Fraction(1, l)}] * l:
                    return f"integral of grade {block['grade']} is not 1/{l}"
            return None
        return check

    @staticmethod
    def _json_moves_ok(out):
        doc = json.loads(out)
        if not doc["ok"] or not all(s["equal"] for s in doc["steps"]):
            return "a move changed the value"
        return None

    def prepare(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.peak_kb = 0
        self.child_states = []

    def operations(self):
        ops = []
        for argv, code, check in self.commands:
            ops.append(Op("hopfg " + " ".join(os.path.basename(a) for a in argv),
                          self._spawn(argv), self._check_cli(code, check)))
        return ops

    def _spawn(self, argv):
        def run():
            if self.traced:
                state_path = os.path.join(self.work, "trace_state.json")
                cmd = [sys.executable, os.path.join(ROOT, "bench", "cli_traced.py"), state_path] + argv
                env = dict(self.env, BENCH_SPAWN_TIME=repr(time.time()), BENCH_OP=str(self.op_id))
            else:
                cmd, env = [sys.executable, "-m", "hopfg.cli"] + argv, self.env
            with open(os.path.join(self.work, "stderr.txt"), "w+b") as err:
                proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                        stdout=subprocess.PIPE, stderr=err)
                try:
                    out = proc.stdout.read()
                finally:
                    proc.stdout.close()
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                stderr = err.read().decode("utf-8", "replace")
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            if self.traced:
                with open(state_path, encoding="utf-8") as fh:
                    self.child_states.append(json.load(fh))
                os.remove(state_path)
            return proc.returncode, out.decode("utf-8", "replace"), stderr

        return run

    @staticmethod
    def _check_cli(code, check):
        def run_check(result):
            rc, out, err = result
            if "Traceback" in err:
                return f"traceback on stderr (exit {rc})"
            if rc != code:
                return f"exit {rc}, expected {code}: {err.strip()[-200:]}"
            if code == 2 and not err.strip():
                return "exit 2 without a message"
            return check(out) if check else None

        return run_check

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


WORKLOADS = {w.name: w for w in (SmallDiagrams, WideLinks, AlgebraCheck, CliSession)}
