"""Spans around hopfg's public functions, installed from outside.

The tracer rebinds each traced function in every ``hopfg`` module that
imported it, and each traced method on its class, so the program's own
code is unchanged.  A span is (name, start, end, parent span, operation
id); spans stay in memory until ``dump`` writes them out.  Scalar
arithmetic (``Cyclo`` add, mul and inverse) runs millions of times per
run, so it is counted and timed per layer, and its time is charged to
the enclosing span, but it is not kept as spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (layer name, module, attribute); a dotted attribute is Class.method
FUNCTIONS = [
    ("algebra.mul_raw", "hopfg.algebra", "HopfGAlgebra.mul_raw"),
    ("algebra.coproduct_power", "hopfg.algebra", "HopfGAlgebra.coproduct_power"),
    ("integrals.solve", "hopfg.integrals", "solve_integrals"),
    ("verify.axioms", "hopfg.verify", "verify_axioms"),
    ("verify.drinfeld", "hopfg.verify", "drinfeld_element"),
    ("evaluate", "hopfg.evaluate", "evaluate"),
    ("evaluate.summed", "hopfg.evaluate", "evaluate_summed"),
    ("groups.enumerate_homs", "hopfg.groups", "enumerate_homs"),
    ("diagrams.validate", "hopfg.diagrams", "validate"),
    ("diagrams.color", "hopfg.diagrams", "color"),
    ("moves.apply", "hopfg.moves", "apply_move"),
    ("moves.candidates", "hopfg.moves", "move_candidates"),
    ("serialize.load", "hopfg.serialize", "resolve_algebra"),
    ("serialize.load", "hopfg.serialize", "resolve_diagram"),
    ("serialize.dump", "hopfg.serialize", "algebra_to_json"),
    ("serialize.dump", "hopfg.serialize", "diagram_to_json"),
    ("serialize.dump", "hopfg.serialize", "dumps_canonical"),
    ("cli.main", "hopfg.cli", "main"),
]
SCALARS = {
    "cyclo.mul": ("__mul__", "__rmul__"),
    "cyclo.add": ("__add__", "__radd__"),
    "cyclo.inverse": ("inverse",),
}


class Tracer:
    """Collects spans and scalar counters while installed."""

    def __init__(self):
        self.spans = []       # (name, start, end, parent index, op id)
        self.stack = []       # indices of open spans
        self.op = None        # id of the operation in progress
        self.scalar = {name: [0, 0.0] for name in SCALARS}
        self.scalar_in = {}   # span index -> scalar seconds directly inside
        self.terms = 0        # coproduct_power output entries
        self.load_bytes = 0   # bytes of JSON files read by resolve_*
        self.yields = 0       # specs returned by move_candidates
        self._undo = []

    # -- installation ---------------------------------------------------------

    def install(self):
        from hopfg.cyclo import Cyclo

        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "hopfg" or name.startswith("hopfg."))]
        for name, modname, attr in FUNCTIONS:
            owner = sys.modules.get(modname)
            if owner is None:  # not imported, so never called
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, meth, self._span(name, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapped = self._span(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for name, attrs in SCALARS.items():
            orig = getattr(Cyclo, attrs[0])
            wrapped = self._scalar(name, orig)
            for attr in attrs:
                self._set(Cyclo, attr, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            self._after(name, args, result)
            return result

        return traced

    def _scalar(self, name, fn):
        acc, stack, inside = self.scalar[name], self.stack, self.scalar_in
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args):
            if self.op is None:
                return fn(*args)
            start = clock()
            result = fn(*args)
            dt = clock() - start
            acc[0] += 1
            acc[1] += dt
            if stack:
                top = stack[-1]
                inside[top] = inside.get(top, 0.0) + dt
            return result

        return traced

    def _after(self, name, args, result):
        if name == "algebra.coproduct_power":
            self.terms += len(result.entries)
        elif name == "moves.candidates":
            self.yields += len(result)
        elif name == "serialize.load" and os.path.isfile(args[0]):
            self.load_bytes += os.path.getsize(args[0])

    # -- results ----------------------------------------------------------------

    def state(self) -> dict:
        """Everything recorded, as plain data (for a child process to hand
        to its parent)."""
        return {
            "spans": self.spans,
            "scalar": self.scalar,
            "scalar_in": {str(k): v for k, v in self.scalar_in.items()},
            "terms": self.terms,
            "load_bytes": self.load_bytes,
            "yields": self.yields,
        }


def layer_totals(states: list) -> dict:
    """Per-layer counts and seconds summed over tracer states.

    A span's seconds count only when no enclosing span has the same name,
    so recursion (``resolve_diagram`` of a connected sum) is not counted
    twice.  ``evaluate.self_s`` is the time inside ``evaluate`` not covered
    by the spans it opened or by the scalar arithmetic it ran directly.
    """
    out = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    for st in states:
        spans = st["spans"]
        inside = {int(k): v for k, v in st["scalar_in"].items()}
        child_time = {}
        dry_runs = 0
        for idx, (name, start, end, parent, op) in enumerate(spans):
            dur = end - start
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + dur
            add(name + ".calls", 1)
            up, nested = parent, False
            while up >= 0:
                if spans[up][0] == name:
                    nested = True
                    break
                up = spans[up][3]
            if not nested:
                add(name + ".s", dur)
            if name == "moves.apply" and parent >= 0 and spans[parent][0] == "moves.candidates":
                dry_runs += 1
        for idx, (name, start, end, parent, op) in enumerate(spans):
            if name == "evaluate":
                add("evaluate.self_s", end - start - child_time.get(idx, 0.0) - inside.get(idx, 0.0))
        for name, (calls, secs) in st["scalar"].items():
            add(name + ".calls", calls)
            add(name + ".s", secs)
        add("algebra.coproduct_power.terms", st["terms"])
        add("serialize.load.bytes", st["load_bytes"])
        add("moves.candidates.yield.specs", st["yields"])
        add("moves.candidates.yield.tried", dry_runs)
    return out


def dump(path: str, states: list):
    """Write every span as one JSON line: process, name, start, end,
    parent index, operation id."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for proc, st in enumerate(states):
            for name, start, end, parent, op in st["spans"]:
                fh.write(json.dumps([proc, name, start, end, parent, op]) + "\n")
