"""Command line driver: axiom checking, integrals, invariants, move
scripts, and JSON export.

Exit codes: 0 on success, 1 when a verification or equality check
fails, 2 on malformed input (bad specs, unreadable files, invalid
colorings, inapplicable moves).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .algebra import (
    AlgebraStructureError,
    DrinfeldError,
    HopfGAlgebra,
    IntegralError,
)
from .cyclo import Cyclo, render_decimal, render_scalar, render_scalar_terms
from .diagrams import ColoringError, DiagramError, KirbyDiagram, color, fundamental_presentation
from .evaluate import EvaluationError, evaluate, evaluate_summed
from .groups import GroupError, GroupHom
from .integrals import solve_integrals
from .moves import MoveError, apply_move, move_names
from .serialize import (
    SerializeError,
    _read_json,
    algebra_to_json,
    diagram_to_json,
    dumps_canonical,
    resolve_algebra,
    resolve_diagram,
)
from .verify import drinfeld_element, verify_axioms


@dataclass
class RunConfig:
    """One resolved CLI invocation: where the algebra and diagram come
    from, which flat connection to use, and how to print results."""

    algebra: str
    diagram: str | None = None
    connection: str = "trivial"
    format: str = "text"


# ---------------------------------------------------------------------------
# rendering helpers


def _exact_line(v: Cyclo, conductor: int, label: str = "I") -> str:
    text = render_scalar(v)
    if "z^" in text:
        text = f"{text}  (z = primitive {conductor}-th root of unity)"
    return f"{label} = {text}"


def _decimal_line(v: Cyclo) -> str:
    return f"    ~ {render_decimal(v)}  (12-digit approximation, not authoritative)"


def _scalar_json(v: Cyclo, conductor: int) -> dict:
    return {
        "terms": render_scalar_terms(v.lift(conductor)),
        "decimal_approx": render_decimal(v),
    }


def _emit(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _connection_label(d: KirbyDiagram, hom: GroupHom) -> str:
    if not d.dotted:
        return "(trivial: no dotted components)"
    pairs = ", ".join(
        f"x{x.id}={img.name}" for x, img in zip(d.dotted, hom.images))
    return f"({pairs})"


def _parse_connection(spec: str, H: HopfGAlgebra, d: KirbyDiagram) -> GroupHom:
    G = H.group
    n = fundamental_presentation(d).num_generators
    if spec == "trivial":
        return GroupHom(G, (G.identity,) * n)
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if len(tokens) != n:
        raise ColoringError(
            f"connection spec needs {n} generator image(s), got {len(tokens)}")
    images = []
    for t in tokens:
        try:
            images.append(G.element_by_name(t))
        except GroupError:
            try:
                idx = int(t)
            except ValueError:
                raise GroupError(
                    f"{t!r} is neither a group element name nor an index") from None
            images.append(G.element(idx))
    return GroupHom(G, tuple(images))


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(cfg: RunConfig) -> int:
    H = resolve_algebra(cfg.algebra)
    report = verify_axioms(H)
    checks = list(report.checks)

    try:
        solve_integrals(H)
        checks.append(("integrals solved and normalized", True, None))
    except IntegralError as exc:
        checks.append(("integrals solved and normalized", False, str(exc)))
    try:
        drinfeld_element(H)
        checks.append(
            ("drinfeld element central, antipode-fixed, invertible", True, None))
    except DrinfeldError as exc:
        checks.append(
            ("drinfeld element central, antipode-fixed, invertible", False,
             str(exc)))

    ok = all(passed for _, passed, _ in checks)
    npass = sum(1 for _, passed, _ in checks if passed)
    if cfg.format == "json":
        _emit(dumps_canonical({
            "command": "check",
            "algebra": cfg.algebra,
            "checks": [
                {"name": name, "ok": passed, "witness": witness}
                for name, passed, witness in checks
            ],
            "ok": ok,
        }))
    else:
        _emit(f"algebra: {cfg.algebra}  (|G|={H.group.order}, dims={H.dims}, "
              f"conductor={H.conductor})")
        for name, passed, witness in checks:
            if passed:
                _emit(f"[PASS] {name}")
            else:
                _emit(f"[FAIL] {name}: {witness}")
        _emit(f"result: {'PASS' if ok else 'FAIL'} ({npass}/{len(checks)} checks)")
    return 0 if ok else 1


def cmd_integrals(cfg: RunConfig) -> int:
    H = resolve_algebra(cfg.algebra)
    data = solve_integrals(H)
    cond = H.conductor
    G = H.group
    if cfg.format == "json":
        integrals = []
        for a in H.support:
            vec = data.integral(a)
            integrals.append({
                "grade": G.names[a],
                "entries": [
                    [i, render_scalar_terms(v.lift(cond))]
                    for i, v in sorted(vec.entries.items())
                ],
            })
        lam = [
            [i, render_scalar_terms(v.lift(cond))]
            for i, v in enumerate(data.lam_values) if v
        ]
        _emit(dumps_canonical({
            "command": "integrals",
            "algebra": cfg.algebra,
            "conductor": cond,
            "integrals": integrals,
            "lambda": lam,
        }))
        return 0
    from .algebra import format_vector

    _emit(f"algebra: {cfg.algebra}  (conductor={cond})")
    for a in H.support:
        _emit(f"Lambda_{G.names[a]} = {format_vector(H, data.integral(a))}")
    e = G.identity_index
    parts = [
        f"lam({H.basis_name(e, i)}) = {render_scalar(v)}"
        for i, v in enumerate(data.lam_values)
    ]
    _emit("cointegral: " + "; ".join(parts))
    return 0


def cmd_invariant(cfg: RunConfig) -> int:
    H = resolve_algebra(cfg.algebra)
    d = resolve_diagram(cfg.diagram)
    data = solve_integrals(H)
    cond = H.conductor

    if cfg.connection == "all":
        summed = evaluate_summed(H, data, d)
        pairs = list(zip(summed.homs, summed.values))
    else:
        hom = _parse_connection(cfg.connection, H, d)
        pairs = [(hom, evaluate(H, data, color(d, hom)))]

    if cfg.format == "json":
        payload = {
            "command": "invariant",
            "algebra": cfg.algebra,
            "diagram": cfg.diagram,
            "conductor": cond,
            "connections": [
                {
                    "images": [img.name for img in hom.images],
                    "value": _scalar_json(iv.value, cond),
                }
                for hom, iv in pairs
            ],
        }
        if cfg.connection == "all":
            payload["hom_count"] = summed.hom_count
            payload["sum"] = _scalar_json(summed.total, cond)
        _emit(dumps_canonical(payload))
        return 0
    _emit(f"algebra: {cfg.algebra}")
    _emit(f"diagram: {cfg.diagram}")
    if cfg.connection != "all":
        hom, iv = pairs[0]
        _emit(f"connection: {cfg.connection} {_connection_label(d, hom)}")
        _emit(_exact_line(iv.value, cond))
        _emit(_decimal_line(iv.value))
        return 0
    for idx, (hom, iv) in enumerate(pairs):
        _emit(f"connection {idx} {_connection_label(d, hom)}: "
              + _exact_line(iv.value, cond))
    _emit(f"sum over {summed.hom_count} connection(s): "
          + _exact_line(summed.total, cond))
    _emit(_decimal_line(summed.total))
    return 0


def cmd_moves(cfg: RunConfig, script_path: str) -> int:
    H = resolve_algebra(cfg.algebra)
    d = resolve_diagram(cfg.diagram)
    data = solve_integrals(H)
    cond = H.conductor
    if cfg.connection == "all":
        raise SerializeError("the moves command needs a single connection")

    script = _read_json(script_path)
    if not isinstance(script, list):
        raise SerializeError("move script must be a JSON list of move objects")
    for idx, step in enumerate(script):
        if not isinstance(step, dict) or "move" not in step:
            raise SerializeError(f"script step {idx} must be an object with 'move'")
        if step["move"] not in move_names():
            raise SerializeError(
                f"script step {idx}: unknown move {step['move']!r}")

    hom = _parse_connection(cfg.connection, H, d)
    cd = color(d, hom)
    base = evaluate(H, data, cd)
    steps = []
    prev = base.value
    all_equal = True
    for idx, step in enumerate(script):
        try:
            cd = apply_move(cd, step, group=H.group)
        except MoveError as exc:
            raise MoveError(f"script step {idx}: {exc}") from None
        iv = evaluate(H, data, cd)
        equal = iv.value == prev
        steps.append((idx, step, iv.value, equal))
        all_equal = all_equal and equal
        prev = iv.value

    if cfg.format == "json":
        _emit(dumps_canonical({
            "command": "moves",
            "algebra": cfg.algebra,
            "diagram": cfg.diagram,
            "conductor": cond,
            "base": _scalar_json(base.value, cond),
            "steps": [
                {
                    "index": idx,
                    "move": step["move"],
                    "params": {k: v for k, v in step.items() if k != "move"},
                    "value": _scalar_json(value, cond),
                    "equal": equal,
                }
                for idx, step, value, equal in steps
            ],
            "ok": all_equal,
        }))
    else:
        _emit(f"algebra: {cfg.algebra}")
        _emit(f"diagram: {cfg.diagram}")
        _emit("base " + _exact_line(base.value, cond))
        for idx, step, value, equal in steps:
            params = json.dumps(
                {k: v for k, v in step.items() if k != "move"}, sort_keys=True)
            verdict = "equal" if equal else "MISMATCH"
            _emit(f"step {idx} {step['move']} {params}: "
                  + _exact_line(value, cond) + f"  [{verdict}]")
        if all_equal:
            _emit(f"result: all {len(steps)} step(s) preserve the invariant")
        else:
            bad = sum(1 for s in steps if not s[3])
            _emit(f"result: {bad} of {len(steps)} step(s) changed the value")
    return 0 if all_equal else 1


def cmd_export(cfg: RunConfig, output: str | None) -> int:
    if (cfg.algebra is None) == (cfg.diagram is None):
        raise SerializeError("export needs exactly one of --algebra or --diagram")
    if cfg.algebra is not None:
        obj = algebra_to_json(resolve_algebra(cfg.algebra))
    else:
        obj = diagram_to_json(resolve_diagram(cfg.diagram))
    text = dumps_canonical(obj)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SerializeError(f"cannot write {output!r}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopfg",
        description="Exact invariants of closed 4-manifolds from finite type "
                    "involutory quasitriangular Hopf G-algebras and colored "
                    "Kirby diagrams.")
    sub = p.add_subparsers(dest="command", required=True)

    def fmt(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output style (json is byte-deterministic)")

    sp = sub.add_parser("check", help="verify all axioms, integrals, and the "
                                      "drinfeld element of an algebra")
    sp.add_argument("--algebra", required=True, metavar="SPEC",
                    help="builtin name (cyclic:k=K,l=L,d=D | kac-paljutkin) "
                         "or a JSON file path")
    fmt(sp)

    sp = sub.add_parser("integrals", help="solve and print the normalized "
                                          "integrals and cointegral")
    sp.add_argument("--algebra", required=True, metavar="SPEC")
    fmt(sp)

    for name, connection in (("invariant", True), ("sum", False)):
        sp = sub.add_parser(
            name,
            help="evaluate the invariant of a diagram"
            if connection else
            "evaluate the invariant summed over all flat connections")
        sp.add_argument("--algebra", required=True, metavar="SPEC")
        sp.add_argument("--diagram", required=True, metavar="SPEC",
                        help="builtin name, connected-sum:A,B, or a JSON path")
        if connection:
            sp.add_argument("--connection", default="trivial", metavar="SPEC",
                            help="'trivial', 'all', or comma-separated group "
                                 "element names/indices (default: trivial)")
        fmt(sp)

    sp = sub.add_parser("moves", help="apply a move script, checking the "
                                      "invariant after every step")
    sp.add_argument("--algebra", required=True, metavar="SPEC")
    sp.add_argument("--diagram", required=True, metavar="SPEC")
    sp.add_argument("--connection", default="trivial", metavar="SPEC")
    sp.add_argument("--script", required=True, metavar="PATH",
                    help="JSON list of move objects, e.g. "
                         '[{"move": "II-5", "dot": 0}]')
    fmt(sp)

    sp = sub.add_parser("export", help="emit canonical JSON for an algebra "
                                       "or a diagram")
    sp.add_argument("--algebra", metavar="SPEC")
    sp.add_argument("--diagram", metavar="SPEC")
    sp.add_argument("--output", metavar="PATH",
                    help="write to a file instead of stdout")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(RunConfig(args.algebra, format=args.format))
        if args.command == "integrals":
            return cmd_integrals(RunConfig(args.algebra, format=args.format))
        if args.command == "invariant":
            return cmd_invariant(RunConfig(
                args.algebra, args.diagram, args.connection, args.format))
        if args.command == "sum":
            return cmd_invariant(RunConfig(
                args.algebra, args.diagram, "all", args.format))
        if args.command == "moves":
            return cmd_moves(RunConfig(
                args.algebra, args.diagram, args.connection, args.format),
                args.script)
        if args.command == "export":
            return cmd_export(
                RunConfig(args.algebra, args.diagram), args.output)
        parser.error(f"unknown command {args.command!r}")
    except (IntegralError, DrinfeldError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SerializeError, DiagramError, ColoringError, GroupError,
            AlgebraStructureError, MoveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
