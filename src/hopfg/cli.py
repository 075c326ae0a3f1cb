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

# What every command uses; each command imports the rest itself, so a run
# loads (and, without bytecode, compiles) only the modules it needs.
from .algebra import DrinfeldError, HopfGAlgebra, IntegralError, format_raw_vector
from .cyclo import Cyclo, render_decimal, render_scalar, render_scalar_terms
from .groups import GroupError, GroupHom
from .serialize import (
    SerializeError,
    _read_json,
    algebra_to_json,
    diagram_to_json,
    dumps_canonical,
    resolve_algebra,
    resolve_diagram,
)


# ---------------------------------------------------------------------------
# rendering helpers


def _exact_line(v: Cyclo, conductor: int) -> str:
    text = render_scalar(v)
    if "z^" in text:
        text = f"{text}  (z = primitive {conductor}-th root of unity)"
    return f"I = {text}"


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
    from .diagrams import ColoringError, fundamental_presentation

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
# subcommands, each given the parsed argparse namespace


def cmd_check(args) -> int:
    from .integrals import solve_integrals
    from .verify import drinfeld_element, verify_axioms

    H = resolve_algebra(args.algebra)
    report = verify_axioms(H)
    for name, solve, error in (
            ("integrals solved and normalized", solve_integrals, IntegralError),
            ("drinfeld element central, antipode-fixed, invertible",
             drinfeld_element, DrinfeldError)):
        try:
            solve(H)
            report.checks.append((name, True, None))
        except error as exc:
            report.checks.append((name, False, str(exc)))

    checks = report.checks
    if args.format == "json":
        _emit(dumps_canonical({
            "command": "check",
            "algebra": args.algebra,
            "checks": [
                {"name": name, "ok": passed, "witness": witness}
                for name, passed, witness in checks
            ],
            "ok": report.ok,
        }))
    else:
        _emit(f"algebra: {args.algebra}  (|G|={H.group.order}, dims={H.dims}, "
              f"conductor={H.conductor})")
        for line in report.lines():
            _emit(line)
        npass = len(checks) - len(report.failures())
        _emit(f"result: {'PASS' if report.ok else 'FAIL'} "
              f"({npass}/{len(checks)} checks)")
    return 0 if report.ok else 1


def cmd_integrals(args) -> int:
    from .integrals import solve_integrals

    H = resolve_algebra(args.algebra)
    data = solve_integrals(H)
    cond = H.conductor
    G = H.group
    if args.format == "json":
        integrals = []
        for a in H.support:
            integrals.append({
                "grade": G.names[a],
                "entries": [
                    [i, render_scalar_terms(v.lift(cond))]
                    for i, v in sorted(data.integrals[a].items())
                ],
            })
        lam = [
            [i, render_scalar_terms(v.lift(cond))]
            for i, v in enumerate(data.lam_values) if v
        ]
        _emit(dumps_canonical({
            "command": "integrals",
            "algebra": args.algebra,
            "conductor": cond,
            "integrals": integrals,
            "lambda": lam,
        }))
        return 0
    _emit(f"algebra: {args.algebra}  (conductor={cond})")
    for a in H.support:
        _emit(f"Lambda_{G.names[a]} = {format_raw_vector(H, a, data.integrals[a])}")
    e = G.identity_index
    parts = [
        f"lam({H.basis_name(e, i)}) = {render_scalar(v)}"
        for i, v in enumerate(data.lam_values)
    ]
    _emit("cointegral: " + "; ".join(parts))
    return 0


def cmd_invariant(args) -> int:
    # each layer is imported just before its first use, so a run that
    # exits 2 on its algebra, diagram or connection loads no later one
    H = resolve_algebra(args.algebra)
    d = resolve_diagram(args.diagram)
    from .integrals import solve_integrals
    data = solve_integrals(H)
    cond = H.conductor

    if args.connection == "all":
        from .evaluate import evaluate_summed
        summed = evaluate_summed(H, data, d)
        pairs = list(zip(summed.homs, summed.values))
    else:
        hom = _parse_connection(args.connection, H, d)
        from .diagrams import color
        from .evaluate import evaluate
        pairs = [(hom, evaluate(H, data, color(d, hom)))]

    if args.format == "json":
        payload = {
            "command": "invariant",
            "algebra": args.algebra,
            "diagram": args.diagram,
            "conductor": cond,
            "connections": [
                {
                    "images": [img.name for img in hom.images],
                    "value": _scalar_json(iv.value, cond),
                }
                for hom, iv in pairs
            ],
        }
        if args.connection == "all":
            payload["hom_count"] = summed.hom_count
            payload["sum"] = _scalar_json(summed.total, cond)
        _emit(dumps_canonical(payload))
        return 0
    _emit(f"algebra: {args.algebra}")
    _emit(f"diagram: {args.diagram}")
    if args.connection != "all":
        hom, iv = pairs[0]
        _emit(f"connection: {args.connection} {_connection_label(d, hom)}")
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


def cmd_moves(args) -> int:
    # imports just before first use, as in cmd_invariant
    H = resolve_algebra(args.algebra)
    d = resolve_diagram(args.diagram)
    from .integrals import solve_integrals
    data = solve_integrals(H)
    cond = H.conductor
    if args.connection == "all":
        raise SerializeError("the moves command needs a single connection")

    script = _read_json(args.script)
    if not isinstance(script, list):
        raise SerializeError("move script must be a JSON list of move objects")

    hom = _parse_connection(args.connection, H, d)
    from .diagrams import color
    from .evaluate import evaluate
    from .moves import MoveError, apply_move
    cd = color(d, hom)
    base = evaluate(H, data, cd)
    steps = []
    prev = base.value
    for idx, step in enumerate(script):
        try:
            cd = apply_move(cd, step, group=H.group)
        except MoveError as exc:
            raise MoveError(f"script step {idx}: {exc}") from None
        iv = evaluate(H, data, cd)
        equal = iv.value == prev
        steps.append((idx, step, iv.value, equal))
        prev = iv.value
    all_equal = all(equal for *_, equal in steps)

    if args.format == "json":
        _emit(dumps_canonical({
            "command": "moves",
            "algebra": args.algebra,
            "diagram": args.diagram,
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
        _emit(f"algebra: {args.algebra}")
        _emit(f"diagram: {args.diagram}")
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
            bad = sum(not equal for *_, equal in steps)
            _emit(f"result: {bad} of {len(steps)} step(s) changed the value")
    return 0 if all_equal else 1


def cmd_export(args) -> int:
    if (args.algebra is None) == (args.diagram is None):
        raise SerializeError("export needs exactly one of --algebra or --diagram")
    if args.algebra is not None:
        obj = algebra_to_json(resolve_algebra(args.algebra))
    else:
        obj = diagram_to_json(resolve_diagram(args.diagram))
    text = dumps_canonical(obj)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SerializeError(f"cannot write {args.output!r}: {exc}") from None
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
    sp.set_defaults(run=cmd_check)
    sp.add_argument("--algebra", required=True, metavar="SPEC",
                    help="builtin name (cyclic:k=K,l=L,d=D | kac-paljutkin) "
                         "or a JSON file path")
    fmt(sp)

    sp = sub.add_parser("integrals", help="solve and print the normalized "
                                          "integrals and cointegral")
    sp.set_defaults(run=cmd_integrals)
    sp.add_argument("--algebra", required=True, metavar="SPEC")
    fmt(sp)

    for name, connection in (("invariant", True), ("sum", False)):
        sp = sub.add_parser(
            name,
            help="evaluate the invariant of a diagram"
            if connection else
            "evaluate the invariant summed over all flat connections")
        sp.set_defaults(run=cmd_invariant)
        sp.add_argument("--algebra", required=True, metavar="SPEC")
        sp.add_argument("--diagram", required=True, metavar="SPEC",
                        help="builtin name, connected-sum:A,B, or a JSON path")
        if connection:
            sp.add_argument("--connection", default="trivial", metavar="SPEC",
                            help="'trivial', 'all', or comma-separated group "
                                 "element names/indices (default: trivial)")
        else:
            sp.set_defaults(connection="all")
        fmt(sp)

    sp = sub.add_parser("moves", help="apply a move script, checking the "
                                      "invariant after every step")
    sp.set_defaults(run=cmd_moves)
    sp.add_argument("--algebra", required=True, metavar="SPEC")
    sp.add_argument("--diagram", required=True, metavar="SPEC")
    sp.add_argument("--connection", default="trivial", metavar="SPEC")
    sp.add_argument("--script", required=True, metavar="PATH",
                    help="JSON list of move objects, e.g. "
                         '[{"move": "II-5", "dot": 0}]')
    fmt(sp)

    sp = sub.add_parser("export", help="emit canonical JSON for an algebra "
                                       "or a diagram")
    sp.set_defaults(run=cmd_export)
    sp.add_argument("--algebra", metavar="SPEC")
    sp.add_argument("--diagram", metavar="SPEC")
    sp.add_argument("--output", metavar="PATH",
                    help="write to a file instead of stdout")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (IntegralError, DrinfeldError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
