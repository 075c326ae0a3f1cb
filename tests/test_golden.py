"""Golden CLI captures: stdout, stderr and the exit code of fixed commands,
compared byte for byte with files under tests/golden/.

The commands run in-process from inside tests/golden/, so the input files
there (broken algebras, a braid closure, move scripts) are
named by relative paths and the captures hold no machine-specific text.
To capture a new case, add it to CASES and, from a Python session
started in tests/golden/ on the commit whose output is to be kept, write
the first two values ``capture(name)`` returns to <name>.out and
<name>.err.
"""

import contextlib
import io
from pathlib import Path

import pytest

from hopfg.cli import main

GOLDEN = Path(__file__).parent / "golden"

KP = ["--algebra", "kac-paljutkin"]
C13 = ["--algebra", "cyclic:k=1,l=3,d=1"]
C23 = ["--algebra", "cyclic:k=2,l=3,d=1"]
MOVES = ["moves", "--diagram", "braid.json", "--script", "script.json"]

# name -> (argv, exit code)
CASES = {
    "check-text": (["check", *C13], 0),
    "check-json": (["check", *C13, "--format", "json"], 0),
    "check-broken-antipode": (["check", "--algebra", "broken-antipode.json"], 1),
    "check-broken-antipode-json": (
        ["check", "--algebra", "broken-antipode.json", "--format", "json"], 1),
    "check-broken-coproduct-crossing": (
        ["check", "--algebra", "broken-coproduct-crossing.json"], 1),
    "check-non-unimodular": (["check", "--algebra", "non-unimodular.json"], 1),
    "check-broken-product": (["check", "--algebra", "broken-product.json"], 1),
    "check-broken-unit-counit": (
        ["check", "--algebra", "broken-unit-counit.json"], 1),
    "check-broken-coproduct": (
        ["check", "--algebra", "broken-coproduct.json"], 1),
    "check-broken-crossing-unit": (
        ["check", "--algebra", "broken-crossing-unit.json"], 1),
    "integrals-kp": (["integrals", *KP], 0),
    "integrals-kp-json": (["integrals", *KP, "--format", "json"], 0),
    "integrals-non-unimodular": (
        ["integrals", "--algebra", "non-unimodular.json"], 1),
    "invariant-cp2": (["invariant", *C13, "--diagram", "cp2"], 0),
    "invariant-named-json": (
        ["invariant", *KP, "--diagram", "s1xs3", "--connection", "mu",
         "--format", "json"], 0),
    "invariant-all-kp": (
        ["invariant", *KP, "--diagram", "s1xs1xs2", "--connection", "all"], 0),
    "invariant-all-kp-json": (
        ["invariant", *KP, "--diagram", "s1xs1xs2", "--connection", "all",
         "--format", "json"], 0),
    "sum-connected-sum": (
        ["sum", *C23, "--diagram", "connected-sum:s1xs3,s2xs2"], 0),
    "sum-connected-sum-json": (
        ["sum", *C23, "--diagram", "connected-sum:s1xs1xs2,cp2",
         "--format", "json"], 0),
    "moves-kp": ([*MOVES, *KP], 0),
    "moves-c13-json": ([*MOVES, *C13, "--format", "json"], 0),
    "export-connected-sum": (
        ["export", "--diagram", "connected-sum:s1xs1xs2,cp2"], 0),
    "export-algebra": (["export", "--algebra", "cyclic:k=2,l=2,d=1"], 0),
    "export-kac-paljutkin": (["export", *KP], 0),
    "error-missing-diagram": (["invariant", *C13, "--diagram", "nosuch"], 2),
    "error-connection-range": (
        ["invariant", *C13, "--diagram", "s1xs3", "--connection", "5"], 2),
    "error-connection-count": (
        ["invariant", *C13, "--diagram", "s1xs3", "--connection", "a,a"], 2),
    "error-cyclic-k0": (
        ["invariant", "--algebra", "cyclic:k=0,l=2,d=1", "--diagram", "cp2"], 2),
    "error-unknown-move": (
        ["moves", *C13, "--diagram", "cp2", "--script", "bogus-move.json"], 2),
    "error-script-not-list": (
        ["moves", *C13, "--diagram", "cp2", "--script", "braid.json"], 2),
    "error-inapplicable-move": (
        ["moves", *C23, "--diagram", "s1xs3", "--connection", "a",
         "--script", "remove-dot.json"], 2),
    "error-relation": (
        ["invariant", *KP, "--diagram", "one-passage.json",
         "--connection", "mu"], 2),
    "error-algebra-field": (["check", "--algebra", "bad-algebra.json"], 2),
    "error-product-block": (["check", "--algebra", "bad-product-block.json"], 2),
    "error-crossing-grade": (
        ["check", "--algebra", "bad-crossing-grade.json"], 2),
    "error-non-normal-support": (
        ["check", "--algebra", "non-normal-support.json"], 2),
    "error-export-none": (["export"], 2),
    "error-export-both": (["export", *KP, "--diagram", "cp2"], 2),
    "error-not-json": (["check", "--algebra", "script.txt"], 2),
}


def capture(name):
    """Run one case and return (stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(CASES[name][0]))
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    out, err, code = capture(name)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")
