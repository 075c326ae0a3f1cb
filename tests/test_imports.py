"""What each import loads: ``import hopfg`` imports submodules on first
use, and each ``hopfg`` command imports only the modules it runs.  Every
case runs in a fresh interpreter, since the test process has long since
imported everything."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopfg.__file__)))
GOLDEN = Path(__file__).parent / "golden"


def run_child(code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        timeout=60, cwd=GOLDEN, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# runs one command, then prints its exit code and the hopfg modules loaded
_COMMAND = """
import contextlib, io, sys
from hopfg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("hopfg.")))
"""

# what every command loads: the CLI, the algebra layer and the loaders
BASE = {"algebra", "builtins", "cli", "cyclo", "groups", "serialize"}
C13 = ["--algebra", "cyclic:k=1,l=3,d=1"]


@pytest.mark.parametrize("argv, extra", [
    (["export", *C13], set()),
    (["export", "--diagram", "s1xs1xs2"], {"diagrams"}),
    (["integrals", *C13], {"integrals"}),
    (["check", *C13], {"integrals", "verify"}),
    (["sum", *C13, "--diagram", "s1xs1xs2"], {"diagrams", "evaluate", "integrals"}),
    (["invariant", *C13, "--diagram", "cp2"], {"diagrams", "evaluate", "integrals"}),
    (["moves", *C13, "--diagram", "braid.json", "--script", "script.json"],
     {"diagrams", "evaluate", "integrals", "moves"}),
], ids=["export-algebra", "export-diagram", "integrals", "check", "sum", "invariant",
        "moves"])
def test_each_command_loads_only_the_modules_it_runs(argv, extra):
    code, *modules = run_child(_COMMAND, *argv).split()
    assert code == "0"
    assert set(modules) == {f"hopfg.{m}" for m in BASE | extra}


# checks the package surface after the import order given as argv[1]
_SURFACE = """
import contextlib, inspect, io, sys
exec(sys.argv[1])
import hopfg
assert inspect.isfunction(hopfg.evaluate), hopfg.evaluate
names = {}
exec("from hopfg import *", names)
del names["__builtins__"]
assert sorted(names) == sorted(hopfg.__all__) and len(names) == 66, sorted(names)
assert inspect.isfunction(hopfg.evaluate), hopfg.evaluate
assert hopfg.evaluate is sys.modules["hopfg.evaluate"].evaluate
assert "__all__" in dir(hopfg) and set(hopfg.__all__) <= set(dir(hopfg))
try:
    hopfg.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("hopfg.no_such_name did not raise AttributeError")
print("ok")
"""


@pytest.mark.parametrize("first", [
    "import hopfg.evaluate",
    "from hopfg.evaluate import evaluate_summed",
    "import hopfg.cli",
    "from hopfg.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    main(['sum', '--algebra', 'kac-paljutkin', '--diagram', 'cp2'])",
], ids=["submodule", "from-submodule", "cli", "cli-sum"])
def test_surface_holds_in_every_import_order(first):
    assert run_child(_SURFACE, first) == "ok\n"
