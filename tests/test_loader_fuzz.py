"""Hostile input files end in an exit code, never in a traceback.

Each case mutates the canonical JSON of an algebra, a diagram or a move
script (a key dropped, a value of another type, an int negated or
enlarged, a value nested deep, the text truncated) and runs ``python -m
hopfg.cli`` on it in a child process, one at a time, under an
address-space limit set in that child only and a timeout."""

import json
import os
import resource
import subprocess
import sys

from hypothesis import example, given, settings, strategies as st

import hopfg
from hopfg import builtin_algebra, builtin_diagram
from hopfg.serialize import algebra_to_json, diagram_to_json

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopfg.__file__)))
ADDRESS_SPACE = 1 << 30

SEEDS = {
    "algebra": algebra_to_json(builtin_algebra("kac-paljutkin")),
    "diagram": diagram_to_json(builtin_diagram("s1xs1xs2")),
    "script": [{"move": "II-1-insert", "dot": 0, "disk_pos": 1, "component": 1,
                "event_pos": 0, "first_down": True}],
}
COMMANDS = {
    "algebra": ["check", "--algebra"],
    "diagram": ["sum", "--algebra", "kac-paljutkin", "--diagram"],
    "script": ["moves", "--algebra", "kac-paljutkin", "--diagram", "s1xs1xs2", "--script"],
}


def _nodes(obj, path=()):
    """(path, value) of every value in a JSON tree, the root first."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _nodes(value, path + (key,))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


@st.composite
def mutants(draw):
    """(seed name, file bytes) of one mutated seed."""
    name = draw(st.sampled_from(sorted(SEEDS)))
    obj = json.loads(json.dumps(SEEDS[name]))
    kind = draw(st.sampled_from(["drop", "retype", "negate", "enlarge", "nest", "truncate"]))
    if kind == "truncate":
        text = json.dumps(obj)
        return name, text[:draw(st.integers(0, len(text) - 1))].encode()
    wanted = _is_int if kind in ("negate", "enlarge") else (lambda value: True)
    path = draw(st.sampled_from([p for p, v in _nodes(obj) if p and wanted(v)]))
    *head, key = path
    parent = obj
    for k in head:
        parent = parent[k]
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from([None, False, 0, 2.5, "0", [], {}]).filter(
            lambda new: type(new) is not type(value)))
    elif kind == "negate":
        parent[key] = -value if value else -1
    elif kind == "enlarge":
        parent[key] = draw(st.sampled_from([value + 1, 2 * value + 3, 1 << 31, 10 ** 4000]))
    else:  # spliced into the text: json.dumps itself refuses deep nesting
        depth = draw(st.integers(1, 3000))
        parent[key] = "NEST"
        nested = "[" * depth + json.dumps(value) + "]" * depth
        return name, json.dumps(obj).replace('"NEST"', nested, 1).encode()
    return name, json.dumps(obj).encode()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@settings(max_examples=36, derandomize=True, database=None, deadline=None)
@given(mutants())
@example(("algebra", b"[" * 20000))
@example(("diagram", b"\xff\xfe{}"))
@example(("script", b'[{"move": "II-5", "dot": ' + b"9" * 5000 + b"}]"))
def test_a_mutated_input_file_exits_0_1_or_2_without_a_traceback(tmp_path_factory, case):
    name, content = case
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "hopfg.cli", *COMMANDS[name], str(path)],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr
