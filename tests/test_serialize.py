"""JSON round trips for groups, algebras, and diagrams, plus the spec-string
resolvers used by the command line."""

import json
import os
import subprocess
import sys

import pytest

import hopfg
import oracles

from hopfg import builtin_algebra, builtin_diagram, builtin_diagram_names
from hopfg.groups import cyclic_group, product_group
from hopfg.serialize import (
    SerializeError,
    algebra_from_json,
    algebra_to_json,
    diagram_from_json,
    diagram_to_json,
    dumps_canonical,
    group_from_json,
    group_to_json,
    resolve_algebra,
    resolve_diagram,
    resolve_group,
)

ALGEBRA_SPECS = ["cyclic:k=1,l=1,d=0", "cyclic:k=2,l=3,d=1",
                 "cyclic:k=1,l=4,d=3", "kac-paljutkin"]


def _same_group(G1, G2):
    return (G1.order == G2.order and list(G1.names) == list(G2.names)
            and [list(r) for r in G1.table] == [list(r) for r in G2.table])


def test_group_round_trip():
    for G in (cyclic_group(1), cyclic_group(4),
              product_group(cyclic_group(2), cyclic_group(3))):
        assert _same_group(group_from_json(group_to_json(G)), G)


def test_group_json_rejects_bad_tables():
    with pytest.raises(SerializeError, match="list of `order` rows"):
        group_from_json({"order": 2, "table": [[0, 1]], "names": ["1", "a"]})
    with pytest.raises(SerializeError, match="row 1 must have 2 entries"):
        group_from_json({"order": 2, "table": [[0, 1], [1]], "names": ["1", "a"]})
    with pytest.raises(SerializeError, match="names must be a list"):
        group_from_json({"order": 2, "table": [[0, 1], [1, 0]], "names": ["1"]})
    with pytest.raises(SerializeError, match="group JSON invalid"):
        group_from_json({"order": 2, "table": [[0, 0], [0, 0]],
                         "names": ["1", "a"]})


def test_algebra_round_trip():
    for spec in ALGEBRA_SPECS:
        H = builtin_algebra(spec)
        obj = algebra_to_json(H)
        assert algebra_from_json(obj) == H
        # canonical text is stable through a rebuild
        assert dumps_canonical(algebra_to_json(algebra_from_json(obj))) == \
            dumps_canonical(obj)


def test_algebra_json_is_pure_data():
    obj = algebra_to_json(builtin_algebra("cyclic:k=2,l=3,d=1"))
    text = dumps_canonical(obj)
    parsed = json.loads(text)
    assert parsed == obj
    assert obj["conductor"] == 3
    assert obj["dims"] == [3, 3]


def test_algebra_json_validation():
    obj = algebra_to_json(builtin_algebra("cyclic:k=1,l=2,d=1"))
    bad = json.loads(dumps_canonical(obj))
    bad["dims"] = [2, 2]
    with pytest.raises(SerializeError, match="one dimension per group element"):
        algebra_from_json(bad)
    bad = json.loads(dumps_canonical(obj))
    del bad["product"]
    with pytest.raises(SerializeError, match="missing field 'product'"):
        algebra_from_json(bad)
    with pytest.raises(SerializeError, match="expected a JSON object"):
        algebra_from_json([1, 2, 3])


def test_diagram_round_trip():
    names = list(builtin_diagram_names()) + ["connected-sum:cp2,s1xs1xs2"]
    for name in names:
        d = builtin_diagram(name) if ":" not in name else resolve_diagram(name)
        obj = diagram_to_json(d)
        assert diagram_from_json(obj) == d
        assert json.loads(dumps_canonical(obj)) == obj


def test_diagram_json_validation():
    obj = diagram_to_json(builtin_diagram("s1xs1xs2"))
    bad = json.loads(dumps_canonical(obj))
    bad["undotted"][0]["events"][0] = ["sideways", 0]
    with pytest.raises(SerializeError, match="kind one of"):
        diagram_from_json(bad)
    bad = json.loads(dumps_canonical(obj))
    bad["crossings"][0]["sign"] = "x"
    with pytest.raises(SerializeError, match="sign must be"):
        diagram_from_json(bad)
    bad = json.loads(dumps_canonical(obj))
    bad["dotted"][0]["passages"][0] = [0]
    with pytest.raises(SerializeError, match=r"must be \[undotted_id, pos\]"):
        diagram_from_json(bad)
    bad = json.loads(dumps_canonical(obj))
    bad["h3"] = "two"
    with pytest.raises(SerializeError, match="expected an integer"):
        diagram_from_json(bad)
    # structurally broken diagrams are rejected on load
    bad = json.loads(dumps_canonical(obj))
    bad["dotted"][0]["passages"] = []
    with pytest.raises(Exception):
        diagram_from_json(bad)


@pytest.mark.parametrize("path", [("dotted",), ("undotted",), ("crossings",),
                                  ("dotted", 0, "passages"),
                                  ("undotted", 0, "events")],
                         ids=lambda path: ".".join(map(str, path)))
def test_diagram_json_non_list_field_rejected(path):
    bad = diagram_to_json(builtin_diagram("s1xs1xs2"))
    parent = bad
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = 5
    with pytest.raises(SerializeError, match=f"field '{path[-1]}' must be a list"):
        diagram_from_json(bad)


def test_duplicate_counit_block_rejected(tmp_path, capsys):
    from hopfg.cli import main

    obj = algebra_to_json(builtin_algebra("cyclic:k=2,l=3,d=1"))
    n = len(obj["counit"])
    obj["counit"].append(obj["counit"][0])
    with pytest.raises(SerializeError,
                       match=f"counit block {n}: duplicate entry for grade 0 basis 0"):
        algebra_from_json(obj)
    path = tmp_path / "dup-counit.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    assert main(["check", "--algebra", str(path)]) == 2
    assert f"counit block {n}: duplicate entry" in capsys.readouterr().err


# the number of target indices that open each field's innermost list; a
# unit block is its own innermost list
_TARGETS = {"unit": 1, "product": 1, "coproduct": 2, "counit": 0,
            "antipode": 1, "crossing": 1, "rmatrix": 0}


def _without_terms(field, block):
    n = _TARGETS[field]
    return block[:n] if field == "unit" else block[:-1] + [block[-1][:n]]


@pytest.mark.parametrize("fault", ["non-list", "short", "non-int", "no-terms",
                                   "duplicate"])
@pytest.mark.parametrize("field", sorted(_TARGETS))
def test_malformed_block_names_field_and_block(field, fault):
    obj = algebra_to_json(builtin_algebra("cyclic:k=2,l=3,d=1"))
    blocks = obj[field]
    first = blocks[0]
    n = 0
    if fault == "duplicate":
        n = len(blocks)
        blocks.append(first)
    else:
        blocks[0] = {"non-list": 7, "short": first[:1],
                     "non-int": ["0", *first[1:]],
                     "no-terms": _without_terms(field, first)}[fault]
    with pytest.raises(SerializeError, match=rf"^{field} block {n}: "):
        algebra_from_json(obj)


@pytest.mark.parametrize("field, block", [
    ("product", [0, 0, 0, 0, [1, "0"]]),
    ("coproduct", [0, 0, [0, 1, "0"]]),
    ("antipode", [0, 0, [1, "0"]]),
    ("crossing", [0, 0, 0, [1, "0"]]),
])
def test_zero_block_survives_export_and_reload(field, block):
    H0 = builtin_algebra("cyclic:k=1,l=2,d=0")
    obj = algebra_to_json(H0)
    obj[field].append(block)
    H = algebra_from_json(obj)
    assert H == H0
    dumped = algebra_to_json(H)
    assert dumped[field] == algebra_to_json(H0)[field]
    assert algebra_from_json(json.loads(dumps_canonical(dumped))) == H


def test_resolve_group():
    assert resolve_group("cyclic:6").order == 6
    G = resolve_group("product:cyclic:2,cyclic:2")
    assert G.order == 4
    with pytest.raises(SerializeError, match="bad cyclic group order"):
        resolve_group("cyclic:six")
    with pytest.raises(SerializeError, match="at least two factors"):
        resolve_group("product:cyclic:2")
    with pytest.raises(SerializeError, match="unknown group constructor"):
        resolve_group("product:cyclic:2,dihedral:3")
    # anything without a constructor prefix is treated as a file path
    with pytest.raises(SerializeError, match="cannot read"):
        resolve_group("dihedral:4")


def test_resolve_group_from_file(tmp_path):
    G = product_group(cyclic_group(2), cyclic_group(2))
    path = tmp_path / "klein.json"
    path.write_text(dumps_canonical(group_to_json(G)))
    assert _same_group(resolve_group(str(path)), G)


def test_resolve_algebra(tmp_path):
    assert resolve_algebra("kac-paljutkin").name == "kac-paljutkin"
    assert resolve_algebra("cyclic:k=1,l=2,d=1").dims == (2,)
    H = builtin_algebra("cyclic:k=2,l=3,d=2")
    path = tmp_path / "alg.json"
    path.write_text(dumps_canonical(algebra_to_json(H)))
    assert resolve_algebra(str(path)) == H


def test_resolve_diagram(tmp_path):
    assert resolve_diagram("cp2") == builtin_diagram("cp2")
    s = resolve_diagram("connected-sum:cp2,s4")
    assert len(s.undotted) == 1
    with pytest.raises(SerializeError, match="exactly two diagram specs"):
        resolve_diagram("connected-sum:cp2")
    d = builtin_diagram("s1xs1xs2")
    path = tmp_path / "d.json"
    path.write_text(dumps_canonical(diagram_to_json(d)))
    assert resolve_diagram(str(path)) == d
    # a connected-sum combinator may mix builtin names and files
    mixed = resolve_diagram(f"connected-sum:{path},cp2")
    assert len(mixed.dotted) == 2 and len(mixed.crossings) == 3


def test_read_errors(tmp_path):
    with pytest.raises(SerializeError, match="cannot read"):
        resolve_diagram(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SerializeError, match="not valid JSON"):
        resolve_diagram(str(bad))


def test_canonical_dumps_is_deterministic():
    obj = algebra_to_json(builtin_algebra("kac-paljutkin"))
    a = dumps_canonical(obj)
    b = dumps_canonical(json.loads(a))
    assert a == b
    assert a.endswith("\n") and a.count("\n") == 1


# the command line in a child process whose address space is capped at
# 1 GiB, so an input that makes the loader allocate without bound fails
# there instead of taking memory from the machine
_LIMITED_CLI = """
import resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from hopfg.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("field, value", [
    ("conductor", 1000000000),
    ("conductor", 1000000),
    ("dims", [1000000000]),
    ("coproduct", 5),
    ("unit", None),
    ("basis_names", [5]),
    ("basis_names", [[0, 1]]),
    ("counit", [[0, 0, ["1/0*zeta^0"]], [0, 1, ["1*zeta^0"]]]),
])
def test_oversized_or_malformed_algebra_field_exits_2(tmp_path, field, value):
    obj = algebra_to_json(builtin_algebra("cyclic:k=1,l=2,d=1"))
    obj[field] = value
    path = tmp_path / "algebra.json"
    path.write_text(dumps_canonical(obj))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "check", "--algebra", str(path)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and field in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_dot_whose_site_exceeds_the_cap_exits_2(tmp_path):
    # 12 passages at kac-paljutkin would expand to 4^12 + 4 entries (about
    # 9 GB); the bound 8 * 4^11 is checked first, under the 1 GiB cap
    path = tmp_path / "diagram.json"
    path.write_text(dumps_canonical(diagram_to_json(oracles.dot_with_passages(12))))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "invariant", "--algebra", "kac-paljutkin",
         "--diagram", str(path)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("error: dot 0 at grade 1 has 12 passages, so its site may hold "
                           "33554432 entries, more than 2097152\n")


def _padded_dims(obj, total):
    # one grade of dimension `total`, with a coproduct block per basis vector
    # so that only the dimension cap can reject it
    obj["dims"] = [total]
    obj["coproduct"] = [[0, i, [i, i, "1*zeta^0"]] for i in range(total)]


def _big_table_group(obj, order):
    # a valid group table, so that only the group order cap can reject it
    obj["group"] = group_to_json(cyclic_group(order))
    obj["dims"] = [2] + [0] * (order - 1)


@pytest.mark.parametrize("spec, edit, named", [
    (None, lambda obj: obj.update(group="cyclic:100000"), "group 'cyclic:100000'"),
    (None, lambda obj: obj.update(group="product:cyclic:200,cyclic:200"),
     "group 'product:cyclic:200,cyclic:200'"),
    (None, lambda obj: _big_table_group(obj, 300), "group: order"),
    (None, lambda obj: _padded_dims(obj, 4000), "dims: 4000"),
    ("cyclic:k=1,l=1000000,d=0", None, "l=1000000"),
    ("cyclic:k=1000000,l=1,d=0", None, "k=1000000"),
    ("cyclic:k=20,l=20,d=1", None, "k*l=400"),
], ids=["cyclic-group", "product-group", "table-group", "dims", "builtin-l",
        "builtin-k", "builtin-kl"])
def test_oversized_group_dims_or_builtin_exits_2(tmp_path, spec, edit, named):
    if spec is None:
        obj = algebra_to_json(builtin_algebra("cyclic:k=1,l=2,d=1"))
        edit(obj)
        spec = str(tmp_path / "algebra.json")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(obj))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "check", "--algebra", spec],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert "Traceback" not in proc.stderr
