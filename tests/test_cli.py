"""Command line driver: frozen text output, deterministic JSON, move
scripts, exports, and exit codes."""

import json

import pytest

from hopfg import EvaluationError, builtin_algebra
from hopfg import cli
from hopfg.cli import main
from hopfg.groups import cyclic_group
from hopfg.serialize import algebra_to_json, dumps_canonical, group_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_text_output(capsys):
    code, out, err = run(capsys, "invariant",
                         "--algebra", "cyclic:k=1,l=3,d=1", "--diagram", "cp2")
    assert code == 0 and err == ""
    assert out == (
        "algebra: cyclic:k=1,l=3,d=1\n"
        "diagram: cp2\n"
        "connection: trivial (trivial: no dotted components)\n"
        "I = 1/3 + 2/3*z^1  (z = primitive 3-th root of unity)\n"
        "    ~ 0.000000000000 + 0.577350269190i"
        "  (12-digit approximation, not authoritative)\n"
    )


def test_invariant_zero_has_no_root_clause(capsys):
    code, out, err = run(capsys, "invariant",
                         "--algebra", "cyclic:k=1,l=2,d=1", "--diagram", "cp2")
    assert code == 0
    assert "I = 0\n" in out
    assert "z =" not in out


def test_invariant_all_connections(capsys):
    code, out, err = run(capsys, "invariant",
                         "--algebra", "cyclic:k=2,l=4,d=2",
                         "--diagram", "s1xs1xs2", "--connection", "all")
    assert code == 0
    assert out == (
        "algebra: cyclic:k=2,l=4,d=2\n"
        "diagram: s1xs1xs2\n"
        "connection 0 (x0=1, x1=1): I = 16\n"
        "connection 1 (x0=1, x1=a): I = 16\n"
        "connection 2 (x0=a, x1=1): I = 16\n"
        "connection 3 (x0=a, x1=a): I = 16\n"
        "sum over 4 connection(s): I = 64\n"
        "    ~ 64.000000000000  (12-digit approximation, not authoritative)\n"
    )


def test_invariant_named_connection(capsys):
    code, out, err = run(capsys, "invariant", "--algebra", "kac-paljutkin",
                         "--diagram", "s1xs3", "--connection", "mu")
    assert code == 0
    assert "connection: mu (x0=mu)\n" in out
    assert "I = 8\n" in out
    # numeric indices name the same element
    code, out2, err = run(capsys, "invariant", "--algebra", "kac-paljutkin",
                          "--diagram", "s1xs3", "--connection", "1")
    assert code == 0
    assert "I = 8\n" in out2


def test_sum_equals_invariant_all(capsys):
    args = ["--algebra", "cyclic:k=2,l=2,d=1", "--diagram", "s1xs3"]
    _, out_sum, _ = run(capsys, "sum", *args)
    _, out_all, _ = run(capsys, "invariant", *args, "--connection", "all")
    assert out_sum == out_all
    _, json_sum, _ = run(capsys, "sum", *args, "--format", "json")
    _, json_all, _ = run(capsys, "invariant", *args,
                         "--connection", "all", "--format", "json")
    assert json_sum == json_all


def test_sum_json_shape_and_determinism(capsys):
    args = ["sum", "--algebra", "cyclic:k=2,l=2,d=1", "--diagram", "s1xs3",
            "--format", "json"]
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    assert out1 == dumps_canonical(json.loads(out1))
    obj = json.loads(out1)
    assert obj["command"] == "invariant"
    assert obj["hom_count"] == 2
    assert [c["images"] for c in obj["connections"]] == [["1"], ["a"]]
    assert obj["sum"]["terms"] == ["4*zeta^0"]
    assert obj["sum"]["decimal_approx"] == "4.000000000000"


def test_integrals_text(capsys):
    code, out, err = run(capsys, "integrals", "--algebra", "cyclic:k=1,l=2,d=1")
    assert code == 0
    assert out == (
        "algebra: cyclic:k=1,l=2,d=1  (conductor=2)\n"
        "Lambda_1 = (1/2)*g^0 + (1/2)*g^1\n"
        "cointegral: lam(g^0) = 2; lam(g^1) = 0\n"
    )


def test_integrals_json(capsys):
    code, out, _ = run(capsys, "integrals", "--algebra", "cyclic:k=2,l=2,d=1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "integrals"
    assert obj["conductor"] == 2
    assert len(obj["integrals"]) == 2
    assert obj["integrals"][0]["grade"] == "1"
    assert obj["lambda"] == [[0, ["2*zeta^0"]]]


def test_check_passes(capsys):
    code, out, err = run(capsys, "check", "--algebra", "cyclic:k=1,l=2,d=1")
    assert code == 0
    assert out.startswith("algebra: cyclic:k=1,l=2,d=1  (|G|=1, dims=(2,), "
                          "conductor=2)\n[PASS] (HG1) product associative\n")
    assert "[PASS] quantum Yang-Baxter" in out
    assert "[PASS] integrals solved and normalized" in out
    assert "[PASS] drinfeld element central, antipode-fixed, invertible" in out
    assert out.endswith("result: PASS (22/22 checks)\n")
    assert out.count("[PASS]") == 22 and "[FAIL]" not in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "kac-paljutkin",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert len(obj["checks"]) == 22
    assert all(c["ok"] for c in obj["checks"])


def test_check_fails_on_broken_antipode(capsys, tmp_path):
    obj = algebra_to_json(builtin_algebra("cyclic:k=1,l=3,d=1"))
    obj["antipode"] = [[0, i, [i, "1*zeta^0"]] for i in range(3)]
    path = tmp_path / "broken.json"
    path.write_text(dumps_canonical(obj))
    code, out, err = run(capsys, "check", "--algebra", str(path))
    assert code == 1
    assert "[FAIL] (HG9) antipode laws" in out
    assert "result: FAIL" in out


def test_moves_script(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        {"move": "III-4-insert"},
        {"move": "global-conjugate", "element": "mu"},
    ]))
    code, out, err = run(capsys, "moves", "--algebra", "kac-paljutkin",
                         "--diagram", "s1xs3", "--connection", "mu",
                         "--script", str(script))
    assert code == 0 and err == ""
    assert out == (
        "algebra: kac-paljutkin\n"
        "diagram: s1xs3\n"
        "base I = 8\n"
        "step 0 III-4-insert {}: I = 8  [equal]\n"
        'step 1 global-conjugate {"element": "mu"}: I = 8  [equal]\n'
        "result: all 2 step(s) preserve the invariant\n"
    )


def test_moves_json(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"move": "III-5-insert"}]))
    code, out, _ = run(capsys, "moves", "--algebra", "cyclic:k=1,l=2,d=1",
                       "--diagram", "s2xs2", "--script", str(script),
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["steps"][0]["move"] == "III-5-insert"
    assert obj["steps"][0]["equal"] is True
    assert obj["steps"][0]["value"] == obj["base"]


def test_moves_script_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"move": "bogus"}]))
    code, out, err = run(capsys, "moves", "--algebra", "cyclic:k=1,l=2,d=1",
                         "--diagram", "cp2", "--script", str(bad))
    assert code == 2
    assert "script step 0: unknown move 'bogus'" in err
    notalist = tmp_path / "notalist.json"
    notalist.write_text(json.dumps({"move": "I-5"}))
    code, out, err = run(capsys, "moves", "--algebra", "cyclic:k=1,l=2,d=1",
                         "--diagram", "cp2", "--script", str(notalist))
    assert code == 2
    assert "must be a JSON list" in err


def test_undeclared_move_parameter_exits_2(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"move": "I-2-insert", "over": 0, "over_pos": 0,
                                   "under": 0, "under_pos": 1, "sing": "-"}]))
    code, out, err = run(capsys, "moves", "--algebra", "cyclic:k=1,l=2,d=1",
                         "--diagram", "cp2", "--script", str(script))
    assert code == 2 and out == ""
    assert err == ("error: script step 0: I-2-insert: unknown parameters ['sing']; "
                   "it takes ['over', 'over_pos', 'sign', 'under', 'under_pos']\n")


def test_too_many_connections_exit_2(capsys, tmp_path):
    # 30 bare dots have 2^30 connections into Z_2: the enumeration stops
    # at MAX_HOM_STEPS instead of growing without bound
    path = tmp_path / "dots.json"
    path.write_text(json.dumps({"dotted": [{"id": i, "passages": []} for i in range(30)],
                                "undotted": [], "crossings": [], "h3": 0, "h4": 1}))
    code, out, err = run(capsys, "sum", "--algebra", "cyclic:k=2,l=2,d=1",
                         "--diagram", str(path))
    assert code == 2 and out == ""
    assert err == ("error: too many connections to enumerate: 30 generators into a group "
                   "of order 2 take more than 131072 steps (MAX_HOM_STEPS)\n")


def test_non_object_script_step_exits_2(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([5]))
    code, out, err = run(capsys, "moves", "--algebra", "cyclic:k=1,l=2,d=1",
                         "--diagram", "cp2", "--script", str(script))
    assert code == 2 and out == ""
    assert err == "error: script step 0: move spec must be a dict with a 'move' key\n"


def test_moves_inapplicable_step(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"move": "III-4-remove", "dot": 0}]))
    code, out, err = run(capsys, "moves", "--algebra", "cyclic:k=2,l=3,d=1",
                         "--diagram", "s1xs3", "--connection", "a",
                         "--script", str(script))
    assert code == 2
    assert "script step 0:" in err


def test_export_algebra_round_trip(capsys, tmp_path):
    code, out, err = run(capsys, "export", "--algebra", "cyclic:k=2,l=3,d=2")
    assert code == 0
    obj = json.loads(out)
    assert out == dumps_canonical(obj)
    path = tmp_path / "alg.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "check", "--algebra", str(path))
    assert code == 0
    assert "result: PASS (22/22 checks)" in out2


def test_export_diagram_to_file(capsys, tmp_path):
    target = tmp_path / "d.json"
    code, out, err = run(capsys, "export", "--diagram", "s1xs1xs2",
                         "--output", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert {x["id"] for x in obj["dotted"]} == {0, 1}
    code, out, _ = run(capsys, "invariant", "--algebra", "cyclic:k=1,l=2,d=1",
                       "--diagram", str(target), "--connection", "trivial")
    assert code == 0


def test_export_needs_exactly_one_input(capsys):
    code, out, err = run(capsys, "export")
    assert code == 2
    assert "exactly one of" in err
    code, out, err = run(capsys, "export", "--algebra", "kac-paljutkin",
                         "--diagram", "cp2")
    assert code == 2
    assert "exactly one of" in err


def test_bad_inputs_exit_2(capsys):
    code, _, err = run(capsys, "invariant", "--algebra", "cyclic:k=1,l=2,d=1",
                       "--diagram", "nosuch")
    assert code == 2 and "error: cannot read 'nosuch'" in err
    code, _, err = run(capsys, "invariant", "--algebra", "cyclic:k=1,l=2,d=1",
                       "--diagram", "s1xs3", "--connection", "5")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "invariant", "--algebra", "cyclic:k=1,l=2,d=1",
                       "--diagram", "s1xs3", "--connection", "a,a")
    assert code == 2 and "needs 1 generator image(s), got 2" in err
    code, _, err = run(capsys, "invariant", "--algebra", "cyclic:k=0,l=2,d=1",
                       "--diagram", "cp2")
    assert code == 2 and "must be positive" in err
    code, out, err = run(capsys, "export", "--algebra", "cyclic:k=1,k=2,l=2,d=1")
    assert code == 2 and out == "" and "cyclic parameter 'k' given twice" in err


@pytest.mark.parametrize("field, value, message", [
    # product blocks 0-8 are those of grades (0, 0)
    ("dims", [3, 0], "product block 9: grade 1 has dimension 0"),
    ("unit", [[7, "1*zeta^0"]], "unit block 0: basis index 7 out of range for grade 0"),
])
def test_algebra_block_out_of_its_grade_exits_2(capsys, tmp_path, field, value, message):
    obj = algebra_to_json(builtin_algebra("cyclic:k=2,l=3,d=1"))
    obj[field] = value
    path = tmp_path / "algebra.json"
    path.write_text(dumps_canonical(obj))
    want = f"error: {str(path)!r}: {message}\n"
    assert run(capsys, "check", "--algebra", str(path)) == (2, "", want)


@pytest.mark.parametrize("dims, message", [
    ([1, -1], "negative grade dimension"),
    ([0, 1], "dims: dim H_1 must be positive"),
    ([1, 1, 0], "dims: supported grades not closed under inverse at a"),
    ([1, 1, 0, 0, 1], "dims: supported grades not closed under product at (a,a)"),
], ids=["negative-dim", "empty-identity-grade", "inverse-closure", "product-closure"])
def test_structure_error_from_dims_exits_2(capsys, tmp_path, dims, message):
    # a cyclic group of order len(dims), one coproduct block per basis
    # vector and no other entries: only the dims are at fault
    obj = {"conductor": 1, "group": group_to_json(cyclic_group(len(dims))), "dims": dims,
           "coproduct": [[a, 0, [0, 0, "1*zeta^0"]] for a, d in enumerate(dims) if d > 0],
           **{field: [] for field in ("unit", "product", "counit", "antipode",
                                      "crossing", "rmatrix")}}
    path = tmp_path / "algebra.json"
    path.write_text(dumps_canonical(obj))
    want = f"error: {str(path)!r}: {message}\n"
    assert run(capsys, "check", "--algebra", str(path)) == (2, "", want)


def test_moves_needs_a_single_connection(capsys):
    assert run(capsys, "moves", "--algebra", "kac-paljutkin", "--diagram", "s1xs3",
               "--connection", "all", "--script", "/dev/null") == (
        2, "", "error: the moves command needs a single connection\n")


@pytest.mark.parametrize("dotted, undotted, crossings, message", [
    ([{"id": 0, "passages": []}] * 2, [], [], "duplicate dotted component ids"),
    ([], [{"id": 0, "events": [["over", 0], ["under", 0]]}], [{"id": 0, "sign": "+"}] * 2,
     "duplicate crossing ids"),
    ([{"id": 0, "passages": [[0, 0], [0, 1]]}, {"id": 1, "passages": []}],
     [{"id": 0, "events": [["down", 0], ["down", 1]]}], [],
     "dot 0 references (0, 1), which names dot 1"),
])
def test_diagram_with_clashing_ids_exits_2(capsys, tmp_path, dotted, undotted, crossings,
                                           message):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"dotted": dotted, "undotted": undotted,
                                "crossings": crossings, "h3": 0, "h4": 0}))
    want = f"error: {str(path)!r}: {message}\n"
    assert run(capsys, "invariant", "--algebra", "cyclic:k=1,l=2,d=1",
               "--diagram", str(path)) == (2, "", want)


def test_diagram_file_structure_error_names_the_file(capsys, tmp_path):
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps({"dotted": [], "undotted": [], "crossings": [], "h3": 0}))
    want = f"error: {str(path)!r}: diagram: missing field 'h4'\n"
    assert run(capsys, "export", "--diagram", str(path)) == (2, "", want)
    # a file inside a connected sum is named too
    assert run(capsys, "export", "--diagram", f"connected-sum:cp2,{path}") == (2, "", want)


@pytest.mark.parametrize("exc", [RuntimeError("internal"), RecursionError("deep")])
def test_an_internal_error_escapes_main(monkeypatch, exc):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_export", fail)
    with pytest.raises(type(exc)):
        main(["export", "--algebra", "kac-paljutkin"])


def test_an_evaluation_error_exits_2(monkeypatch, capsys):
    def fail(args):
        raise EvaluationError("colors outside the algebra")
    monkeypatch.setattr(cli, "cmd_export", fail)
    assert run(capsys, "export", "--algebra", "kac-paljutkin") == (
        2, "", "error: colors outside the algebra\n")


def test_connection_relation_violation_exit_2(capsys):
    # a coloring that breaks a component relation is malformed input
    code, _, err = run(capsys, "moves", "--algebra", "kac-paljutkin",
                       "--diagram", "s2xs2", "--connection", "mu",
                       "--script", "/dev/null")
    assert code == 2


@pytest.mark.parametrize("diagram, step, message", [
    ("cp2", {"move": "I-2-insert", "over": 0, "over_pos": "x", "under": 0,
             "under_pos": 1}, "over_pos must be an integer, got 'x'"),
    ("s1xs3", {"move": "II-5", "dot": [0]}, "dot must be an integer, got [0]"),
    ("cp2", {"move": "I-3", "crossings": 5},
     "crossings must be a list of 3 integers, got 5"),
])
def test_mistyped_move_parameters_exit_2(capsys, tmp_path, diagram, step, message):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([step]))
    code, out, err = run(capsys, "moves", "--algebra", "cyclic:k=1,l=2,d=1",
                         "--diagram", diagram, "--script", str(script))
    assert code == 2
    assert f"error: script step 0: {step['move']}: {message}" in err
