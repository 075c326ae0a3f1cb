"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from links import clasped_link  # noqa: E402
from oracle import cyclic_value, reduce_counts  # noqa: E402

GRID = workloads.GRID

# the builtin diagrams, written out here rather than read from hopfg
CP2 = {"dotted": [], "undotted": [{"id": 0, "events": [["over", 0], ["under", 0]]}],
       "crossings": [{"id": 0, "sign": "+"}], "h3": 0, "h4": 1}
S2XS2 = {"dotted": [], "undotted": [{"id": 0, "events": [["over", 0], ["under", 1]]},
                                    {"id": 1, "events": [["under", 0], ["over", 1]]}],
         "crossings": [{"id": 0, "sign": "+"}, {"id": 1, "sign": "+"}], "h3": 0, "h4": 1}
S1XS3 = {"dotted": [{"id": 0, "passages": []}], "undotted": [], "crossings": [],
         "h3": 1, "h4": 1}
S1XS1XS2 = {
    "dotted": [{"id": 0, "passages": [[0, 0], [0, 4]]}, {"id": 1, "passages": [[0, 5], [0, 3]]}],
    "undotted": [{"id": 0, "events": [["down", 0], ["under", 0], ["over", 1], ["down", 1],
                                      ["up", 0], ["up", 1]]},
                 {"id": 1, "events": [["over", 0], ["under", 1]]}],
    "crossings": [{"id": 0, "sign": "+"}, {"id": 1, "sign": "+"}], "h3": 2, "h4": 1}


def rational(q):
    return {0: Fraction(q)} if q else {}


def clasp(l, d):
    g = gcd(l, d)
    return Fraction(g * (3 + (-1) ** (l // g)), 2 * l)


@pytest.mark.parametrize("k,l,d", GRID)
def test_oracle_matches_the_closed_forms(k, l, d):
    counts = [0] * l
    for i in range(l):
        counts[d * i * i % l] += 1
    gauss = {e: Fraction(c, l) for e, c in reduce_counts(counts, l).items()}
    assert cyclic_value(CP2, k, l, d, {}) == gauss
    assert cyclic_value(S2XS2, k, l, d, {}) == rational(clasp(l, d))
    assert cyclic_value(S1XS3, k, l, d, {0: k - 1}) == rational(l)
    for a in range(k):
        for b in range(k):
            assert cyclic_value(S1XS1XS2, k, l, d, {0: a, 1: b}) == rational(clasp(l, d) * l * l)


def test_coloring_term_is_needed():
    """At cyclic:k=2,l=4,d=3 a coil's colored connection differs from its
    trivial one, and the engine agrees with the oracle on both."""
    hopfg = workloads._import_hopfg()
    H = hopfg.builtin_algebra("cyclic:k=2,l=4,d=3")
    ints = hopfg.solve_integrals(H)
    link = clasped_link(3, False, 1, 0, 1, seed=7, layout=7)
    d = hopfg.diagram_from_json(link)
    values = {}
    for cd in hopfg.colorings(d, H.group):
        col = {x.id: cd.colors[x.id].index for x in d.dotted}
        want = cyclic_value(link, 2, 4, 3, col)
        assert workloads.plain(hopfg.evaluate(H, ints, cd).value, 4) == want
        values[tuple(col.values())] = want
    assert values[(1,)] != values[(0,)]


def test_generated_links_are_valid_and_agree_with_the_engine():
    hopfg = workloads._import_hopfg()
    bank = {}
    for spec in ("cyclic:k=2,l=3,d=1", "cyclic:k=3,l=2,d=1", "cyclic:k=1,l=4,d=1"):
        H = hopfg.builtin_algebra(spec)
        bank[spec] = (H, hopfg.solve_integrals(H))
    for seed, shape in enumerate([(3, False, 2, 1, 0), (3, True, 1, 0, 1),
                                  (4, False, 0, 1, 1), (3, True, 2, 0, 0)]):
        link = clasped_link(*shape, seed=seed, layout=seed)
        assert link == clasped_link(*shape, seed=seed, layout=seed)
        d = hopfg.diagram_from_json(link)
        assert hopfg.validate(d) == []
        for spec, (H, ints) in bank.items():
            k, l, dd = workloads.parse_cyclic(spec)
            summed = hopfg.evaluate_summed(H, ints, d)
            assert workloads.compare_summed(
                summed, workloads.expected_cyclic(link, k, l, dd), H.conductor) is None


def test_turned_links_keep_their_value_on_kac_paljutkin():
    hopfg = workloads._import_hopfg()
    H = hopfg.builtin_algebra("kac-paljutkin")
    ints = hopfg.solve_integrals(H)
    for seed in range(3):
        a = hopfg.diagram_from_json(clasped_link(3, True, 2, 1, 0, seed=seed, layout=seed))
        b = hopfg.diagram_from_json(clasped_link(3, True, 2, 1, 0, seed=seed, layout=seed,
                                                 turn=1))
        assert [v.value for v in hopfg.evaluate_summed(H, ints, a).values] == \
            [v.value for v in hopfg.evaluate_summed(H, ints, b).values]


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_reports_every_end_to_end_metric():
    proc, doc = _bench("--workload", "algebra-check", "--seed", "3", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout
    # one warm-up round and one timed round of the 5 algebras
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] == 10
    assert set(doc["metrics"]) == {"setup_s", "run_s", "op_p50_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc, doc = _bench("--workload", "algebra-check", "--seed", "3", "--seconds", "1",
                       "--trace", "1")
    assert proc.returncode == 0, proc.stdout
    metrics = doc["metrics"]
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["verify.axioms.calls"]["value"] == 5
    assert metrics["integrals.solve.calls"]["value"] == 5
    assert metrics["serialize.load.calls"]["value"] == 5
    assert metrics["serialize.load.bytes"]["value"] > 0
    assert metrics["evaluate.calls"]["value"] == 0
    assert metrics["cyclo.mul.calls"]["value"] > 0


def test_a_wrong_expected_value_counts_as_a_failed_operation(monkeypatch, capsys):
    prepare = workloads.AlgebraCheck.prepare

    def tampered(self):
        prepare(self)
        spec = self.specs[1]
        H, path = self.algebras[spec]
        self.algebras[spec] = (self.hp.builtin_algebra("cyclic:k=1,l=2,d=1"), path)

    monkeypatch.setattr(workloads.AlgebraCheck, "prepare", tampered)
    code = run.main(["--workload", "algebra-check", "--seed", "3", "--seconds", "0.1"])
    out = capsys.readouterr().out
    doc = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    # the tampered algebra fails in the warm-up round and in the timed one
    assert doc["failed"] == 2 and doc["attempted"] == 10 and not doc["correct"]
    assert "FAIL algebra-check round 0 op 'check cyclic:k=3,l=6" in out
