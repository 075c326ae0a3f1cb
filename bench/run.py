"""hopfg benchmark: one workload per run, or all four with ``--workload all``.

    python3 bench/run.py --workload small-diagrams --seed 1 --seconds 25 --trace 0

One untimed warm-up round runs the workload's round (its list of
operations, fixed by the seed) once; the timed phase then repeats it and
starts another round only while it expects to finish within ``--seconds``
of the warm-up's start; at least one timed round always runs.
Every time the benchmark reports is scaled to a reference speed: a fixed
pure-Python calibration loop that imports nothing from hopfg is timed in
blocks between operations (at least every ``CAL_EVERY_S`` seconds, and
after each longer operation for ``CAL_SHARE`` of its time) and around
each set-up sample, and each wall time is multiplied by ``CAL_REF_S``
over the mean loop time of the blocks on either side of it.  The
machine's speed swings by up to 2x, in phases from tens of milliseconds
to minutes; the program's and the loop's times swing together, so their
ratio holds steadier (see README, Steadiness).  ``run_s`` is the sum over
one round's operations of each one's median scaled time over the timed
rounds, and ``op_p50_ms`` the median of those.  Each
operation's result is checked; an operation that raises, exits with the
wrong code or returns a wrong value counts as failed and is named on
stdout.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` untraced rounds fill the first half of the time
and traced rounds the second, and the metrics are the per-layer ones, per
traced round, with the tracing overhead as the traced ``run_s`` minus the
untraced one.  The exit code is 1 when an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # at least; one more is taken after every round
CAL_REF_S = 0.001  # one calibration loop takes this long at the reference speed
CAL_EVERY_S = 0.1  # longest stretch of operations between two calibration blocks
CAL_SHARE = 0.1  # after a longer operation, calibrate for this share of its time

PER_LAYER = [
    ("cyclo.mul.calls", "count"), ("cyclo.mul.s", "s"),
    ("cyclo.add.calls", "count"), ("cyclo.add.s", "s"),
    ("cyclo.inverse.calls", "count"), ("cyclo.inverse.s", "s"),
    ("algebra.mul_raw.calls", "count"), ("algebra.mul_raw.s", "s"),
    ("algebra.coproduct_power.calls", "count"), ("algebra.coproduct_power.s", "s"),
    ("algebra.coproduct_power.terms", "count"),
    ("integrals.solve.calls", "count"), ("integrals.solve.s", "s"),
    ("verify.axioms.calls", "count"), ("verify.axioms.s", "s"), ("verify.drinfeld.s", "s"),
    ("evaluate.calls", "count"), ("evaluate.s", "s"), ("evaluate.self_s", "s"),
    ("evaluate.summed.calls", "count"),
    ("groups.enumerate_homs.calls", "count"), ("groups.enumerate_homs.s", "s"),
    ("diagrams.validate.calls", "count"), ("diagrams.validate.s", "s"),
    ("diagrams.color.s", "s"),
    ("moves.apply.calls", "count"), ("moves.apply.s", "s"),
    ("moves.candidates.calls", "count"), ("moves.candidates.s", "s"),
    ("moves.candidates.yield", "ratio"),
    ("serialize.load.calls", "count"), ("serialize.load.s", "s"),
    ("serialize.load.bytes", "bytes"), ("serialize.dump.s", "s"),
    ("cli.startup_ms", "ms"), ("cli.main.s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_s", "s"),
]


def _calibration_loop():
    """Fixed pure-Python work of the kind hopfg does (Fraction and int
    arithmetic, dict updates, calls); about 1 ms on the reference machine
    in its fast phase."""
    acc = {}
    for i in range(1, 160):
        acc[i % 13] = acc.get(i % 13, 0) + Fraction(i, 7) * Fraction(3, i + 2)
    s = 0
    for j in range(2400):
        s += (j * j) % 11
    return acc, s


def calibrate(seconds=0.0):
    """One calibration block: the loop run at least twice and until
    ``seconds`` have passed.  Returns the mean time of one loop."""
    n = 0
    begin = time.perf_counter()
    while n < 2 or time.perf_counter() - begin < seconds:
        _calibration_loop()
        n += 1
    return (time.perf_counter() - begin) / n


def scaled(seconds, before, after):
    """A wall time, scaled by the calibration blocks on either side of it
    to the reference speed."""
    return seconds * CAL_REF_S * 2 / (before + after)


def run_round(w, ops, round_no, tracer, failures):
    """Run every operation once; return the op times scaled to the
    reference speed, the round's wall time and its mean calibration
    block."""
    w.seen = {}
    times, before = [], []
    begin = time.perf_counter()
    blocks = [calibrate()]
    cal_at = time.perf_counter()
    for i, op in enumerate(ops):
        op_id = round_no * len(ops) + i
        w.op_id = op_id
        if time.perf_counter() - cal_at > CAL_EVERY_S:
            blocks.append(calibrate())
            cal_at = time.perf_counter()
        before.append(len(blocks) - 1)
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation's failure is reported, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        times.append(end - start)
        if tracer is not None:
            tracer.op = None
        if end - start > CAL_EVERY_S:
            blocks.append(calibrate((end - start) * CAL_SHARE))
            cal_at = time.perf_counter()
        if error is None:
            try:
                reason = op.check(result)
            except Exception as exc:  # a check that cannot read the result
                reason = f"unreadable result: {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append((round_no, op.label, "wrong value: " + reason))
        else:
            failures.append((round_no, op.label, error))
    blocks.append(calibrate())
    wall = time.perf_counter() - begin
    return ([scaled(t, blocks[j], blocks[j + 1]) for t, j in zip(times, before)],
            wall, statistics.fmean(blocks))


def timed_rounds(w, ops, seconds, tracer, failures, first_round=0, between=None):
    """Rounds until the next one would end after ``seconds``; at least one.
    ``between`` runs after every round, inside the time budget.  Returns
    the scaled op times of each round and, per round, its wall time and
    mean calibration block."""
    rounds, walls = [], []
    begin = time.perf_counter()
    while True:
        times, wall, cal = run_round(w, ops, first_round + len(rounds), tracer, failures)
        rounds.append(times)
        walls.append((wall, cal))
        if between is not None:
            between()
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds, walls


def median_each(rounds):
    """Each operation's median scaled time over the rounds."""
    return [statistics.median(times) for times in zip(*rounds)]


def setup_sample(name, seed, work_root):
    """Wall time from spawning a fresh interpreter until it has done the
    workload's set-up."""
    work = tempfile.mkdtemp(dir=work_root)
    try:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-only", work]
        cal = calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit(f"error: set-up of {name} failed (exit {proc.returncode})")
        return scaled(ready - start, cal, calibrate((ready - start) * CAL_SHARE))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args):
    cls = WORKLOADS[args.workload]
    # one CPU for the run and every process it starts, so the calibration
    # samples the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    if args.setup_only:
        cls(args.seed, args.setup_only).setup()
        print("ready", flush=True)
        return 0

    # set-up is sampled before the timed phase and after every round, so the
    # samples spread over the run and its median does not hang on one phase
    setups = []

    def sample_setup():
        setups.append(setup_sample(args.workload, args.seed, work_root))

    if not args.trace:
        sample_setup()
    work = tempfile.mkdtemp(dir=work_root)
    try:
        w = cls(args.seed, work)
        w.setup()
        w.prepare()
        ops = w.operations()
        failures = []
        # a warm-up round fills the program's caches; its values are
        # checked and its operations counted, but it is not timed
        begin = time.perf_counter()
        run_round(w, ops, 0, None, failures)
        left = args.seconds - (time.perf_counter() - begin)
        if args.trace:
            # untraced rounds for the first half, traced ones for the second
            untraced, _ = timed_rounds(w, ops, left / 2, None, failures, first_round=1)
            tracer = tracing.Tracer()
            if w.in_process:
                tracer.install()
            else:
                w.traced = True
            rounds, walls = timed_rounds(w, ops, left / 2, tracer, failures,
                                         first_round=1 + len(untraced))
            tracer.uninstall()
            metrics = per_layer(w, tracer, rounds, sum(median_each(untraced)))
            attempted = len(ops) * (1 + len(untraced) + len(rounds))
        else:
            rounds, walls = timed_rounds(w, ops, left, None, failures, first_round=1,
                                         between=sample_setup)
            while len(setups) < SETUP_SAMPLES:
                sample_setup()
            attempted = len(ops) * (1 + len(rounds))
            typical = median_each(rounds)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "run_s": (sum(typical), "s"),
                "op_p50_ms": (statistics.median(typical) * 1000.0, "ms"),
                "peak_rss_mb": (w.peak_rss_mb(), "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = [f for f in failures if f[2].startswith("wrong value")]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed rounds {len(rounds)} (after one warm-up)  ops/round (op_p50_ms samples) {len(ops)}  "
          f"round wall times {' '.join(f'{t:.3f}' for t, _ in walls)} s, "
          f"scaled {' '.join(f'{sum(t):.3f}' for t in rounds)} s, "
          f"calibration {' '.join(f'{c * 1000:.3f}' for _, c in walls)} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    print(f"  attempted {attempted}  failed {len(failures)}")
    for round_no, label, reason in failures:
        print(f"FAIL {args.workload} round {round_no} op {label!r}: {reason}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


def per_layer(w, tracer, rounds, untraced_s):
    """Per-layer totals divided by the number of traced rounds."""
    states = w.child_states if not w.in_process else [tracer.state()]
    totals = tracing.layer_totals(states)
    n = len(rounds)
    out = {}
    for name, unit in PER_LAYER:
        out[name] = (totals.get(name, 0) / n, unit)
    tried = totals.get("moves.candidates.yield.tried", 0)
    out["moves.candidates.yield"] = (
        totals.get("moves.candidates.yield.specs", 0) / tried if tried else 0.0, "ratio")
    startups = [st["startup_ms"] for st in states if "startup_ms" in st]
    out["cli.startup_ms"] = (statistics.median(startups) if startups else 0.0, "ms")
    traced_s = sum(median_each(rounds))
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    path = os.path.join(HERE, "_out", f"spans-{w.name}-seed{w.seed}.jsonl")
    tracing.dump(path, states)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return out


def run_all(args):
    """Every workload, untraced and then traced, each in its own process."""
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
            code = code or proc.returncode
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
