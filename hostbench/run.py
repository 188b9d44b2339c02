#!/usr/bin/env python3
"""Host MD benchmark: what a `wsmd` user waits for, per workload.

    python3 hostbench/run.py --workload slab_ref4 --seed 1 --seconds 35 --trace 0
    python3 hostbench/run.py --self-test

Run from the repository root. The script builds the harness (CMake, into
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench), then runs the
workload's scenario again and again, each run in a fresh harness process,
until --seconds have passed. Every run is checked (finite thermo, NVE
energy drift, atom count, output files, no leftover /dev/shm segment,
identical final state across runs of one seed); a failed run is counted
and never timed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced runs and prints the per-layer metrics taken in the traced ones, plus
the tracing overhead between the two. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. README.md
defines every workload and metric.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Relative |E_end - E_start| / |E_start| over the NVE `run` stage. The seed
# commit measured at most 7e-5 (FP32 wafer backends); FP64 reference ~5e-6.
DRIFT_BAND = 5e-4

SLAB_DECK = "scenarios/cu_slab.deck"
# 100 steps per run: 20 thermostatted, 80 NVE. Thermo every 50 steps and no
# summary, so the output layer stays idle.
SLAB_KEYS = ["scale=4", "thermalize=290", "equilibrate=290 20", "run=80",
             "thermo_every=50", "summary="]
GB_DECK = "scenarios/cu_gb_mobility.deck"
GB_KEYS = ["backend=reference", "gb_atoms=4000", "thermalize=300",
           "equilibrate=300 10", "run=90", "xyz_every=1", "observe.every=1",
           "thermo_every=1", "checkpoint.every=10"]

# Layers (per-layer name prefixes) that do no work on a workload, and so
# print n/a there.
NO_MD = ["md."]
NO_WAFER = ["wse.", "shard.", "dist."]
NO_OUTPUT = ["io.xyz_ms", "io.checkpoint_ms", "obs."]

WORKLOADS = {
    "slab_ref4": {
        "deck": SLAB_DECK, "keys": SLAB_KEYS + ["backend=reference:4"],
        "atoms": 50688, "na": NO_WAFER + NO_OUTPUT,
    },
    "slab_sharded4": {
        "deck": SLAB_DECK, "keys": SLAB_KEYS + ["backend=sharded:4"],
        "atoms": 50688, "na": NO_MD + ["dist."] + NO_OUTPUT,
    },
    "slab_ranks4": {
        "deck": SLAB_DECK,
        "keys": SLAB_KEYS + ["backend=ranks:4", "dist.transport=shm"],
        "atoms": 50688,
        # Rank processes export only the wse.* counters, not the spans.
        "na": NO_MD + ["wse.begin_ms", "wse.density_ms", "wse.force_ms",
                       "wse.commit_ms", "shard.barrier_wait_ms"] + NO_OUTPUT,
    },
    "gb_observe": {
        "deck": GB_DECK, "keys": GB_KEYS, "atoms": 4032,
        "na": NO_WAFER,
    },
}

END_TO_END = [  # name, unit
    ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
FAIL_FRAC = ("fail_frac", "fraction")  # printed; carried by attempted/failed
# Printed but left out of the JSON line, whose metrics are the ones
# BENCHMARK.json gates: between invocations on a shared host the tail
# spread more than the largest bound a metric may have (README.md).
UNGATED = {"step_ms_tail"}

PER_LAYER = [  # name, unit
    ("lattice.build_s", "s"),
    ("engine.build_s", "s"),
    ("engine.step_ms", "ms"),
    ("engine.state_ms", "ms"),
    ("engine.snapshot_ms", "ms"),
    ("shard.busy_ms", "ms"),
    ("shard.wait_ms", "ms"),
    ("shard.wait_frac", "fraction"),
    ("shard.imbalance", "ratio"),
    ("shard.barrier_wait_ms", "ms"),
    ("md.neighbor_ms", "ms"),
    ("md.neighbor_rebuilds", "count"),
    ("md.force.density_ms", "ms"),
    ("md.force.pair_ms", "ms"),
    ("md.integrate_ms", "ms"),
    ("wse.begin_ms", "ms"),
    ("wse.density_ms", "ms"),
    ("wse.force_ms", "ms"),
    ("wse.commit_ms", "ms"),
    ("wse.candidates", "count"),
    ("wse.interactions", "count"),
    ("wse.sieve_accept", "fraction"),
    ("dist.halo_pack_ms", "ms"),
    ("dist.halo_exchange_ms", "ms"),
    ("dist.halo_unpack_ms", "ms"),
    ("dist.barrier_ms", "ms"),
    ("dist.overlap_compute_ms", "ms"),
    ("dist.halo_frac", "fraction"),
    ("scenario.runner_self_ms", "ms"),
    ("io.thermo_ms", "ms"),
    ("io.xyz_ms", "ms"),
    ("io.checkpoint_ms", "ms"),
    ("io.bytes_written", "bytes"),
    ("obs.rdf_ms", "ms"),
    ("obs.msd_ms", "ms"),
    ("obs.vacf_ms", "ms"),
    ("obs.defects_ms", "ms"),
    ("telemetry.overhead_frac", "fraction"),
    ("telemetry.unattributed_ms", "ms"),
]

MIN_RUNS = 3          # untraced runs per invocation, whatever --seconds says
RUN_TIMEOUT_S = 60    # one harness process (a healthy run takes < 10 s)
DEADLINE_S = 150      # no new run starts after this, so an invocation ends
TAIL_LADDER = (0.5, 0.9, 0.95, 0.99, 0.999)


def log(msg):
    print(msg, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "hostbench")


def build_harness():
    """Configure and build the harness; returns the binary's path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(bdir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "hostbench_harness",
                  "-j", jobs])
    with open(logpath, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("hostbench: build failed (see %s)" % logpath)
    return os.path.join(bdir, "hostbench_harness")


def fingerprint(sample_run):
    """Machine and build facts recorded with every result."""
    git = "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            git = p.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "apps"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    build = sample_run.get("build", {}) if sample_run else {}
    return {
        "nproc": os.cpu_count(),
        "simd_tier": sample_run.get("simd_tier", "unknown")
        if sample_run else "unknown",
        "compiler": build.get("compiler", "unknown"),
        "build_type": build.get("build_type", "unknown"),
        "git_sha": git,
        "src_sha256": h.hexdigest()[:16],
    }


def run_once(binary, workload, seed, traced, scratch, extra_keys=()):
    """One harness process. Returns (record, failure reason or None)."""
    w = WORKLOADS[workload]
    if os.path.exists(scratch):
        shutil.rmtree(scratch)
    cmd = [binary, "--deck", w["deck"], "--out", scratch]
    if traced:
        cmd.append("--trace")
    # An extra key replaces the workload's own (a schedule key would
    # otherwise append a stage).
    replaced = {k.split("=", 1)[0] for k in extra_keys}
    cmd += [k for k in w["keys"] if k.split("=", 1)[0] not in replaced]
    cmd += ["seed=%d" % seed] + list(extra_keys)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out after %d s" % RUN_TIMEOUT_S
    finally:
        # Rank processes belong to the harness's session; none may outlive
        # it. Orphans are reaped by init, so poll until the group is gone.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    lines = out.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if lines else None
    except ValueError:
        rec = None
    if proc.returncode != 0 or rec is None or not rec.get("ok"):
        why = (rec or {}).get("error") or err.strip()[-300:] or "no result"
        return rec, "exit %d: %s" % (proc.returncode, why)
    return rec, check(rec, w)


def check(rec, w):
    if not rec["thermo_finite"]:
        return "non-finite thermo value"
    drift = rec["nve_drift_rel"]
    if drift is None or not drift <= DRIFT_BAND:
        return "NVE energy drift %s outside %g" % (drift, DRIFT_BAND)
    if not rec["atoms"] == rec["engine_atoms"] == w["atoms"]:
        return "atom count %d/%d, expected %d" % (
            rec["atoms"], rec["engine_atoms"], w["atoms"])
    if rec["shm_leftover"] != 0:
        return "%d /dev/shm segment(s) left behind" % rec["shm_leftover"]
    if rec["steps"] != rec["schedule_steps"]:
        return "%d of %d steps reported" % (rec["steps"],
                                            rec["schedule_steps"])
    if not rec["outputs_ok"]:
        return "outputs incomplete: %d xyz frames, %d checkpoints, %d " \
               "failed probe streams" % (rec["xyz_frames"], rec["checkpoints"],
                                         rec["probe_failures"])
    if not rec["digest"]:
        return "no final state"
    return None


def tail(samples):
    """Highest ladder percentile of one run's step times with at least ten
    samples beyond it: (value, percentile)."""
    n = len(samples)
    rank = {q: math.ceil(q * n - 1e-9) for q in TAIL_LADDER}  # nearest rank
    p = max([q for q in TAIL_LADDER if n - rank[q] >= 10] or [0.5])
    return sorted(samples)[max(0, rank[p] - 1)], p


def run_workload(binary, workload, seed, seconds, traced,
                 extra_keys=(), min_runs=MIN_RUNS):
    """Runs until `seconds` pass; returns the invocation's record."""
    scratch_root = os.path.join(build_dir(), "runs", "%d" % os.getpid())
    plain, tracedruns, failures = [], [], []
    digests = set()
    spans_kept = None
    start = time.monotonic()
    i = 0
    while True:
        # Traced invocations alternate untraced/traced, so both see the
        # same machine conditions.
        want_trace = traced and i % 2 == 1
        scratch = os.path.join(scratch_root, "run%d" % i)
        rec, failure = run_once(binary, workload, seed, want_trace, scratch,
                                extra_keys)
        if failure is None:
            digests.add(rec["digest"])
            (tracedruns if want_trace else plain).append(rec)
            if want_trace:
                spans_kept = os.path.join(scratch, "harness_spans.json")
                keep = os.path.join(build_dir(), "spans",
                                    "%s-seed%d.json" % (workload, seed))
                os.makedirs(os.path.dirname(keep), exist_ok=True)
                shutil.copyfile(spans_kept, keep)
                spans_kept = keep
        else:
            failures.append(failure)
            log("  run %d failed: %s" % (i, failure))
        shutil.rmtree(scratch, ignore_errors=True)
        i += 1
        # Traced invocations stop only after a whole untraced/traced pair.
        enough = i >= (2 if traced else min_runs) and not (traced and i % 2)
        elapsed = time.monotonic() - start
        if elapsed >= seconds and (enough or
                                   elapsed + RUN_TIMEOUT_S > DEADLINE_S):
            break
    shutil.rmtree(scratch_root, ignore_errors=True)
    return {"plain": plain, "traced": tracedruns, "failures": failures,
            "attempted": i, "deterministic": len(digests) <= 1,
            "spans": spans_kept}


def end_to_end(runs):
    steps = [ms for r in runs for ms in r["step_ms"]]
    tails = [tail(r["step_ms"]) for r in runs]
    m = {
        "steps_per_s": statistics.median(r["steps_per_s"] for r in runs),
        "step_ms_p50": statistics.median(steps),
        # Per run, then the median over runs: one run caught in a burst of
        # host contention does not move it.
        "step_ms_tail": statistics.median(t for t, _ in tails),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return m, "p%g of %d steps per run, median of %d runs" % (
        100 * max(p for _, p in tails), len(runs[0]["step_ms"]), len(runs))


def per_layer(res):
    """Medians over the traced runs; None = n/a (the layer did no work)."""
    traced = res["traced"]
    out = {}
    for name, _ in PER_LAYER:
        if name == "io.bytes_written":
            vals = [r["io_bytes"] for r in traced]
        elif name == "telemetry.overhead_frac":
            continue
        else:
            vals = [r["layers"][name] for r in traced]
        vals = [v for v in vals if v is not None]
        out[name] = statistics.median(vals) if vals else None
    plain = statistics.median(r["steps_per_s"] for r in res["plain"])
    trace = statistics.median(r["steps_per_s"] for r in traced)
    out["telemetry.overhead_frac"] = 1.0 - trace / plain
    return out


def fmt(v):
    return "%.6g" % v


def report(workload, seed, res, traced):
    """Prints the human-readable table; returns the final JSON object."""
    w = WORKLOADS[workload]
    runs = res["plain"] + res["traced"]
    fp = fingerprint(runs[0] if runs else None)
    attempted, failed = res["attempted"], len(res["failures"])
    ok_traced = bool(res["traced"]) or not traced
    correct = (failed == 0 and res["deterministic"] and bool(res["plain"])
               and ok_traced)
    log("hostbench %s: %s %s, seed %d, %s atoms, %d runs" % (
        workload, w["deck"], " ".join(w["keys"]), seed,
        runs[0]["atoms"] if runs else "?", attempted))
    log("machine: " + " ".join("%s=%s" % kv for kv in fp.items()))
    if not res["deterministic"]:
        log("  FAIL: final-state digest differs between runs of one seed")
    record = {"workload": workload, "seed": seed, "trace": int(traced),
              "fingerprint": fp, "atoms": runs[0]["atoms"] if runs else None,
              "attempted": attempted, "failed": failed,
              "failures": res["failures"],
              "deterministic": res["deterministic"],
              "runs": [{k: r[k] for k in ("steps_per_s", "setup_s",
                                          "peak_rss_mb", "step_ms")}
                       for r in res["plain"]]}
    metrics = {}
    if res["plain"]:
        e2e, tail_note = end_to_end(res["plain"])
        record["end_to_end"] = e2e
        for name, unit in END_TO_END:
            note = "  (%s)" % tail_note if name == "step_ms_tail" else ""
            log("  %-26s %12s %s%s" % (name, fmt(e2e[name]), unit, note))
        if not traced:
            metrics = {n: {"value": e2e[n], "unit": u}
                       for n, u in END_TO_END if n not in UNGATED}
    log("  %-26s %12s %s  (%d of %d runs failed)" % (
        FAIL_FRAC[0], fmt(failed / attempted), FAIL_FRAC[1], failed,
        attempted))
    if traced and res["traced"] and res["plain"]:
        layers = per_layer(res)
        record["per_layer"] = layers
        log("  per layer, median of %d traced runs (per step unless the "
            "README says otherwise):" % len(res["traced"]))
        for name, unit in PER_LAYER:
            v = layers[name]
            log("  %-26s %12s %s" % (name, "n/a" if v is None else fmt(v),
                                     "" if v is None else unit))
        log("  harness spans -> %s" % res["spans"])
        metrics = {n: {"value": 0 if layers[n] is None else layers[n],
                       "unit": u} for n, u in PER_LAYER}
    if not metrics:  # every run failed: nothing was timed
        names = PER_LAYER if traced else [
            (n, u) for n, u in END_TO_END if n not in UNGATED]
        metrics = {n: {"value": 0, "unit": u} for n, u in names}
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
            workload, seed, int(traced))), "w") as f:
        json.dump(record, f, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_test(binary):
    """Short mode: every metric name prints with its unit, or n/a exactly
    where that layer does no work, on every workload; a NaN-poisoned run
    counts as failed rather than fast."""
    short = ["run=15"]
    problems = []
    for workload, w in WORKLOADS.items():
        res = run_workload(binary, workload, 0, 0, True, short, min_runs=1)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            result = report(workload, 0, res, True)
        if not result["correct"]:
            problems.append("%s: runs failed: %s" % (workload,
                                                     res["failures"]))
            continue
        printed = {}
        for line in buf.getvalue().splitlines():
            f = line.split()
            if len(f) >= 2 and line.startswith("  "):
                printed[f[0]] = f[1:3]
        for name, unit in END_TO_END + [FAIL_FRAC] + PER_LAYER:
            expect_na = any(name.startswith(p) for p in w["na"])
            got = printed.get(name)
            if got is None:
                problems.append("%s: %s not printed" % (workload, name))
            elif expect_na and got != ["n/a"]:
                problems.append("%s: %s printed %s, expected n/a" % (
                    workload, name, " ".join(got)))
            elif not expect_na and (got[0] == "n/a" or got[1:] != [unit]):
                problems.append("%s: %s printed %s, expected a value in %s"
                                % (workload, name, " ".join(got), unit))
        log("self-test %s: %d metric lines checked" % (
            workload, len(END_TO_END) + 1 + len(PER_LAYER)))
    # Poisoned runs: slab_ref4 runs to the end on NaN (the thermo check must
    # catch it); gb_observe's trajectory writer rejects the NaN position.
    for workload in ("slab_ref4", "gb_observe"):
        res = run_workload(binary, workload, 0, 0, False,
                           short + ["health.inject_nan=5"], min_runs=1)
        if (res["attempted"] != 1 or len(res["failures"]) != 1
                or res["plain"]):
            problems.append("%s: NaN-poisoned run was not counted as failed "
                            "(attempted %d, failed %d, timed %d)" % (
                                workload, res["attempted"],
                                len(res["failures"]), len(res["plain"])))
        else:
            log("self-test %s poisoned run: counted as failed" % workload)
    for p in problems:
        log("self-test FAIL: " + p)
    log("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required (or --self-test)")
    binary = build_harness()
    if args.self_test:
        return self_test(binary)
    res = run_workload(binary, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    result = report(args.workload, args.seed, res, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
