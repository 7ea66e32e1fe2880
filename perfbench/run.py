#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark (see README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload rebalance_16k --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles ../src) in Release into .bench_build/perfbench
on first use.  Then runs reps of the workload, each in a process of its own,
until about --seconds have passed, and prints the metrics.  Build output and
per-rep lines go to stderr; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the spans of
the traced reps are written to .bench_build/perfbench/spans/.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170  # all reps of one run, whatever --seconds says


END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ckpt_mb": "MiB",
    "served_share": "ratio",
    "util_sd": "ratio",
}

# Every workload reports all of these; a metric of a layer the workload does
# not run reads 0.
PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.pending_end": "count",
    "update.window_s": "s",
    "update.events": "count",
    "update.ns_per_event": "ns",
    "pastry.msgs.aggregation": "count",
    "pastry.msgs.overlay": "count",
    "rebalance.window_s": "s",
    "rebalance.events": "count",
    "rebalance.ns_per_event": "ns",
    "vbundle.queries_sent": "count",
    "vbundle.queries_declined": "count",
    "vbundle.decline_ratio": "ratio",
    "migration.completed": "count",
    "pastry.msgs.vbundle": "count",
    "pastry.msgs.scribe": "count",
    "pastry.msgs.total": "count",
    "pastry.bytes.total": "bytes",
    "pastry.msgs.per_node_max": "count",
    "pastry.msgs.retransmit": "count",
    "pastry.ns_per_msg": "ns",
    "setup.cloud_s": "s",
    "setup.pack_s": "s",
    "arena.embed_s": "s",
    "arena.embed_calls": "count",
    "arena.embed_placed": "count",
    "arena.embed_capacity_rejected": "count",
    "arena.embed_gate_rejected": "count",
    "arena.embed_us_p50": "us",
    "arena.embed_us_p99": "us",
    "arena.embed_placed_us_p50": "us",
    "arena.embed_gate_reject_us_p50": "us",
    "arena.embed_sim_events": "count",
    "arena.probes_per_vm": "ratio",
    "arena.release_s": "s",
    "arena.loop_other_s": "s",
    "arena.offered": "count",
    "arena.accepted": "count",
    "arena.active_end": "count",
    "arena.placed_vms_end": "count",
    "fleet.vm_records": "count",
    "fleet.live_vms": "count",
    "fleet.tombstone_share": "ratio",
    "ckpt.save_s": "s",
    "ckpt.restore_s": "s",
    "ckpt.bytes": "bytes",
    "trace.overhead_share": "ratio",
}


def rep_seed(seed, k):
    """Seed of the k-th distinct seed of a run: --seed itself for k = 0,
    otherwise a splitmix64 hash of (seed, k), so that no two are related."""
    mask = 2**64 - 1
    if k == 0:
        return seed & mask
    z = (seed + k * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.exit(f"run.py: failed ({done.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no simulator sources at {ROOT / 'src'}; "
                 "run from a full checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "--target", "vbbench", "-j", "4"],
              BUILD_TIMEOUT_S)
    return BUILD / "vbbench"


class Runner:
    """Runs reps, one process each, within RUN_BUDGET_S."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.reps = []

    def elapsed(self):
        return time.monotonic() - self.start

    def mean_rep_s(self):
        return self.elapsed() / max(1, len(self.reps))

    def rep(self, k, mode):
        seed = rep_seed(self.seed, k)
        cmd = [self.binary, "--workload", self.workload, "--seed", str(seed),
               "--mode", mode]
        if mode == "traced":
            spans = BUILD / "spans"
            spans.mkdir(exist_ok=True)
            cmd += ["--spans-out",
                    spans / f"{self.workload}-seed{seed}-rep{len(self.reps)}.jsonl"]
        budget = RUN_BUDGET_S - self.elapsed()
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=max(1, budget),
                                  check=False, text=True)
        except subprocess.TimeoutExpired:
            sys.exit(f"run.py: {self.workload} ran out of its {RUN_BUDGET_S} s budget")
        if done.returncode != 0:
            sys.exit(f"run.py: rep failed ({done.returncode}): {' '.join(map(str, cmd))}")
        r = json.loads(done.stdout.strip().splitlines()[-1])
        r["k"] = k
        log(f"rep {len(self.reps)} seed={seed} {mode}: setup={r['setup_s']:.3f}s "
            f"wall={sum(r['slice_s']):.3f}s digest={r['digest']} ops={r['operations']} "
            f"unserved={r['unserved']} rss={r['peak_rss_mib']:.1f}MiB")
        self.reps.append(r)


def check(reps):
    """Cross-rep checks plus each rep's own; returns the failures."""
    errors = [f"{r['mode']} rep, seed {r['seed']}: {e}" for r in reps for e in r["errors"]]
    primary = {r["digest"] for r in reps if r["k"] == 0}
    if len(primary) != 1:
        errors.append(f"reps of one seed disagree on the digest: {sorted(primary)}")
    for r in reps:
        if r["k"] != 0 and r["digest"] in primary:
            errors.append(f"seed {r['seed']} gave the primary seed's digest")
    if len({len(r["slice_s"]) for r in reps}) != 1:
        errors.append("reps cut the timed window into different slices")
    return errors


def robust_wall_s(reps):
    """Host time of the timed window from reps of one seed: the sum over its
    slices of the fastest rep's time for each slice.  Other tenants of the
    machine only ever slow a slice down, by up to a third for seconds at a
    time, so the fastest of several runs of the same work is the least
    disturbed measure of its cost."""
    return sum(min(col) for col in zip(*(r["slice_s"] for r in reps)))


def served(r):
    return (r["operations"] - r["unserved"]) / r["operations"] if r["operations"] else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    run = Runner(build(), args.workload, args.seed)
    if args.trace == 0:
        # Reps of the primary seed, one of them decorated (its digest must
        # match the plain ones'), and one rep of a second seed.
        run.rep(0, "plain")
        run.rep(1, "plain")
        run.rep(0, "decorated")
        run.rep(0, "plain")
        while run.elapsed() + run.mean_rep_s() <= args.seconds:
            run.rep(0, "plain")
    else:
        # Traced and plain reps of the primary seed, for the per-layer
        # metrics and the tracing overhead; one rep of a second seed.
        run.rep(0, "plain")
        run.rep(1, "plain")
        run.rep(0, "traced")
        while run.elapsed() + 2 * run.mean_rep_s() <= args.seconds:
            run.rep(0, "plain")
            run.rep(0, "traced")

    reps = run.reps
    errors = check(reps)
    if args.trace == 1:
        unknown = set(reps[-1]["layer"]) - set(PER_LAYER)
        if unknown:
            errors.append(f"unlisted per-layer metrics {sorted(unknown)}")
    for e in errors:
        log(f"CHECK FAILED: {e}")
    correct = not errors

    if args.trace == 0:
        primary = [r for r in reps if r["k"] == 0]
        ckpt = [r["ckpt_bytes"] for r in reps if r["ckpt_bytes"] > 0]
        values = {
            "wall_s": robust_wall_s(primary),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mib"] for r in primary),
            "ckpt_mb": statistics.median(ckpt) / 2**20,
            "served_share": served(primary[0]) if correct else 0.0,
            "util_sd": primary[0]["util_sd"],
        }
        units = END_TO_END
    else:
        traced = robust_wall_s([r for r in reps if r["mode"] == "traced"])
        base = robust_wall_s([r for r in reps if r["mode"] == "plain" and r["k"] == 0])
        values = {name: reps[-1]["layer"].get(name, 0.0) for name in PER_LAYER}
        values["trace.overhead_share"] = (traced - base) / base
        units = PER_LAYER

    attempted = max(1, sum(r["operations"] for r in reps))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
