#!/usr/bin/env python3
"""Schema + sanity gate for perf_core's BENCH_core JSON.

Usage:
    check_bench.py <fresh.json> <reference.json>

Compares a freshly produced BENCH_core[.smoke].json against the committed
reference and fails (exit 1) on any structural or semantic regression:

  * schema_version and the set of (name, servers) result rows must match;
  * every row must carry at least the reference row's keys;
  * deterministic metrics (event counts, migrations, tree heights, ...) must
    match the reference EXACTLY — the workloads are seeded, so these numbers
    are bit-stable across machines and any drift is a real behaviour change;
  * timing-derived metrics (seconds, rates) only have to be finite and
    positive — wall clock on shared CI runners is not reproducible;
  * boolean self-checks (ckpt_roundtrip's "resume_identical") must match.

Runs both as a ctest (bench_schema, after bench_smoke) and as a CI step.
Stdlib only; no third-party imports.
"""
import json
import math
import sys

# Deterministic per-row metrics: seeded workload outputs, compared exactly.
EXACT = {
    "servers", "events", "routes", "rounds", "vms", "sim_events",
    "migrations", "tree_height", "bytes",
    # Arena campaign outcomes (BENCH_arena.json): the accept/reject sequence
    # is a pure function of the seed, so the counters and the decision
    # fingerprint are bit-stable across machines.
    "requests", "accepted", "rejected_capacity", "rejected_cost",
    "vms_accepted", "slo_violations", "migration_churn",
    "decision_fingerprint",
}

# Timing-derived metrics: positive and finite, nothing more.
POSITIVE = {
    "seconds", "events_per_sec", "routes_per_sec", "rounds_per_sec",
    "save_seconds", "restore_seconds",
    "revenue", "offered_revenue",
}

# Absolute-scale ratio metrics, checked wherever they appear: acceptance
# rates, revenue capture, and the fleet fragmentation/utilization ratios of
# BENCH_arena.json are meaningless outside their class band on any machine,
# at any scale.  BANDED applies to every row that carries the metric.
BANDED = {
    "acceptance_rate": (0.0, 1.0),
    "revenue_capture": (0.0, 1.0),
    "fragmentation": (0.0, 1.0),
    "utilization": (0.0, 1.0),
}

# One-way ratchets: fleet bring-up costs that an algorithmic change drove
# down by orders of magnitude (the bulk-join synthesizer; see
# src/pastry/bulk_bootstrap.h).  A fresh value must be finite-positive and
# may not regress past max(reference * DECREASING_SLACK, DECREASING_FLOOR_S)
# — generous enough for contended CI wall clocks, tight enough that an
# accidental return to the O(N^2) path (reference * ~100+ at 16k servers)
# can never slip through.
DECREASING = {"bootstrap_seconds", "setup_seconds", "build_seconds"}
DECREASING_SLACK = 25.0
DECREASING_FLOOR_S = 0.25


def fail(msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: top level is {type(doc).__name__}, expected an object")
    return doc


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_row(key, fresh_row, ref_row):
    if not isinstance(fresh_row, dict):
        fail(f"{key}: fresh row is {type(fresh_row).__name__}, expected an object")
    missing = set(ref_row) - set(fresh_row)
    if missing:
        fail(f"{key}: missing keys {sorted(missing)}")
    for metric, ref_val in ref_row.items():
        val = fresh_row[metric]
        if metric == "name":
            continue
        if metric in BANDED:
            lo, hi = BANDED[metric]
            if not is_number(val) or not (lo <= val <= hi):
                fail(f"{key}: {metric}={val} outside band [{lo}, {hi}] "
                     "(BANDED metric — a ratio left its meaningful range)")
        elif metric in EXACT:
            if val != ref_val:
                fail(f"{key}: {metric}={val} != reference {ref_val} "
                     "(deterministic metric — this is a behaviour change)")
        elif metric in POSITIVE:
            if not is_number(val) or not math.isfinite(val) or val <= 0:
                fail(f"{key}: {metric}={val} is not finite-positive")
        elif metric in DECREASING:
            if not is_number(val) or not math.isfinite(val) or val <= 0:
                fail(f"{key}: {metric}={val} is not finite-positive")
            if is_number(ref_val):
                ceiling = max(ref_val * DECREASING_SLACK, DECREASING_FLOOR_S)
                if val > ceiling:
                    fail(f"{key}: {metric}={val} exceeds ratchet ceiling "
                         f"{ceiling:.6g} (reference {ref_val} — decreasing "
                         "metric; did bring-up fall back to the O(N^2) path?)")
        elif isinstance(ref_val, bool):
            if val != ref_val:
                fail(f"{key}: {metric}={val} != reference {ref_val}")
        # Unknown metric classes are presence-checked only: new fields may
        # be added by later schema versions without breaking old references.


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh = load(argv[1])
    ref = load(argv[2])

    if fresh.get("schema_version") != ref.get("schema_version"):
        fail(f"schema_version {fresh.get('schema_version')} != "
             f"reference {ref.get('schema_version')}")
    if fresh.get("smoke") != ref.get("smoke"):
        fail(f"smoke={fresh.get('smoke')} != reference {ref.get('smoke')}")
    config = fresh.get("config")
    if not isinstance(config, dict):
        fail(f"config is {type(config).__name__}, expected an object")
    for k in ("compiler", "build_type"):
        if k not in config:
            fail(f"config.{k} missing (schema v3 requires it)")

    def rows(doc, which):
        out = {}
        results = doc.get("results")
        if not isinstance(results, list):
            fail(f"{which}: results is {type(results).__name__}, "
                 "expected an array")
        for row in results:
            if not isinstance(row, dict):
                fail(f"{which}: result row is {type(row).__name__}, "
                     "expected an object")
            key = (row.get("name"), row.get("servers"))
            if key in out:
                fail(f"{which}: duplicate row {key}")
            out[key] = row
        return out

    fresh_rows = rows(fresh, "fresh")
    ref_rows = rows(ref, "reference")
    if set(fresh_rows) != set(ref_rows):
        fail(f"row sets differ: fresh-only={sorted(set(fresh_rows) - set(ref_rows))} "
             f"reference-only={sorted(set(ref_rows) - set(fresh_rows))}")

    for key, ref_row in sorted(ref_rows.items(), key=str):
        check_row(key, fresh_rows[key], ref_row)

    version = fresh.get("schema_version")
    if version is None:
        fail("schema_version missing from both files")
    print(f"check_bench: OK ({len(fresh_rows)} rows, schema v{version})")
    return 0


if __name__ == "__main__":
    # Last-resort guard: any bug or unanticipated malformation above still
    # exits with a one-line diagnostic, never a traceback — CI logs grep for
    # "check_bench:" and a stack trace would bury the actual failure.
    try:
        sys.exit(main(sys.argv))
    except SystemExit:
        raise
    except Exception as e:  # noqa: BLE001 — the whole point is the catch-all
        fail(f"internal error: {type(e).__name__}: {e}")
