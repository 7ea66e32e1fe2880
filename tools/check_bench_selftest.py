#!/usr/bin/env python3
"""Failure-path selftest for check_bench.py.

Runs check_bench.py as a subprocess against a battery of malformed inputs
and asserts that every one fails with exit code 1, a single-line
"check_bench: FAIL:" diagnostic on stderr, and NO Python traceback.  A
traceback in CI buries the actual problem, so the gate's own error paths
are pinned here (registered as the check_bench_failures ctest).

Usage:
    check_bench_selftest.py <path-to-check_bench.py>
"""
import json
import os
import subprocess
import sys
import tempfile

GOOD = {
    "bench": "perf_core",
    "schema_version": 3,
    "smoke": True,
    "timestamp_unix": 1,
    "config": {"compiler": "gcc", "build_type": "Release"},
    "results": [
        {"name": "event_churn", "servers": 64, "events": 100, "seconds": 0.5},
        {"name": "ckpt_roundtrip", "servers": 64, "vms": 640,
         "save_seconds": 0.01, "restore_seconds": 0.01, "bytes": 1234,
         "resume_identical": True},
        {"name": "route_throughput", "servers": 64, "routes": 640,
         "bootstrap_seconds": 0.02, "seconds": 0.5},
        {"name": "arena_vbundle", "servers": 64, "requests": 10,
         "accepted": 5, "acceptance_rate": 0.5, "revenue": 1.25,
         "revenue_capture": 0.4},
    ],
}


def mutated(**overrides):
    doc = json.loads(json.dumps(GOOD))
    doc.update(overrides)
    return doc


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    check_bench = argv[1]
    tmp = tempfile.mkdtemp(prefix="check_bench_selftest.")

    def write(tag, content):
        path = os.path.join(tmp, tag + ".json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(content if isinstance(content, str) else json.dumps(content))
        return path

    ref = write("ref", GOOD)
    failures = []

    def run(fresh_path, ref_path=ref):
        return subprocess.run(
            [sys.executable, check_bench, fresh_path, ref_path],
            capture_output=True, text=True, timeout=60)

    def expect_fail(tag, proc, want_substr):
        problems = []
        if proc.returncode == 0:
            problems.append("exit code 0, expected nonzero")
        if "Traceback" in proc.stderr or "Traceback" in proc.stdout:
            problems.append("printed a Python traceback")
        diag = [l for l in proc.stderr.splitlines() if l.strip()]
        if len(diag) != 1 or not diag[0].startswith("check_bench: FAIL:"):
            problems.append(f"stderr is not one FAIL line: {proc.stderr!r}")
        elif want_substr not in diag[0]:
            problems.append(f"diagnostic {diag[0]!r} lacks {want_substr!r}")
        if problems:
            failures.append(f"{tag}: " + "; ".join(problems))
        else:
            print(f"  ok: {tag}: {diag[0]}")

    # The happy path must still pass (guards against the selftest fixtures
    # themselves drifting out of schema).
    proc = run(write("identical", GOOD))
    if proc.returncode != 0:
        failures.append(f"identical: expected pass, got {proc.returncode}: "
                        f"{proc.stderr!r}")
    else:
        print("  ok: identical: passes")

    expect_fail("missing-file", run(os.path.join(tmp, "nope.json")),
                "cannot load")
    expect_fail("malformed-json", run(write("garbage", "{not json!")),
                "cannot load")
    expect_fail("non-object-top", run(write("toplist", [1, 2, 3])),
                "top level")
    expect_fail("schema-mismatch", run(write("v2", mutated(schema_version=2))),
                "schema_version")
    expect_fail("missing-config-key",
                run(write("noconf", mutated(config={"compiler": "gcc"}))),
                "config.build_type")
    expect_fail("non-object-config",
                run(write("confnum", mutated(config=7))), "config")
    expect_fail("results-not-array",
                run(write("resstr", mutated(results="rows"))), "results")
    expect_fail("non-object-row",
                run(write("rowstr", mutated(results=["row"]))), "result row")
    expect_fail("missing-row",
                run(write("fewrows", mutated(results=GOOD["results"][:1]))),
                "row sets differ")
    expect_fail("missing-metric", run(write("nokeys", mutated(results=[
        GOOD["results"][0],
        {"name": "ckpt_roundtrip", "servers": 64, "vms": 640},
        GOOD["results"][2],
        GOOD["results"][3],
    ]))), "missing keys")
    expect_fail("exact-drift", run(write("drift", mutated(results=[
        GOOD["results"][0],
        dict(GOOD["results"][1], bytes=9999),
        GOOD["results"][2],
        GOOD["results"][3],
    ]))), "behaviour change")
    expect_fail("nonpositive-timing", run(write("negsec", mutated(results=[
        dict(GOOD["results"][0], seconds=-1.0),
        GOOD["results"][1],
        GOOD["results"][2],
        GOOD["results"][3],
    ]))), "finite-positive")
    expect_fail("bool-flip", run(write("boolflip", mutated(results=[
        GOOD["results"][0],
        dict(GOOD["results"][1], resume_identical=False),
        GOOD["results"][2],
        GOOD["results"][3],
    ]))), "resume_identical")
    expect_fail("duplicate-row", run(write("dup", mutated(
        results=GOOD["results"] + [GOOD["results"][0]]))), "duplicate row")
    # Decreasing-class metric: a bootstrap time far above the reference (an
    # O(N^2) relapse) must trip the ratchet even though it is finite-positive.
    expect_fail("decreasing-regression", run(write("slowboot", mutated(results=[
        GOOD["results"][0],
        GOOD["results"][1],
        dict(GOOD["results"][2], bootstrap_seconds=55.0),
        GOOD["results"][3],
    ]))), "ratchet ceiling")
    # BANDED-class metric: a ratio outside its absolute range (an acceptance
    # rate above 1) must fail on any row that carries it.
    expect_fail("banded-out-of-range", run(write("badratio", mutated(results=[
        GOOD["results"][0],
        GOOD["results"][1],
        GOOD["results"][2],
        dict(GOOD["results"][3], acceptance_rate=1.7),
    ]))), "outside band")

    if failures:
        print("check_bench_selftest: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_bench_selftest: OK (16 failure paths + happy path)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
