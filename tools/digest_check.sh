#!/usr/bin/env bash
# Bit-identity check of the working tree against another commit.
#
#   tools/digest_check.sh <parent-ref> [seed ...]
#
# Builds perfbench/ in Release twice: for <parent-ref> from a git worktree
# under .bench_build/digest_check/, and for the working tree into
# .bench_build/perfbench as perfbench/run.py does.  Runs
# `vbbench --mode decorated` for rebalance_16k, arena_competitive_8k and
# arena_vbundle_3k on each seed (default: 1 3 7) and prints one row per
# (workload, seed) with the digest, ckpt_bytes, operations, unserved and
# util_sd of both sides, as parent/change.  Exits non-zero if any of them
# differ or either side reports an error.  The worktree is removed on exit.
#
# A change that alters outputs on purpose fails this check, so it is a tool
# for changes that claim bit-identical runs, not a CI step.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <parent-ref> [seed ...]" >&2
  exit 2
fi
ref=$1
shift
seeds=("$@")
if [[ ${#seeds[@]} -eq 0 ]]; then seeds=(1 3 7); fi
workloads=(rebalance_16k arena_competitive_8k arena_vbundle_3k)

cd "$(dirname "$0")/.."
commit=$(git rev-parse --verify "$ref^{commit}")
base=.bench_build/digest_check
tree=$base/parent
rm -rf "$base"
git worktree prune
mkdir -p "$base"
cleanup() {
  git worktree remove --force "$tree" 2>/dev/null || true
  git worktree prune
}
trap cleanup EXIT
git worktree add --detach "$tree" "$commit" >/dev/null

echo "building perfbench at $ref ($commit)" >&2
cmake -S "$tree/perfbench" -B "$tree/.build" -DCMAKE_BUILD_TYPE=Release \
  >/dev/null
cmake --build "$tree/.build" --target vbbench -j 4 >/dev/null
echo "building perfbench from the working tree" >&2
if [[ ! -f .bench_build/perfbench/CMakeCache.txt ]]; then
  cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release \
    >/dev/null
fi
cmake --build .bench_build/perfbench --target vbbench -j 4 >/dev/null

runs=$base/runs.jsonl
: >"$runs"
for w in "${workloads[@]}"; do
  for s in "${seeds[@]}"; do
    for side in parent change; do
      bin=.bench_build/perfbench/vbbench
      if [[ $side == parent ]]; then bin=$tree/.build/vbbench; fi
      echo "running $w seed $s ($side)" >&2
      out=$("$bin" --workload "$w" --seed "$s" --mode decorated | tail -n 1)
      printf '{"side": "%s", "run": %s}\n' "$side" "$out" >>"$runs"
    done
  done
done

python3 - "$runs" <<'EOF'
import json
import sys

FIELDS = ("digest", "ckpt_bytes", "operations", "unserved", "util_sd")
rows = {}
for line in open(sys.argv[1]):
    rec = json.loads(line)
    r = rec["run"]
    rows.setdefault((r["workload"], r["seed"]), {})[rec["side"]] = r

failed = 0
print(f"{'workload':<21}{'seed':>5}  {'digest':<35}{'ckpt_bytes':<23}"
      f"{'operations':<15}{'unserved':<13}{'util_sd':<43}result")
for (workload, seed), sides in rows.items():
    p, c = sides["parent"], sides["change"]
    diff = [f for f in FIELDS if p[f] != c[f]]
    errors = p["errors"] + c["errors"]
    failed += bool(diff or errors)
    pair = {f: f"{p[f]!r}/{c[f]!r}".replace("'", "") for f in FIELDS}
    print(f"{workload:<21}{seed:>5}  {pair['digest']:<35}"
          f"{pair['ckpt_bytes']:<23}{pair['operations']:<15}"
          f"{pair['unserved']:<13}{pair['util_sd']:<43}"
          + ("DIFF " + " ".join(diff + errors) if diff or errors else "same"))
print(f"{len(rows) - failed} of {len(rows)} (workload, seed) pairs identical")
sys.exit(1 if failed else 0)
EOF
