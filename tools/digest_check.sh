#!/usr/bin/env bash
# Bit-identity check of the working tree against another commit.
#
#   tools/digest_check.sh <parent-ref> [seed ...]
#
# Exports <parent-ref> with `git archive` into .bench_build/digest_check/
# and builds two programs for it and for the working tree, in Release:
# perfbench's vbbench (the working tree's into .bench_build/perfbench, as
# perfbench/run.py does) and the vbundle_sim CLI (the working tree's into
# .bench_build/vbundle_sim).  Then, for each seed (default: 1 3 7):
#
#   * `vbbench --mode decorated` for rebalance_16k, arena_competitive_8k and
#     arena_vbundle_3k: one row per (workload, seed) with the digest,
#     ckpt_bytes, operations, unserved and util_sd of both sides, as
#     parent/change;
#   * four vbundle_sim runs that save a checkpoint image every few simulated
#     minutes: `rebalance --checkpoint-every` without and with `--trace`,
#     and `arena --checkpoint-every` with `--embedder competitive` and with
#     `--embedder vbundle`: one row per (run, seed) with both last images'
#     sizes and whether `cmp` finds them byte-identical.  Equal ckpt_bytes
#     cannot reveal a field written in another order; equal bytes can.
#
# Exits non-zero if anything differs or either side reports an error.  The
# exported tree and its builds are removed on exit.
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
# name | vbundle_sim arguments; every run also gets --seed and, for arena,
# --arena-seed.
sim_runs=(
  "rebalance|rebalance --racks 5 --hosts 10 --checkpoint-every 1200"
  "rebalance_trace|rebalance --racks 5 --hosts 10 --checkpoint-every 1200 --trace"
  "arena_competitive|arena --embedder competitive --racks 8 --hosts 10 --arrival-rate 2 --lifetime 600 --requests 4000 --duration 4000 --checkpoint-every 1000"
  "arena_vbundle|arena --embedder vbundle --racks 5 --hosts 10 --arrival-rate 0.2 --lifetime 600 --requests 200 --duration 2600 --checkpoint-every 650"
)

cd "$(dirname "$0")/.."
commit=$(git rev-parse --verify "$ref^{commit}")
base=.bench_build/digest_check
tree=$base/parent
rm -rf "$base"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git archive "$commit" | tar -x -C "$tree"

echo "building vbbench and vbundle_sim at $ref ($commit)" >&2
cmake -S "$tree/perfbench" -B "$tree/.build" -DCMAKE_BUILD_TYPE=Release \
  >/dev/null
cmake --build "$tree/.build" --target vbbench -j 4 >/dev/null
cmake -S "$tree" -B "$tree/.build-sim" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$tree/.build-sim" --target vbundle_sim_tool -j 4 >/dev/null
echo "building vbbench and vbundle_sim from the working tree" >&2
if [[ ! -f .bench_build/perfbench/CMakeCache.txt ]]; then
  cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release \
    >/dev/null
fi
cmake --build .bench_build/perfbench --target vbbench -j 4 >/dev/null
if [[ ! -f .bench_build/vbundle_sim/CMakeCache.txt ]]; then
  cmake -S . -B .bench_build/vbundle_sim -DCMAKE_BUILD_TYPE=Release \
    >/dev/null
fi
cmake --build .bench_build/vbundle_sim --target vbundle_sim_tool -j 4 \
  >/dev/null

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

images=$base/images.tsv
: >"$images"
for entry in "${sim_runs[@]}"; do
  name=${entry%%|*}
  read -r -a args <<<"${entry#*|}"
  for s in "${seeds[@]}"; do
    for side in parent change; do
      bin=.bench_build/vbundle_sim/tools/vbundle_sim
      if [[ $side == parent ]]; then bin=$tree/.build-sim/tools/vbundle_sim; fi
      dir=$base/sim/$name-$s-$side
      mkdir -p "$dir"
      cmd=("$bin" "${args[@]}")
      # --trace takes the path of the trace file the run writes.
      if [[ ${cmd[-1]} == --trace ]]; then cmd+=("$dir/trace.json"); fi
      cmd+=(--seed "$s" --checkpoint-file "$dir/image.ckpt")
      if [[ ${args[0]} == arena ]]; then cmd+=(--arena-seed "$s"); fi
      echo "running vbundle_sim $name seed $s ($side)" >&2
      if ! "${cmd[@]}" >"$dir/stdout" 2>&1; then
        echo "vbundle_sim $name seed $s ($side) failed:" >&2
        tail -n 5 "$dir/stdout" >&2
      fi
    done
    p=$base/sim/$name-$s-parent/image.ckpt
    c=$base/sim/$name-$s-change/image.ckpt
    if [[ -f $p && -f $c ]]; then
      result=same
      cmp -s "$p" "$c" || result=DIFF
      printf '%s\t%s\t%s\t%s\t%s\n' "$name" "$s" "$(stat -c %s "$p")" \
        "$(stat -c %s "$c")" "$result" >>"$images"
    else
      printf '%s\t%s\t-\t-\tMISSING\n' "$name" "$s" >>"$images"
    fi
  done
done

python3 - "$runs" "$images" <<'EOF'
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

images = [line.rstrip("\n").split("\t") for line in open(sys.argv[2])]
print()
print(f"{'vbundle_sim run':<21}{'seed':>5}  {'image bytes':<23}result")
for name, seed, p_bytes, c_bytes, result in images:
    print(f"{name:<21}{seed:>5}  {p_bytes + '/' + c_bytes:<23}{result}")
same = sum(result == "same" for *_, result in images)
print(f"{same} of {len(images)} image pairs byte-identical")
sys.exit(1 if failed or same != len(images) else 0)
EOF
