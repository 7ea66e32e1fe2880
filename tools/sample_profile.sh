#!/usr/bin/env bash
# Sampling profile of one perfbench workload.
#
#   tools/sample_profile.sh <workload> <seed> [reps]
#
# Builds perfbench/ in Release with debug info and frame pointers into
# .bench_build/profile (compiler flags come from the command line; no file
# under perfbench/ changes), builds the SIGPROF sampler
# (tools/sample_profiler.cc) beside it, runs `vbbench --mode plain` `reps`
# times (default 3) with the sampler preloaded, and prints the functions with
# the largest self and inclusive shares of all samples
# (tools/sample_profile.py).
#
# The kernel delivers profiling ticks at its timer rate, a few hundred per
# CPU-second, so one rep of a few seconds gives only a few thousand samples;
# more reps narrow the shares.  Unlike gprof, the sampler adds no cost per
# call, so leaf functions called millions of times are not inflated.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <workload> <seed> [reps]" >&2
  exit 2
fi
workload=$1
seed=$2
reps=${3:-3}

cd "$(dirname "$0")/.."
out=.bench_build/profile
cmake -S perfbench -B "$out" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer" >/dev/null
cmake --build "$out" -j "$(nproc)" >/dev/null
g++ -std=c++20 -O2 -g -fPIC -shared -Wall -Wextra \
  -o "$out/libsample_profiler.so" tools/sample_profiler.cc

samples=$out/samples
rm -rf "$samples"
mkdir -p "$samples"
for ((i = 1; i <= reps; ++i)); do
  echo "rep $i/$reps: $workload seed $seed" >&2
  SAMPLE_PROFILE_OUT="$samples/rep$i" \
    LD_PRELOAD="$PWD/$out/libsample_profiler.so" \
    "$out/vbbench" --workload "$workload" --seed "$seed" --mode plain >/dev/null
done
python3 tools/sample_profile.py "$samples"/rep*[0-9]
