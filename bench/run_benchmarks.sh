#!/usr/bin/env bash
# Runs the Google Benchmark suites and writes BENCH_<suite>.json files.
#
# Usage:
#   bench/run_benchmarks.sh [-b BUILD_DIR] [-o OUT_DIR] [-s "SUITE ..."] \
#                           [--threads N] [extra benchmark args...]
#
#   -b BUILD_DIR   CMake build directory containing bench/ binaries (default: build)
#   -o OUT_DIR     directory the BENCH_*.json files are written to (default: repo root)
#   -s SUITES      space-separated suite names without the bench_ prefix
#                  (default: every suite below)
#   --threads N    worker count for the parallel benchmark rows, exported as
#                  QCONT_BENCH_THREADS (default: the binaries fall back to
#                  the hardware concurrency, floored at 2)
#   --trace        also write TRACE_<workload>.json Chrome trace files for
#                  the instrumented benchmark passes into OUT_DIR (exported
#                  as QCONT_BENCH_TRACE_DIR; validate/inspect with
#                  tools/check_trace.py or https://ui.perfetto.dev)
#
# Any remaining arguments are forwarded to each benchmark binary, e.g.
#   bench/run_benchmarks.sh -s "e1_ucq_containment e9_datalog_eval" --benchmark_min_time=0.05s
#
# The script exits nonzero if any benchmark binary crashes or is missing, so
# CI can gate on "benchmarks still run" without gating on timing.
set -euo pipefail

# Long options are split off before getopts (which would otherwise choke
# on them wherever they appear): --threads is consumed here, every other
# --flag is forwarded verbatim to the benchmark binaries.
filtered=()
passthrough=()
want_trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --threads)
      [[ $# -ge 2 ]] || { echo "ERROR: --threads needs a value" >&2; exit 2; }
      export QCONT_BENCH_THREADS="$2"
      shift 2
      ;;
    --threads=*)
      export QCONT_BENCH_THREADS="${1#*=}"
      shift
      ;;
    --trace)
      want_trace=1
      shift
      ;;
    --*)
      passthrough+=("$1")
      shift
      ;;
    *)
      filtered+=("$1")
      shift
      ;;
  esac
done
set -- ${filtered[@]+"${filtered[@]}"}

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build"
out_dir="$repo_root"
suites="e1_ucq_containment e2_tractable_ucq e2_acyclic_eval e3_datalog_ucq_general \
e4_ack_engine e5_routing e6_hack e7_acrk_engine e8_multiedge e9_datalog_eval \
e10_c2rpq_eval e10_hot_program probe_kernel"

while getopts "b:o:s:" opt; do
  case "$opt" in
    b) build_dir="$OPTARG" ;;
    o) out_dir="$OPTARG" ;;
    s) suites="$OPTARG" ;;
    *) echo "usage: $0 [-b build_dir] [-o out_dir] [-s \"suites\"] [args...]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
set -- ${passthrough[@]+"${passthrough[@]}"} "$@"

mkdir -p "$out_dir"
# --trace resolves against the final OUT_DIR, so it must be exported after
# getopts has run.
if [[ "$want_trace" == 1 ]]; then
  export QCONT_BENCH_TRACE_DIR="$out_dir"
fi
status=0
for suite in $suites; do
  bin="$build_dir/bench/bench_$suite"
  if [[ ! -x "$bin" ]]; then
    echo "ERROR: benchmark binary not found: $bin (build the bench targets first)" >&2
    status=1
    continue
  fi
  out="$out_dir/BENCH_$suite.json"
  echo "== bench_$suite -> $out"
  if ! "$bin" --benchmark_format=json --benchmark_out="$out" \
       --benchmark_out_format=json "$@" > /dev/null; then
    echo "ERROR: bench_$suite failed" >&2
    status=1
  fi
done
exit $status
