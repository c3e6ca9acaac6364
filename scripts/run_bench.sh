#!/usr/bin/env bash
# Run benchmark binaries with machine-readable output so the perf
# trajectory is recorded, not eyeballed.
#
# For every benchmark binary it writes, into --out-dir:
#   BENCH_<name>.json     google-benchmark results (--benchmark_format=json)
#   BENCH_<name>.txt      the paper-artifact table the binary prints
#   METRICS_<name>.json   the obs counter/histogram snapshot
#
# Usage:
#   scripts/run_bench.sh [--build-dir build] [--out-dir bench-results]
#                        [--quick] [--threads N|auto]
#                        [--no-micro] [bench_name...]
#
# With no bench names, every bench_* binary in <build-dir>/bench runs.
# HETARCH_QUICK / HETARCH_THREADS in the environment are honored.
# --threads auto resolves to the machine's core count (1 when nproc is
# unavailable).  --no-micro skips the google-benchmark microbenchmarks and only produces the
# deterministic artifact + metrics snapshot.
#
# Outputs are staged in a temp directory and moved into --out-dir only
# after the binary exits cleanly: a crashed benchmark leaves no partial
# result files and the script exits non-zero.

set -euo pipefail

build_dir=build
out_dir=bench-results
threads="${HETARCH_THREADS:-}"
quick="${HETARCH_QUICK:-}"
no_micro=
benches=()

while [[ $# -gt 0 ]]; do
    case "$1" in
        --build-dir) build_dir=$2; shift 2 ;;
        --out-dir)   out_dir=$2; shift 2 ;;
        --quick)     quick=1; shift ;;
        --threads)   threads=$2; shift 2 ;;
        --no-micro)  no_micro=1; shift ;;
        -h|--help)   grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *)           benches+=("$1"); shift ;;
    esac
done

if [[ "$threads" == "auto" ]]; then
    if command -v nproc >/dev/null 2>&1; then
        threads="$(nproc)"
    else
        echo "warning: nproc unavailable, --threads auto -> 1" >&2
        threads=1
    fi
fi
if [[ -n "$threads" && ! "$threads" =~ ^[0-9]+$ ]]; then
    echo "error: --threads expects a positive integer or 'auto', got '$threads'" >&2
    exit 1
fi

bench_bin_dir="$build_dir/bench"
if [[ ! -d "$bench_bin_dir" ]]; then
    echo "error: $bench_bin_dir not found (build first: cmake --build $build_dir)" >&2
    exit 1
fi

if [[ ${#benches[@]} -eq 0 ]]; then
    for bin in "$bench_bin_dir"/bench_*; do
        [[ -x "$bin" ]] && benches+=("$(basename "$bin")")
    done
fi
if [[ ${#benches[@]} -eq 0 ]]; then
    echo "error: no bench_* binaries in $bench_bin_dir" >&2
    exit 1
fi

mkdir -p "$out_dir"
staging="$(mktemp -d "${TMPDIR:-/tmp}/hetarch-bench.XXXXXX")"
trap 'rm -rf "$staging"' EXIT

env_args=()
[[ -n "$quick" ]] && env_args+=("HETARCH_QUICK=1")
[[ -n "$threads" ]] && env_args+=("HETARCH_THREADS=$threads")

bench_args=()
# '^$' matches no benchmark name: artifact + metrics only.  Without
# microbenchmarks there is nothing worth writing to BENCH_<name>.json,
# so the flag set below drops the --benchmark_out pair entirely (an
# empty file would otherwise shadow a real timing baseline).
[[ -n "$no_micro" ]] && bench_args+=("--benchmark_filter=^\$")

for name in "${benches[@]}"; do
    bin="$bench_bin_dir/$name"
    if [[ ! -x "$bin" ]]; then
        echo "error: benchmark binary $bin not found" >&2
        exit 1
    fi
    echo ">>> $name (threads=${threads:-auto}, quick=${quick:-0}, micro=$([[ -n "$no_micro" ]] && echo no || echo yes))"
    out_args=(--benchmark_format=console)
    if [[ -z "$no_micro" ]]; then
        out_args+=("--benchmark_out=$staging/BENCH_$name.json"
                   --benchmark_out_format=json)
    fi
    if ! env "${env_args[@]}" "$bin" \
        "--metrics-out=$staging/METRICS_$name.json" \
        "${out_args[@]}" \
        "${bench_args[@]}" \
        | tee "$staging/BENCH_$name.txt"; then
        echo "error: $name failed; discarding its partial output" >&2
        exit 1
    fi
    for artifact in "METRICS_$name.json" "BENCH_$name.json" "BENCH_$name.txt"; do
        if [[ -f "$staging/$artifact" ]]; then
            mv "$staging/$artifact" "$out_dir/$artifact"
        fi
    done
done

echo "results in $out_dir/"
