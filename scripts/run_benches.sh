#!/usr/bin/env bash
# Runs every bench binary from a build tree and writes one
# BENCH_<name>.json per binary into an output directory.
#
#   scripts/run_benches.sh [BUILD_DIR] [OUT_DIR]
#
# Defaults: BUILD_DIR=build, OUT_DIR=bench_results. The google-benchmark
# binary (bench_micro_kernels) emits its native JSON; the paper-table
# binaries emit a JSON envelope carrying their stdout rows plus timing
# metadata. Unlike the `ctest -L smoke` runs, this runs the full-size
# workloads (CORTEX_BENCH_SMOKE is left unset).
set -euo pipefail

# An inherited smoke flag would silently shrink every workload while the
# JSONs still look like full-size results.
unset CORTEX_BENCH_SMOKE

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench_results}
BENCH_DIR="${BUILD_DIR}/bench"
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)

if [[ ! -d "${BUILD_DIR}" ]]; then
  # No build tree yet: configure a Release measurement build. An EXISTING
  # tree is never reconfigured (it may be a sanitizer/debug build the user
  # cares about); only a missing one is created. The kernels pick their
  # SIMD variant from CPUID at load, so no host-specific flag is needed.
  echo "== ${BUILD_DIR} not found: configuring a Release measurement build"
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${BUILD_DIR}" -j
fi

if [[ ! -d "${BENCH_DIR}" ]]; then
  echo "error: ${BENCH_DIR} not found — build with benches enabled:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

status=0
ran=0
for bin in "${BENCH_DIR}"/bench_*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  name=$(basename "${bin}")
  # Result files drop the binary's bench_ prefix: bench_engine_pool
  # writes BENCH_engine_pool.json (the "bench" key inside the JSON keeps
  # the full binary name).
  out="${OUT_DIR}/BENCH_${name#bench_}.json"
  echo "== ${name} -> ${out}"
  ran=$((ran + 1))

  if [[ "${name}" == "bench_micro_kernels" ]]; then
    # google-benchmark has first-class JSON output.
    if ! "${bin}" --benchmark_format=json > "${out}"; then
      echo "   FAILED: ${name}" >&2
      status=1
      rm -f "${out}"  # don't leave truncated JSON among valid results
    fi
    continue
  fi

  # Streams go to temp files, not shell variables: a full-size bench can
  # print more than an environment variable may carry.
  stdout_file="${OUT_DIR}/.${name}.stdout"
  stderr_file="${OUT_DIR}/.${name}.stderr"
  start=$(python3 -c 'import time; print(time.time())')
  if "${bin}" > "${stdout_file}" 2> "${stderr_file}"; then
    exit_code=0
  else
    exit_code=$?
    status=1
    echo "   FAILED (exit ${exit_code}): ${name}" >&2
  fi
  end=$(python3 -c 'import time; print(time.time())')

  if ! BENCH_NAME="${name}" BENCH_EXIT="${exit_code}" \
       BENCH_START="${start}" BENCH_END="${end}" \
       BENCH_STDOUT_FILE="${stdout_file}" BENCH_STDERR_FILE="${stderr_file}" \
       python3 - "${out}" <<'EOF'
import json, os, sys
out_path = sys.argv[1]
with open(os.environ["BENCH_STDOUT_FILE"]) as f:
    stdout = f.read()
with open(os.environ["BENCH_STDERR_FILE"]) as f:
    stderr = f.read()
doc = {
    "bench": os.environ["BENCH_NAME"],
    "exit_code": int(os.environ["BENCH_EXIT"]),
    "wall_time_s": round(
        float(os.environ["BENCH_END"]) - float(os.environ["BENCH_START"]), 4),
    "stdout": stdout.splitlines(),
    "stderr": stderr.splitlines(),
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
  then
    status=1
    echo "   FAILED to write ${out}" >&2
  fi
  rm -f "${stdout_file}" "${stderr_file}"
done

if [[ "${ran}" -eq 0 ]]; then
  echo "error: no bench binaries in ${BENCH_DIR} — build first:" >&2
  echo "  cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

# The memory-planner report is pinned by name: a glob change or a renamed
# binary must not silently drop the arena-vs-sum footprint numbers the
# README's "Memory planning" section points at.
if [[ ! -f "${OUT_DIR}/BENCH_memplan.json" ]]; then
  echo "error: ${OUT_DIR}/BENCH_memplan.json missing — bench_memplan did" \
       "not run" >&2
  exit 1
fi

echo
echo "Ran ${ran} bench binaries. Results in ${OUT_DIR}/:"
ls -1 "${OUT_DIR}"
exit "${status}"
