#!/usr/bin/env bash
# verify.sh — the full pre-merge gate: configure + build + test the Release
# tree, run the schedule-soundness / race-detection analysis stage, then
# repeat the suite under AddressSanitizer/UBSanitizer and ThreadSanitizer.
# The chaos and pipeline-differential suites run in every tree, so all
# recovery paths and both schedulers are exercised with memory AND thread
# checking on.
#
#   scripts/verify.sh             # all three builds + analysis stage
#   scripts/verify.sh --fast      # Release build + analysis stage only
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Spill files from the out-of-core / disk-chaos stages land under this
# scratch TMPDIR so a failed (or crashed) run never leaves stray spill
# directories behind.
SPILL_SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SPILL_SCRATCH}"' EXIT

run_tree() {
  local dir="$1"
  shift
  local timeout=300
  if [[ "${1:-}" == --timeout=* ]]; then
    timeout="${1#--timeout=}"
    shift
  fi
  echo "== configure ${dir} ($*) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  echo "== build ${dir} =="
  cmake --build "${dir}" -j "${JOBS}"
  echo "== test ${dir} =="
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}" --timeout "${timeout}")
  # The dataflow-vs-barrier differential suite is the bit-identity acceptance
  # gate for the scheduler, the ChaosReplay goldens pin the task runner's
  # chaos decision streams, and the CallerRuns tests pin how a task set
  # launches, helps and fails — run them by name so a filtered/cached ctest
  # setup can never silently skip them.
  echo "== differential suite ${dir} =="
  (cd "${dir}" && ctest --output-on-failure --timeout "${timeout}" \
    -R 'PipelineDifferential|DataflowDag|DataflowStress|Lookahead|ChaosReplay|CallerRuns')
  # Fused-D gate: the batched backend must stay bit-identical across the
  # kernel, scheduler, and chaos matrices. TSan pays 10-20x per test, so that
  # tree runs one real fused solve instead of the whole differential sweep.
  if [[ "${dir}" == *tsan* ]]; then
    echo "== fused-D solve (TSan) ${dir} =="
    "./${dir}/examples/gepspark_cli" --benchmark fw --n 256 --block 64 \
      --strategy im --schedule dataflow --fused-d --kernel iter >/dev/null
  else
    echo "== fused-D differential suite ${dir} =="
    (cd "${dir}" && ctest --output-on-failure --timeout "${timeout}" \
      -R 'FusedD|FusedDifferential|ScheduleCheckFused')
  fi
  # Wavefront gate: the GAP / accordion / Viterbi / paren / align plans must
  # stay bit-identical to their serial references on the dataflow engine
  # under both strategies, at lookahead 0 (the barrier schedule's meaning on
  # a plan) and beyond. Under TSan the randomized suite is too slow, so
  # that tree runs one real verified dataflow solve per plan instead (paren
  # and align at n=37, b=5: partial edge tiles).
  if [[ "${dir}" == *tsan* ]]; then
    echo "== nested solves (TSan) ${dir} =="
    for bench in gap accordion viterbi; do
      "./${dir}/examples/gepspark_cli" --benchmark "${bench}" --n 96 \
        --block 24 --strategy im --schedule dataflow --lookahead 1 >/dev/null
    done
    for bench in paren align; do
      "./${dir}/examples/gepspark_cli" --benchmark "${bench}" --n 37 \
        --block 5 --strategy im --schedule dataflow --lookahead 1 >/dev/null
    done
  else
    echo "== nested suite ${dir} =="
    (cd "${dir}" && ctest --output-on-failure --timeout "${timeout}" -L nested)
  fi
}

run_tree build

# Lint stage: a hard gate whenever clang-tidy is installed (lint.sh promotes
# every finding to an error); on toolchains without clang-tidy it reports and
# passes so the pipeline stays runnable.
echo "== lint =="
scripts/lint.sh

# Profile-export smoke: a real FW solve per strategy and scheduler must
# produce a JSON profile that parses, carries the versioned schema, moves
# bytes, and attributes >=95% of virtual time to the six buckets.
profile_smoke() {
  local strategy="$1"
  local schedule="$2"
  local out="build/profile_smoke_${strategy}_${schedule}.json"
  echo "== profile-export smoke (${strategy}, ${schedule}) =="
  ./build/examples/gepspark_cli --benchmark fw --n 512 --block 128 \
    --strategy "${strategy}" --schedule "${schedule}" --kernel iter \
    --no-verify --profile-json "${out}" >/dev/null
  python3 - "${out}" "${strategy}" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
strategy = sys.argv[2]
assert p["schema"] == "gepspark.profile/v3", p["schema"]
if strategy == "im":
    assert p["bytes"]["shuffle"] > 0, p["bytes"]
else:
    assert p["bytes"]["collect"] > 0 and p["bytes"]["broadcast"] > 0, p["bytes"]
assert p["breakdown"]["attributed_fraction"] >= 0.95, p["breakdown"]
assert p["job"]["stages"] > 0 and p["job"]["tasks"] > 0
print(f"profile smoke ({strategy}): ok — "
      f"{p['job']['stages']} stages, attributed "
      f"{p['breakdown']['attributed_fraction']:.3f}")
PY
}
profile_smoke im barrier
profile_smoke cb barrier
profile_smoke im dataflow
profile_smoke cb dataflow

# Analysis stage: the static schedule checker must hold on every shipped
# schedule shape (benchmark × strategy × lookahead), and the happens-before
# race detector must come back clean on real dataflow runs — including a
# chaos run that exercises the recovery paths' driver-era accesses.
echo "== analysis: schedule soundness sweep =="
for bench in fw ge tc gap accordion viterbi paren align; do
  for strategy in im cb; do
    for lookahead in 0 1 2 3; do
      ./build/examples/gepspark_cli --benchmark "${bench}" --n 128 --block 32 \
        --strategy "${strategy}" --schedule dataflow \
        --lookahead "${lookahead}" --kernel iter --no-verify \
        --validate-schedule --audit-recovery >/dev/null
    done
  done
done
echo "analysis: 64 schedules sound + recovery-closure audited (fw/ge/tc/gap/accordion/viterbi/paren/align x im/cb x lookahead 0-3)"

# Batched variants of the same sweep: fused D emits one task per
# (executor, k) whose footprint the checker derives as the union of the
# batch members.
echo "== analysis: fused batched schedule soundness =="
for bench in fw ge; do
  for strategy in im cb; do
    ./build/examples/gepspark_cli --benchmark "${bench}" --n 128 --block 32 \
      --strategy "${strategy}" --schedule dataflow --lookahead 1 \
      --fused-d --kernel iter --no-verify --validate-schedule >/dev/null
  done
done
echo "analysis: 4 batched schedules sound (fw/ge x im/cb, fused D)"

echo "== analysis: race detection on dataflow runs =="
./build/examples/gepspark_cli --benchmark fw --n 256 --block 64 \
  --strategy im --schedule dataflow --lookahead 3 --kernel iter \
  --race-check >/dev/null
./build/examples/gepspark_cli --benchmark ge --n 256 --block 64 \
  --strategy cb --schedule dataflow --lookahead 2 --kernel iter \
  --checkpoint-interval 2 --race-check \
  --chaos tasks=0.05,killp=0.3,kills=1,fetch=0.2,seed=7 --no-verify >/dev/null
echo "analysis: race detector clean (incl. chaos recovery paths)"

# Model-check stage: the ctest label runs the DPOR explorer's unit suite
# (including the seeded-bug regressions); the CLI runs then exhaustively
# explore small FW, GAP, paren and align plans for real, asserting every
# interleaving is bit-identical with clean verdicts. Each run's summary line
# is pinned: its counts move only when the emitted graphs do, and a change
# that moves them updates the expected line here.
echo "== model check: interleaving exploration =="
(cd build && ctest --output-on-failure -j "${JOBS}" --timeout 300 -L modelcheck)
model_check_pinned() {
  local want="model check: $1 — all orders bit-identical and clean"
  shift
  local got
  got="$(./build/examples/gepspark_cli "$@" --strategy im --schedule dataflow \
    --lookahead 1 --no-verify --model-check=64 | grep 'model check:' |
    sed 's/^ *//')"
  echo "${got}"
  if [[ "${got}" != "${want}" ]]; then
    echo "model check summary changed; expected: ${want}" >&2
    exit 1
  fi
}
model_check_pinned "1 interleaving(s) explored, 150 pruned (independent), 0 deduped, 0 branch point(s), 58 step(s)" \
  --benchmark fw --n 96 --block 32 --kernel iter
model_check_pinned "1 interleaving(s) explored, 5 pruned (independent), 0 deduped, 0 branch point(s), 14 step(s)" \
  --benchmark gap --n 64 --block 32
model_check_pinned "1 interleaving(s) explored, 4 pruned (independent), 0 deduped, 0 branch point(s), 9 step(s)" \
  --benchmark paren --n 47 --block 16
model_check_pinned "1 interleaving(s) explored, 1 pruned (independent), 0 deduped, 0 branch point(s), 7 step(s)" \
  --benchmark align --n 64 --block 32
echo "model check: FW + GAP + paren + align interleavings bit-identical, clean and unchanged"

# Storage-level stage: a hard --memory-cap forces the DP tiles down the
# storage ladder (serialize in place, then spill to real per-node files); the
# solve must still verify against the reference and actually hit the spill
# and readback paths. The disk-fault chaos runs then corrupt / truncate spill
# files, refuse writes (ENOSPC), and slow spill devices while killing an
# executor — recovery must stay correct under both schedulers.
storage_stage() {
  local dir="$1"
  echo "== out-of-core solve (${dir}) =="
  local out="${dir}/profile_outofcore.json"
  TMPDIR="${SPILL_SCRATCH}" "./${dir}/examples/gepspark_cli" \
    --benchmark fw --n 512 --block 128 --strategy im --kernel iter \
    --storage-level memory_and_disk --memory-cap 256k \
    --profile-json "${out}" >/dev/null
  python3 - "${out}" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
r = p["recovery"]
assert r["spilled_blocks"] > 0, r
assert r["spill_readbacks"] > 0, r
print(f"out-of-core: ok — {r['spilled_blocks']} blocks spilled, "
      f"{r['spill_readbacks']} readbacks")
PY
  echo "== disk-fault chaos (${dir}) =="
  # Dataflow runs with checkpoint-interval 0 so carried tiles live in the
  # executor store (a checkpoint every iteration would pin them in shared
  # storage and never exercise the spill tier).
  for schedule_ckpt in barrier:1 dataflow:0; do
    TMPDIR="${SPILL_SCRATCH}" "./${dir}/examples/gepspark_cli" \
      --benchmark ge --n 256 --block 64 --strategy cb \
      --schedule "${schedule_ckpt%:*}" \
      --checkpoint-interval "${schedule_ckpt#*:}" --kernel iter \
      --storage-level memory_and_disk --memory-cap 64k \
      --chaos "killp=0.3,kills=1,spillcorrupt=1.0,torn=1.0,enospc=0.5,slowdisk=0.5,seed=11" \
      >/dev/null
  done
  echo "storage (${dir}): out-of-core + disk-fault chaos ok"
}
storage_stage build

# Serving stage: the DP-as-a-service loop end to end — a JobServer hosting
# 4 concurrent tenants, 1000 point queries (dist + reconstructed paths)
# answered from the resident tables, a mid-flight cancellation, and a clean
# drain/shutdown. The predecessor-tracked one-shot solve then exercises the
# same pair-valued FW spec through the ordinary driver path with reference
# validation on. Repeated under ASan below so the whole server lifecycle is
# leak-checked.
serve_stage() {
  local dir="$1"
  echo "== serving smoke (${dir}) =="
  "./${dir}/examples/gepspark_cli" --serve --n 192 --tenants 4     --queries 1000 >/dev/null
  "./${dir}/examples/gepspark_cli" --benchmark fw --n 128 --block 32     --track-predecessors --kernel iter >/dev/null
  echo "serve (${dir}): 4 tenants + 1000 queries + cancel + shutdown ok"
}
serve_stage build

if [[ "${FAST}" == "0" ]]; then
  # UBSan-only tree: without ASan's shadow memory it is cheap enough to run
  # full solves — one GEP smoke and one per wavefront plan catch undefined
  # behavior (overflow, misaligned access, bad shifts) on the hot paths.
  echo "== configure build-ubsan (UBSan) =="
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=Release -DGS_SANITIZE=undefined
  echo "== build build-ubsan =="
  cmake --build build-ubsan -j "${JOBS}" --target gepspark_cli
  echo "== UBSan solver smokes =="
  ./build-ubsan/examples/gepspark_cli --benchmark fw --n 256 --block 64 \
    --strategy im --schedule dataflow --lookahead 1 --kernel iter >/dev/null
  ./build-ubsan/examples/gepspark_cli --benchmark gap --n 96 --block 24 \
    --strategy im --schedule dataflow --lookahead 1 >/dev/null
  # n=37 with b=5 leaves partial edge tiles and padded Viterbi states.
  for nested in accordion viterbi paren align; do
    ./build-ubsan/examples/gepspark_cli --benchmark "${nested}" --n 37 \
      --block 5 --strategy im --schedule dataflow --lookahead 1 >/dev/null
  done
  echo "ubsan: fw + gap + accordion + viterbi + paren + align solves clean"

  run_tree build-asan -DGS_SANITIZE=address
  storage_stage build-asan
  serve_stage build-asan
  # TSan slows tests 10-20x; the tree also applies tsan.supp (libgomp is
  # un-annotated) through the GS_TEST_ENVIRONMENT property.
  run_tree build-tsan --timeout=900 -DGS_SANITIZE=thread
  # One model-check exploration under TSan: the serial replay path plus the
  # surrounding pool machinery stay data-race-free.
  echo "== model check (TSan) =="
  ./build-tsan/examples/gepspark_cli --benchmark fw --n 96 --block 32 \
    --strategy im --schedule dataflow --lookahead 1 --kernel iter \
    --no-verify --model-check=8 >/dev/null
  echo "model check (TSan): clean"
fi

echo "verify: all suites passed"
