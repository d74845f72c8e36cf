#!/usr/bin/env bash
# verify-all: configure + build + test the thirteen supported configurations
# in sequence — default (RelWithDebInfo), Sickle lint over the corpus and
# example seeds, the DiSketch accuracy goldens (`accuracy` label), the
# Silo sharded-store suite at FARM_THREADS=16 (`silo` label — exercises
# the multi-shard defaults and parallel query folds this host's core count
# may not), the incremental-placement suite (`incremental` label), the
# Furrow profiler suite (`profile` label), the Winnow abstract-interpreter
# and optimizer suite (`winnow` label), the data-plane suite (`dataplane`
# label: filters, the indexed TCAM against its linear model, soil poll
# groups and seed lookups), the seed VM transcript corpus (`vm` label:
# byte-for-byte interpreter transcripts, builtin argument checks and the
# builtin table), ASan+UBSan, a UBSan-only build over the lint+winnow+vm
# labels (the interpreter and abstract-interpreter arithmetic edge cases
# are exactly where UB hides), telemetry compiled out, and TSan over the
# Combine-labelled concurrency tests (the worker pool, the parallel
# placement/sweep paths and seeds of one shared Program, run at
# FARM_THREADS=8).
# Then three fatal bench gates: bench_incremental must re-optimize a
# single seed event on the 100k-seed fabric in under a second,
# bit-identical to a full solve; bench_profiler must show ≤2% end-to-end
# cost on the instrumented 10k-seed solve; and bench_winnow must replay
# every optimized shipped seed bit-identically with ≥3 seeds showing a
# strict refined-TCAM reduction. A final non-fatal clang-tidy stage
# (scripts/lint.sh) reports a finding count without breaking the chain.
# Workflow presets cannot mix configure presets, so each configuration is
# its own workflow and this script is the chain.
#
# Usage: scripts/verify-all.sh [-jN]
# Any extra arguments are forwarded to every `cmake --workflow` call.
set -euo pipefail

cd "$(dirname "$0")/.."

workflows=(verify-default verify-lint verify-accuracy verify-silo verify-incremental verify-profile verify-winnow verify-dataplane verify-vm verify-asan verify-ubsan verify-telemetry-off verify-tsan)
failed=()

for wf in "${workflows[@]}"; do
  echo "==== workflow: ${wf} ===="
  if ! cmake --workflow --preset "${wf}" "$@"; then
    failed+=("${wf}")
  fi
done

# Incremental placement gate: a single seed arrival/departure on the
# 100k-seed, 1040-switch fabric must re-optimize in under a second and
# stay bit-identical to a from-scratch solve (bench_incremental exits
# non-zero otherwise) — fatal, it guards the delta-solve contract.
echo "==== stage: incremental placement gate (bench_incremental) ===="
if ! build/bench/bench_incremental; then
  failed+=(bench_incremental)
fi

# Furrow overhead gate: the instrumented 10k-seed solve must stay within
# 2% of the profiler-off run (bench_profiler exits non-zero otherwise) —
# fatal, it guards the "always-available" claim.
echo "==== stage: furrow overhead gate (bench_profiler) ===="
if ! build/bench/bench_profiler; then
  failed+=(bench_profiler)
fi

# Winnow soundness gate: every shipped seed's optimized machine must
# replay bit-identically inside its analysis envelope, and at least three
# seeds must show a strict refined-TCAM reduction (bench_winnow exits
# non-zero otherwise) — fatal, it guards the optimizer's behavior
# contract.
echo "==== stage: winnow soundness gate (bench_winnow) ===="
if ! build/bench/bench_winnow; then
  failed+=(bench_winnow)
fi

# clang-tidy static analysis: non-fatal — prints its finding count (or a
# skip notice when clang-tidy is absent) without failing the chain.
echo "==== stage: clang-tidy (non-fatal) ===="
scripts/lint.sh || true

if ((${#failed[@]})); then
  echo "verify-all: FAILED: ${failed[*]}" >&2
  exit 1
fi
echo "verify-all: all ${#workflows[@]} workflows passed"
