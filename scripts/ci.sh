#!/usr/bin/env bash
# The single pre-merge gate: tier-1 build + full ctest (every correctness
# gate is a ctest case, and every listed test must run), then the
# correctness matrix of scripts/check.sh (lint + sanitizers + static
# gates), then the end-to-end benchmark smoke run.
#
#   scripts/ci.sh               # tier-1 + docs + lint + ASan + UBSan + static + e2e
#   scripts/ci.sh --fast        # ... without UBSan and e2e (quick local loop)
#   scripts/ci.sh --tsan        # ... plus the threaded suites under TSan
#   scripts/ci.sh --no-e2e      # skip the e2ebench smoke run (--fast skips it too)
#   scripts/ci.sh --no-docs     # skip the EXPERIMENTS.md drift gate
#   scripts/ci.sh --no-static   # skip the static gates (dmr_verify + -Wthread-safety)
#
# Extra flags are passed through to scripts/check.sh. Exits non-zero on
# the first failing step.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
RUN_DOCS=1
RUN_STATIC=1
RUN_E2E=1
CHECK_ARGS=()
for arg in "$@"; do
  case "$arg" in
    --no-docs) RUN_DOCS=0 ;;
    --no-static) RUN_STATIC=0 ;;
    --no-e2e) RUN_E2E=0 ;;
    --fast) RUN_E2E=0; CHECK_ARGS+=("$arg") ;;
    *) CHECK_ARGS+=("$arg") ;;
  esac
done
if [ "$RUN_STATIC" = 1 ]; then
  CHECK_ARGS+=("--static")
fi

step() { printf '\n==== %s ====\n' "$*"; }

# ------------------------------------------------------- tier-1: ctest
# The plain-build test run every PR must keep green (ROADMAP.md). The
# tree must build without google-benchmark: with it disabled here, a
# target that needs it again fails CI even where it is installed.
step "tier-1 build"
cmake -B build -S . -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON >/dev/null
cmake --build build -j "$JOBS"

# Every listed test must run: a skipped (GTEST_SKIP) or disabled
# (DISABLED_) test would turn its gate vacuous behind a green summary,
# so ctest's "did not run" list fails the step.
step "tier-1 ctest"
CTEST_LOG=build/ctest-tier1.log
ctest --test-dir build --output-on-failure -j "$JOBS" | tee "$CTEST_LOG"
if grep -q '^The following tests did not run:' "$CTEST_LOG"; then
  echo "tier-1 ctest: every listed test must run; these did not:" >&2
  sed -n '/^The following tests did not run:/,/^$/p' "$CTEST_LOG" >&2
  exit 1
fi

# ------------------------------------------------------ docs-drift gate
# EXPERIMENTS.md's paper-vs-measured tables and results/figures/*.json
# are generated from the simulation; fail when the committed versions
# disagree with what the code measures (deterministic regeneration, see
# scripts/gen_experiments_md.sh).
if [ "$RUN_DOCS" = 1 ]; then
  step "docs drift (EXPERIMENTS.md vs gen_experiments)"
  scripts/gen_experiments_md.sh --check
fi

# --------------------------------------- correctness: lint + sanitizers
step "scripts/check.sh ${CHECK_ARGS[*]:-}"
scripts/check.sh ${CHECK_ARGS[@]+"${CHECK_ARGS[@]}"}

# ------------------------------------------- end-to-end benchmark smoke
# Every BENCHMARK.json workload at minimal size, traced and untraced,
# with the benchmark's own checks (e2ebench/test_bench.py). Builds a
# Release tree into .bench_build/ on first use (about a minute), then
# runs in about 25 s.
if [ "$RUN_E2E" = 1 ]; then
  step "e2ebench smoke (python3 e2ebench/run.py --smoke)"
  python3 e2ebench/run.py --smoke
fi

step "ci green"
