#!/usr/bin/env bash
# Pre-merge correctness gate: static analysis + the sanitizer matrix.
#
#   scripts/check.sh            # lint + ASan ctest + UBSan ctest
#   scripts/check.sh --tsan     # ... plus the threaded suites under TSan
#   scripts/check.sh --fast     # lint + ASan only (quick local loop)
#   scripts/check.sh --model    # ... plus the shm-protocol model checker
#   scripts/check.sh --chaos    # ... plus the fixed-seed fault matrix
#   scripts/check.sh --sched    # ... plus the adaptive-scheduler gate
#   scripts/check.sh --plugins  # ... plus the in-situ analytics gate
#   scripts/check.sh --facility # ... plus the multi-tenant facility gate
#   scripts/check.sh --static   # ... plus the static gates: dmr_verify +
#                               #     -Wthread-safety build (Clang only)
#
# Each sanitizer gets its own build tree (build-asan, build-ubsan,
# build-tsan) so trees stay incremental across runs; the model-checking
# stage gets an optimized build-mc tree (exploration is CPU-bound and
# budgeted at ~60s). The lint step uses the regular `build/` tree's
# compilation database and is skipped with a notice when clang-tidy is
# not installed.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
RUN_TSAN=0
RUN_UBSAN=1
RUN_MODEL=0
RUN_CHAOS=0
RUN_SCHED=0
RUN_PLUGINS=0
RUN_FACILITY=0
RUN_STATIC=0
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    --fast) RUN_UBSAN=0 ;;
    --model) RUN_MODEL=1 ;;
    --chaos) RUN_CHAOS=1 ;;
    --sched) RUN_SCHED=1 ;;
    --plugins) RUN_PLUGINS=1 ;;
    --facility) RUN_FACILITY=1 ;;
    --static) RUN_STATIC=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

step() { printf '\n==== %s ====\n' "$*"; }
skipped() { printf 'SKIPPED (%s)\n' "$*"; }

# Minimum toolchain versions for the optional clang-driven stages,
# pinned in one place. Clang 11 shipped the mature -Wthread-safety
# attribute set the annotations use; clang-tidy 15 is the oldest the
# .clang-tidy config is tested against.
MIN_CLANG_MAJOR=11
MIN_CLANG_TIDY_MAJOR=15

# Echoes the major version of "$1 --version" output, or nothing.
tool_major_version() {
  "$1" --version 2>/dev/null |
    sed -n 's/.*version \([0-9][0-9]*\)\..*/\1/p' | head -1
}

# find_tool <min-major> <name> [<name>...]: echoes the first tool on
# PATH whose major version satisfies the minimum.
find_tool() {
  local min="$1"; shift
  local tool ver
  for tool in "$@"; do
    if command -v "$tool" >/dev/null 2>&1; then
      ver="$(tool_major_version "$tool")"
      if [ -n "$ver" ] && [ "$ver" -ge "$min" ]; then
        echo "$tool"
        return 0
      fi
    fi
  done
  return 1
}

# ------------------------------------------------------------ doc lint
# Markdown hygiene over the top-level docs (always runs, pure shell):
#  (1) dead relative links: every [text](path) pointing into the repo
#      must resolve to an existing file or directory;
#  (2) config-key drift: every XML element/attribute shown in a ```xml
#      fence of README.md / EXPERIMENTS.md must appear in DESIGN.md —
#      the same source of truth dmr_verify's config-doc rule holds
#      src/config against;
#  (3) dead config keys: every XML element/attribute shown in a ```xml
#      fence of README.md / DESIGN.md / EXPERIMENTS.md must appear as a
#      quoted string in src/config/config.cpp, so the docs only show
#      keys the parser reads (the reverse of config-doc).
step "doc lint (relative links + fenced config keys vs DESIGN.md and the parser)"
DOC_LINT_RC=0
for f in *.md; do
  while IFS= read -r target; do
    target="${target%%#*}"
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [ ! -e "$target" ]; then
      echo "doc-lint: $f: dead relative link -> $target" >&2
      DOC_LINT_RC=1
    fi
  done < <(grep -o '](\([^)]*\))' "$f" | sed 's/^](//; s/)$//')
done
for f in README.md DESIGN.md EXPERIMENTS.md; do
  [ -f "$f" ] || continue
  while IFS= read -r key; do
    [ -z "$key" ] && continue
    if [ "$f" != DESIGN.md ] && ! grep -q "$key" DESIGN.md; then
      echo "doc-lint: $f: config key '$key' from an xml fence is not documented in DESIGN.md" >&2
      DOC_LINT_RC=1
    fi
    if ! grep -qF "\"$key\"" src/config/config.cpp; then
      echo "doc-lint: $f: config key '$key' from an xml fence is not read by src/config/config.cpp" >&2
      DOC_LINT_RC=1
    fi
  done < <(awk '/^```xml/{on=1;next} /^```/{on=0} on' "$f" |
    grep -o '<[a-z_][a-z0-9_]*\|[a-z_][a-z0-9_]*=' |
    sed 's/^<//; s/=$//' | sort -u)
done
if [ "$DOC_LINT_RC" != 0 ]; then
  echo "doc lint failed" >&2
  exit 1
fi
echo "doc lint clean"

# ---------------------------------------------------------------- lint
step "lint (clang-tidy)"
cmake -B build -S . >/dev/null
if find_tool "$MIN_CLANG_TIDY_MAJOR" clang-tidy clang-tidy-18 clang-tidy-17 \
     clang-tidy-16 clang-tidy-15 >/dev/null; then
  cmake --build build --target lint
else
  skipped "no clang-tidy >= ${MIN_CLANG_TIDY_MAJOR} on PATH"
fi

# ----------------------------------------------------- sanitizer matrix
run_sanitized_ctest() {
  local san="$1" dir="$2" test_regex="$3"
  shift 3
  step "ctest under ${san}"
  cmake -B "$dir" -S . -DDMR_SANITIZE="$san" >/dev/null
  cmake --build "$dir" -j "$JOBS" --target "$@"
  if [ -n "$test_regex" ]; then
    ctest --test-dir "$dir" -R "$test_regex" --output-on-failure -j "$JOBS"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  fi
}

run_sanitized_ctest address build-asan "" dmr_tests
if [ "$RUN_UBSAN" = 1 ]; then
  run_sanitized_ctest undefined build-ubsan "" dmr_tests
fi
if [ "$RUN_TSAN" = 1 ]; then
  # The threaded suites: shared-memory layer, protocol checker, the
  # middleware tests that drive real client threads through the node
  # (one shard and two; anchored so FaultNodeFixture stays out), the
  # lock-free trace ring's concurrent-writer tests, and one chaos
  # scenario (a mixed fault plan driven by four real client threads).
  run_sanitized_ctest thread build-tsan \
    "FirstFit|Partitioned|EventQueue|AllocatorProperty|ProtocolChecker|Determinism|^NodeFixture\.|^TwoShardFixture\.|TraceRing|FaultChaos" \
    shm_test check_test core_test multicore_test trace_test fault_test
fi

# -------------------------------------------- shm-protocol model checking
# Exhaustive interleaving exploration (sleep-set DFS) of the shared
# buffer / event queue handoff, plus the seeded-mutation catches — the
# Mc* suites of tests/mc_test.cpp. Runs in an optimized tree: the
# exploration is CPU-bound, and the suite's scenarios are sized to fit
# a ~60s budget even on one core.
if [ "$RUN_MODEL" = 1 ]; then
  step "model checker (ctest -R '^Mc', build-mc)"
  cmake -B build-mc -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-mc -j "$JOBS" --target mc_test
  ctest --test-dir build-mc -R '^Mc' --output-on-failure -j "$JOBS"
fi

# ----------------------------------------------------- chaos harness
# Fixed-seed fault matrix under the FaultChecker (bench_fault --check):
# the acceptance plan must recover 100% of iterations with a clean
# accounting ledger, identically across two runs. Optimized tree, ~60s
# budget (the workload itself takes a few seconds).
if [ "$RUN_CHAOS" = 1 ]; then
  step "chaos (bench_fault --check, build-mc)"
  cmake -B build-mc -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-mc -j "$JOBS" --target bench_fault
  ./build-mc/bench/bench_fault build-mc/BENCH_fault.json --check
fi

# ------------------------------------------------- scheduling harness
# Static vs adaptive slot scheduling (bench_sched --check): the
# adaptive controller must beat static slots on the imbalanced AMR
# workload, match them within noise on the balanced one, retune, and be
# seed-deterministic; the checkpoint/restart burst must round-trip
# through DH5. Optimized tree, ~60s budget.
if [ "$RUN_SCHED" = 1 ]; then
  step "sched (bench_sched --check, build-mc)"
  cmake -B build-mc -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-mc -j "$JOBS" --target bench_sched
  ./build-mc/bench/bench_sched build-mc/BENCH_sched.json --check
fi

# --------------------------------------------- in-situ analytics gate
# Plugin chain + live monitor (bench_plugin --check): the builtin chain
# must fit the dedicated cores' measured idle budget (Fig 5), produce
# identical analytics across identical runs, and a live MonitorClient
# must observe jitter percentiles, degrade state and ledger counters
# from the running workload. Optimized tree, ~60s budget.
if [ "$RUN_PLUGINS" = 1 ]; then
  step "plugins (bench_plugin --check, build-mc)"
  cmake -B build-mc -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-mc -j "$JOBS" --target bench_plugin
  ./build-mc/bench/bench_plugin build-mc/BENCH_plugin.json --check
fi

# ---------------------------------------------- multi-tenant facility
# Facility layer (bench_facility --check): the sharded metadata service
# must give >= 2x aggregate throughput over the serialized single MDS
# under a 64-tenant file-per-process create storm, the elastic
# placement ladder must hold the per-tenant p95 write SLO where the
# static policy fails, runs must be seed-deterministic, and a 1-tenant
# facility must replay the exact run_strategy() timeline. Optimized
# tree, ~60s budget (the scenarios themselves take a few seconds).
if [ "$RUN_FACILITY" = 1 ]; then
  step "facility (bench_facility --check, build-mc)"
  cmake -B build-mc -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-mc -j "$JOBS" --target bench_facility
  ./build-mc/bench/bench_facility build-mc/BENCH_facility.json --check
fi

# ------------------------------------------------------- static gates
# (1) dmr_verify: the determinism, atomics and project rules
#     (DESIGN.md §13) over the full tree, suppressed only by the audited
#     tools/dmr_verify/allowlist.txt, with machine-readable findings in
#     results/static_findings.json. The whole-run cache makes
#     incremental reruns sub-second. Compiler-agnostic — always runs.
# (2) -Wthread-safety: rebuild the tree with capability analysis as
#     errors (build-tsafe, Clang only) and run the tests/static/
#     negative-compilation suite proving the annotations still reject
#     unguarded access, lock-order inversion and missing-release.
if [ "$RUN_STATIC" = 1 ]; then
  step "static: dmr_verify"
  cmake --build build -j "$JOBS" --target dmr_verify
  ./build/tools/dmr_verify/dmr_verify --root . \
    --compdb build/compile_commands.json \
    --cache build/dmr_verify.cache \
    --json results/static_findings.json

  step "static: -Wthread-safety (clang, build-tsafe)"
  if CLANGXX="$(find_tool "$MIN_CLANG_MAJOR" clang++ clang++-18 clang++-17 \
       clang++-16 clang++-15 clang++-14 clang++-13 clang++-12 clang++-11)"; then
    cmake -B build-tsafe -S . -DDMR_THREAD_SAFETY=ON \
      -DCMAKE_CXX_COMPILER="$CLANGXX" >/dev/null
    cmake --build build-tsafe -j "$JOBS"
    ctest --test-dir build-tsafe -R '^static_' --output-on-failure -j "$JOBS"
  else
    skipped "no clang++ >= ${MIN_CLANG_MAJOR} on PATH; the annotations are no-ops on this toolchain"
  fi
fi

step "all checks passed"
