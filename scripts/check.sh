#!/usr/bin/env bash
# Pre-merge correctness gate: static analysis + the sanitizer matrix.
#
#   scripts/check.sh            # lint + ASan ctest + UBSan ctest
#   scripts/check.sh --tsan     # ... plus the threaded suites under TSan
#   scripts/check.sh --fast     # lint + ASan only (quick local loop)
#   scripts/check.sh --static   # ... plus the static gates: dmr_verify +
#                               #     -Wthread-safety build (Clang only)
#
# Every correctness gate is a ctest case (the Mc* model checker, the
# FaultChaos fault-injection gates, the adaptive-slot, plugin idle-budget
# and facility gates), so the ASan and UBSan runs cover all of them.
# Each sanitizer gets its own build tree (build-asan, build-ubsan,
# build-tsan) so trees stay incremental across runs. The lint step uses
# the regular `build/` tree's compilation database and is skipped with a
# notice when clang-tidy is not installed.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
RUN_TSAN=0
RUN_UBSAN=1
RUN_STATIC=0
for arg in "$@"; do
  case "$arg" in
    --tsan) RUN_TSAN=1 ;;
    --fast) RUN_UBSAN=0 ;;
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
  # The threaded suites: shared-memory layer (with the event queue's
  # sleep-handshake and the spin lock's park stress tests), protocol
  # checker, the middleware tests that drive real client threads through the node
  # (one shard and two; anchored so FaultNodeFixture stays out), the
  # lock-free trace ring's concurrent-writer tests, and the chaos gates
  # (a mixed fault plan under four client threads, the acceptance plan
  # and the queue-close fallback under three).
  run_sanitized_ctest thread build-tsan \
    "FirstFit|Partitioned|EventQueue|SpinMutex|AllocatorProperty|ProtocolChecker|Determinism|^NodeFixture\.|^TwoShardFixture\.|TraceRing|FaultChaos" \
    shm_test check_test core_test multicore_test trace_test fault_test
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
