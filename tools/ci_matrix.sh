#!/usr/bin/env bash
# Build-and-test matrix over the observability and sanitizer
# configurations:
#   PSC_OBS=ON  (default; instrumentation compiled in)
#   PSC_OBS=OFF (PSC_OBS_* macros compile to nothing)
#   PSC_SANITIZE=thread (ThreadSanitizer over the concurrency-heavy tests)
#   PSC_SANITIZE=address,undefined (ASan+UBSan over the overflow-prone
#     parsing/arithmetic tests and the limits machinery, then the budget
#     and cancellation tests repeated up to 50 times each)
#   Debug (lock-rank deadlock detection on over the tsan-labelled suites)
#   clang++ -Wthread-safety (static lock verification; skipped w/o clang)
#   clang-tidy (.clang-tidy profile; skipped when not installed)
# plus tools/psc_lint.py up front (raw primitives, clocks, metric
# prefixes, detached threads).
# All configurations must build warning-free (-Werror) and pass their
# tests, and the PSC_OBS on/off builds must list the run-report schema
# ctests (metrics_schema_check and the validator's fixture classes).
# Sanitizer test selection is label-driven (`ctest -L tsan` /
# `-L asan`; labels declared in tests/CMakeLists.txt). The matrix
# finishes with a --threads 1 vs --threads 4 CLI
# output-equivalence smoke check (the parallel runtime's determinism
# contract made executable), a --deadline-ms smoke (a search that
# would run for minutes must exit cleanly within seconds, reporting
# limits.deadline_hits and a per-query "deadline" trip in its metrics),
# an exact-enumeration refusal smoke (2^23 worlds must be refused before
# the first one) and a query-scoped telemetry smoke (--trace-out at
# --threads 4 must produce a Chrome trace with one connected span tree
# per query).
#
# Usage: tools/ci_matrix.sh [build-root]   (default: build-matrix)

set -euo pipefail

cd "$(dirname "$0")/.."
build_root="${1:-build-matrix}"
jobs="$(nproc 2>/dev/null || echo 2)"

# Project-invariant lint runs first: it needs no build and fails fast on
# a raw std::mutex, a stray sleep/clock in solver code, an unregistered
# metric prefix or a detached thread (see tools/psc_lint.py --help).
echo "=== psc_lint ==="
python3 tools/psc_lint.py --self-test
python3 tools/psc_lint.py

# tools/check_metrics_schema.py is the only run-report validator, and its
# ctests exist only when CMake finds Python: require them by name so a
# configure without Python cannot drop report validation silently.
mapfile -t schema_fixtures < <(sed -n \
  's/^class \([A-Z][A-Za-z0-9]*\)(_FixtureCase):.*/ObsSchemaTest.\1/p' \
  tools/test_check_metrics_schema.py)
if [[ ${#schema_fixtures[@]} -eq 0 ]]; then
  echo "FAIL: no fixture classes found in tools/test_check_metrics_schema.py" >&2
  exit 1
fi
require_schema_tests() {
  local listing name
  listing="$(cd "$1" && ctest -N)"
  for name in metrics_schema_check "${schema_fixtures[@]}"; do
    if ! grep -qE "Test +#[0-9]+: ${name}\$" <<< "${listing}"; then
      echo "FAIL: ctest in $1 lacks ${name} (Python not found?)" >&2
      exit 1
    fi
  done
}

for obs in ON OFF; do
  build_dir="${build_root}/obs-${obs}"
  echo "=== PSC_OBS=${obs} -> ${build_dir} ==="
  cmake -B "${build_dir}" -S . -DPSC_OBS="${obs}" >/dev/null
  cmake --build "${build_dir}" -j "${jobs}"
  require_schema_tests "${build_dir}"
  (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
done

# ThreadSanitizer pass over the suites where threads actually run
# concurrently (a full-suite TSan run is prohibitively slow). Suite
# selection lives with the suites themselves: tests/CMakeLists.txt
# labels them `tsan` (exec pool/facade, eval caches, rewriting caches,
# the delta engine's readers-writer path, the serving engine, and
# psc::sync itself), so adding a suite there picks it up here with no
# regex to keep in sync.
tsan_dir="${build_root}/tsan"
echo "=== PSC_SANITIZE=thread -> ${tsan_dir} ==="
cmake -B "${tsan_dir}" -S . -DPSC_SANITIZE=thread >/dev/null
cmake --build "${tsan_dir}" -j "${jobs}"
(cd "${tsan_dir}" && ctest --output-on-failure -j "${jobs}" -L tsan)

# ASan+UBSan pass over the suites where integer overflow and lifetime
# bugs have actually bitten: arithmetic, the parsers, the budget/limits
# machinery, the counting enumerators — labelled `asan` in
# tests/CMakeLists.txt.
asan_dir="${build_root}/asan-ubsan"
echo "=== PSC_SANITIZE=address,undefined -> ${asan_dir} ==="
cmake -B "${asan_dir}" -S . -DPSC_SANITIZE=address,undefined >/dev/null
cmake --build "${asan_dir}" -j "${jobs}"
(cd "${asan_dir}" && ctest --output-on-failure -j "${jobs}" -L asan)

# Repeat stage in the same ASan+UBSan build: a race that fails one run in
# ten passes a single run by luck, so the budget and cancellation tests
# of the core, limits, counting (consensus included) and exec suites, the
# shared-pool tests (nested loops, late helpers), the pool and its loops
# (ThreadPoolTest, ParallelForTest, ParallelReduceTest) and pscd's answer
# batches sharing a pool with check fan-outs run up to 50 times each and
# stop at the first failure.
echo "=== budget/cancellation, pool and shared-pool tests x50 under ASan+UBSan -> ${asan_dir} ==="
(cd "${asan_dir}" && ctest --output-on-failure -j "${jobs}" \
  --repeat until-fail:50 \
  -R 'QuerySystemOptionsTest|NodeBudgetTest|Deadline.*Test|SignatureCounterTest|ConsensusTest\.Budget|ShardsCancelledTest|SharedPoolTest|ThreadPoolTest|ParallelForTest|ParallelReduceTest|ServeConcurrencyTest\.AnswerBatchesShareThePoolWithCheckFanOuts')

# Debug build: rank checking defaults ON there (see
# src/psc/sync/mutex.cc RankCheckingDefault), so running the
# concurrency-labelled suites under it exercises the lock-rank deadlock
# detector against every real nesting in the tree — any inversion
# aborts the test binary. The sync suite's death tests additionally
# prove the detector itself fires.
debug_dir="${build_root}/debug-rank"
echo "=== CMAKE_BUILD_TYPE=Debug (lock-rank checks on) -> ${debug_dir} ==="
cmake -B "${debug_dir}" -S . -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build "${debug_dir}" -j "${jobs}"
(cd "${debug_dir}" && ctest --output-on-failure -j "${jobs}" -L tsan)

# Clang thread-safety build: the PSC_GUARDED_BY/PSC_REQUIRES contracts
# are statically verified by Clang only (-Wthread-safety is added by the
# top-level CMakeLists for Clang, and PSC_WERROR promotes violations to
# build breaks). Also runs the negative-compilation harness, which
# proves broken snippets FAIL. Skips when no clang++ is installed.
if command -v clang++ >/dev/null 2>&1; then
  clang_dir="${build_root}/clang-thread-safety"
  echo "=== clang++ -Wthread-safety -Werror -> ${clang_dir} ==="
  cmake -B "${clang_dir}" -S . -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build "${clang_dir}" -j "${jobs}"
  (cd "${clang_dir}" && ctest --output-on-failure -R sync_annotation_check)
else
  echo "=== SKIP clang thread-safety build: no clang++ on PATH ==="
fi

# clang-tidy (.clang-tidy at the repo root: bugprone/concurrency/
# performance families) over every src/ translation unit in the exported
# compilation database. Skips when clang-tidy is not installed.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy over src/ ==="
  tidy_db="${build_root}/obs-ON"
  mapfile -t tidy_files < <(python3 - "${tidy_db}/compile_commands.json" <<'PY'
import json, sys
for entry in json.load(open(sys.argv[1])):
    path = entry["file"]
    if "/src/" in path and not path.endswith(".S"):
        print(path)
PY
)
  clang-tidy -p "${tidy_db}" --quiet "${tidy_files[@]}"
else
  echo "=== SKIP clang-tidy: not installed ==="
fi

# Determinism smoke: the CLI must print byte-identical reports at
# --threads 1 and --threads 4. --quiet suppresses the wall-clock stats
# line, which is legitimately run-dependent.
smoke_build="${build_root}/obs-ON"
smoke_input="$(mktemp)"
trap 'rm -f "${smoke_input}"' EXIT
cat > "${smoke_input}" <<'EOF'
source P {
  view: V(x) <- R2(x, y)
  completeness: 1
  soundness: 0.5
  facts: V("a"), V("b")
}
EOF
echo "=== --threads equivalence smoke ==="
run_smoke() {
  local label="$1"
  shift
  local one four
  # `|| true`: audit/check exit 3 on inconsistent inputs by design.
  one="$("$@" --quiet --threads 1)" || true
  four="$("$@" --quiet --threads 4)" || true
  if [[ "${one}" != "${four}" ]]; then
    echo "FAIL: ${label} output differs between --threads 1 and 4" >&2
    diff <(echo "${one}") <(echo "${four}") >&2 || true
    exit 1
  fi
  echo "${label}: --threads 1 == --threads 4"
}
run_smoke "psc check (projection views)" \
  "${smoke_build}/tools/psc" check "${smoke_input}"
# Join views with built-ins and an exact catalog: the witness is the
# ground-merge candidate of combination 0, which runs inline.
run_smoke "psc check (climatology)" \
  "${smoke_build}/tools/psc" check data/climatology.psc
# Combination 0 fails here (B's exact R2 forbids a second fact) and the
# first witness is combination 57 of 64, so --threads 4 runs combination
# 0 inline and then fans four 16-combination blocks out onto the pool
# (fewer than two blocks would run inline).
fanout_input="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}"' EXIT
cat > "${fanout_input}" <<'EOF'
source A {
  view: V(x) <- R2(x, y)
  completeness: 0
  soundness: 0
  facts: V("a"), V("b"), V("c"), V("d"), V("e"), V("f")
}
source B {
  view: W(x, y) <- R2(x, y)
  completeness: 1
  soundness: 1
  facts: W("a", 1)
}
EOF
run_smoke "psc check (freeze fan-out)" \
  "${smoke_build}/tools/psc" check "${fanout_input}"
run_smoke "psc confidences (example 5.1)" \
  "${smoke_build}/tools/psc" confidences data/example51.psc
run_smoke "psc audit (conflicted)" \
  "${smoke_build}/tools/psc" audit data/conflicted.psc
# Example 5.1's smallest world is one fact of three, so its blocks answer
# their own groups of worlds.
run_smoke "psc answer --method mc (example 5.1)" \
  "${smoke_build}/tools/psc" answer data/example51.psc 'Ans(x) <- R(x)' \
  --method mc --samples 500 --seed 3
# A dense two-cache fleet: every world holds at least 12 of the 14 facts a
# draw can take, so the call builds one lineage for all its blocks.
fleet_input="$(mktemp)"
sparse_input="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}"' EXIT
cat > "${fleet_input}" <<'EOF'
source cache1 {
  view: V1(x) <- Object(x)
  completeness: 5/6
  soundness: 10/11
  facts: (0), (1), (2), (3), (4), (5), (6), (7), (8), (9), (20)
}
source cache2 {
  view: V2(x) <- Object(x)
  completeness: 5/6
  soundness: 10/11
  facts: (2), (3), (4), (5), (6), (7), (8), (9), (10), (11), (21)
}
EOF
run_smoke "psc answer --method mc (dense fleet, one lineage)" \
  "${smoke_build}/tools/psc" answer "${fleet_input}" 'Ans(x) <- Object(x)' \
  --method mc --samples 500 --seed 3
# One completeness-1/2 source of 4 facts over 100 constants: worlds of 2
# to 8 facts among 100, so each block answers groups of its own worlds.
cat > "${sparse_input}" <<'EOF'
source S {
  view: V(x) <- R(x)
  completeness: 1/2
  soundness: 1/2
  facts: V(0), V(1), V(2), V(3)
}
EOF
run_smoke "psc answer --method mc (sparse worlds, per-block groups)" \
  "${smoke_build}/tools/psc" answer "${sparse_input}" 'Ans(x) <- R(x)' \
  --method mc --samples 500 --seed 3 --domain "$(seq -s, 0 99)"
# A dense two-cache fleet of 150 facts, past the 121 a 128-bit shape
# table holds: the sampler weighs its shapes in BigInt, and every tuple of
# Ans(x) <- Object(x) is its one fact, so the call counts per fact. The
# sampler build's shape walk counts its visited shapes.
big_fleet_input="$(mktemp)"
binary_input="$(mktemp)"
mc_metrics="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}"' EXIT
{
  for c in 1 2; do
    printf 'source cache%s {\n  view: V%s(x) <- Object(x)\n' "$c" "$c"
    printf '  completeness: 9/10\n  soundness: 9/10\n  facts: '
    lo=$(( (c - 1) * 10 ))
    for i in $(seq "${lo}" $(( lo + 129 ))) \
             $(seq $(( 190 + c * 10 )) $(( 194 + c * 10 ))); do
      [[ $i -gt ${lo} ]] && printf ', '
      printf '(%s)' "$i"
    done
    printf '\n}\n'
  done
} > "${big_fleet_input}"
run_smoke "psc answer --method mc (dense 150-fact fleet, per-fact counts)" \
  "${smoke_build}/tools/psc" answer "${big_fleet_input}" \
  'Ans(x) <- Object(x)' --method mc --samples 500 --seed 3
"${smoke_build}/tools/psc" answer "${big_fleet_input}" \
  'Ans(x) <- Object(x)' --method mc --samples 500 --seed 3 --quiet \
  --metrics-out "${mc_metrics}" > /dev/null
python3 tools/check_metrics_schema.py \
  --require-counter query.mc_per_fact_calls \
  --require-counter counting.shapes_visited "${mc_metrics}"
# A dense binary collection: every world keeps at least 8 of A's 10
# facts, so the call builds one lineage, but x = 0..4 each have two
# facts, so the projection tests every world against the derivations.
cat > "${binary_input}" <<'EOF'
source A {
  view: V(x, y) <- R2(x, y)
  completeness: 1
  soundness: 4/5
  facts: V(0, 0), V(0, 1), V(1, 0), V(1, 1), V(2, 0), V(2, 1), V(3, 0), V(3, 1), V(4, 0), V(4, 1)
}
source B {
  view: W(x, y) <- R2(x, y)
  completeness: 1/4
  soundness: 1/2
  facts: W(0, 0), W(1, 1), W(2, 0), W(3, 1)
}
EOF
run_smoke "psc answer --method mc (dense binary, per-world tests)" \
  "${smoke_build}/tools/psc" answer "${binary_input}" 'Ans(x) <- R2(x, y)' \
  --method mc --samples 500 --seed 3

# Certain answers are undefined over an empty poss(S): `psc certain` on
# the inconsistent collection must fail as `psc answer` does.
echo "=== psc certain on an inconsistent collection ==="
if certain_out="$("${smoke_build}/tools/psc" certain data/conflicted.psc \
    'Ans(p) <- Product(p)' 2>&1)" ||
   ! grep -q "poss(S) is empty" <<< "${certain_out}"; then
  echo "FAIL: expected the poss(S)-is-empty error, got: ${certain_out}" >&2
  exit 1
fi

# Query-evaluation bench smoke: the sweep cross-checks every compiled
# result against the reference oracle (non-zero exit on mismatch) and
# its metrics record must carry the eval.* counters.
echo "=== bench_query_eval smoke ==="
bench_metrics="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}"' EXIT
PSC_BENCH_METRICS_OUT="${bench_metrics}" \
  "${smoke_build}/bench/bench_query_eval" --smoke
python3 tools/check_metrics_schema.py \
  --require-counter eval.probes \
  --require-counter eval.plans_compiled \
  "${bench_metrics}"

# Incremental-engine bench smoke: the streaming-update sweep cross-checks
# every patched-index probe and every cached/revalidated verdict against
# the full-recompute baseline (non-zero exit on mismatch), and its
# metrics must show the whole delta machinery firing: batch application,
# in-place index patches, the churn-threshold rebuild fallback and
# dirty-scoped consistency skips.
echo "=== bench_incremental smoke ==="
delta_metrics="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}" "${delta_metrics}"' EXIT
PSC_BENCH_METRICS_OUT="${delta_metrics}" \
  "${smoke_build}/bench/bench_incremental" --smoke
python3 tools/check_metrics_schema.py \
  --require-counter delta.ops_applied \
  --require-counter delta.index.incremental_updates \
  --require-counter delta.index.rebuilds \
  --require-counter delta.consistency.combinations_skipped \
  --require-counter delta.consistency.revalidations \
  "${delta_metrics}"

# Serving bench smoke: the warm-vs-cold sweep cross-checks every warm
# response byte-for-byte against a cold engine (non-zero exit on
# mismatch), and its metrics must show the serving machinery firing:
# per-verb request counters and cross-session batch dedup.
echo "=== bench_serving smoke ==="
serving_metrics="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}" "${delta_metrics}" "${serving_metrics}"' EXIT
PSC_BENCH_METRICS_OUT="${serving_metrics}" \
  "${smoke_build}/bench/bench_serving" --smoke
python3 tools/check_metrics_schema.py \
  --require-counter serve.requests.answer \
  --require-counter serve.requests.apply_delta \
  --require-counter serve.batch.dedup_hits \
  "${serving_metrics}"

# Resident-service smoke: start pscd on a Unix socket, race a streaming
# answer client against a delta-toggling client (an even toggle count
# restores the base state), then require the final base-state answer to
# match the one-shot CLI digit-for-digit and the daemon to drain and
# exit 0 on the shutdown verb.
echo "=== pscd end-to-end serving smoke ==="
serve_dir="$(mktemp -d)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}" "${delta_metrics}" "${serving_metrics}"; rm -rf "${serve_dir}"' EXIT
serve_sock="${serve_dir}/pscd.sock"
"${smoke_build}/tools/pscd" --unix "${serve_sock}" \
  --load data/example51.psc > "${serve_dir}/pscd.log" 2>&1 &
pscd_pid=$!
for _ in $(seq 1 100); do
  [[ -S "${serve_sock}" ]] && break
  sleep 0.1
done
[[ -S "${serve_sock}" ]] || { cat "${serve_dir}/pscd.log" >&2; exit 1; }
for _ in $(seq 1 40); do
  printf '{"verb":"answer","query":"Ans(x) <- R(x)"}\n'
done > "${serve_dir}/answers.jsonl"
for _ in $(seq 1 10); do
  printf '{"verb":"apply-delta","script":"+ S1(\\"c\\")"}\n'
  printf '{"verb":"apply-delta","script":"- S1(\\"c\\")"}\n'
done > "${serve_dir}/deltas.jsonl"
"${smoke_build}/tools/pscd_client" --unix "${serve_sock}" --check-ok \
  --script "${serve_dir}/answers.jsonl" > "${serve_dir}/answers.out" &
answer_client=$!
"${smoke_build}/tools/pscd_client" --unix "${serve_sock}" --check-ok \
  --script "${serve_dir}/deltas.jsonl" > "${serve_dir}/deltas.out" &
delta_client=$!
wait "${answer_client}"
wait "${delta_client}"
printf '{"verb":"answer","query":"Ans(x) <- R(x)"}\n' | \
  "${smoke_build}/tools/pscd_client" --unix "${serve_sock}" --check-ok \
  > "${serve_dir}/final.out"
"${smoke_build}/tools/psc" answer data/example51.psc "Ans(x) <- R(x)" \
  --quiet > "${serve_dir}/cli.out"
python3 - "${serve_dir}/final.out" "${serve_dir}/cli.out" <<'PY'
import json, sys
response = json.loads(open(sys.argv[1]).read().strip())
assert response["ok"], response
served = {t: "%.6f" % c for t, c in response["confidences"]}
cli = {}
in_confidences = False
for line in open(sys.argv[2]):
    if line.startswith("possible answer"):
        in_confidences = True
        continue
    if in_confidences and line.startswith("  "):
        tuple_text, confidence = line.rsplit(None, 1)
        cli[tuple_text.strip()] = confidence
if served != cli:
    sys.exit("served confidences %r != one-shot CLI %r" % (served, cli))
print("pscd answers match the one-shot CLI digit-for-digit")
PY
printf '{"verb":"shutdown"}\n' | \
  "${smoke_build}/tools/pscd_client" --unix "${serve_sock}" --check-ok \
  > /dev/null
wait "${pscd_pid}"
grep -q "draining complete" "${serve_dir}/pscd.log" || {
  cat "${serve_dir}/pscd.log" >&2
  exit 1
}
echo "pscd served racing clients and drained cleanly (exit 0)"

# Delta streaming smoke: `psc check --apply-delta` replays a script of
# extension mutations, re-deciding consistency after every batch through
# the incremental engine; like every other CLI path it must be
# thread-count independent.
echo "=== --apply-delta streaming smoke ==="
delta_script="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}" "${delta_metrics}" "${serving_metrics}" "${delta_script}"; rm -rf "${serve_dir}"' EXIT
cat > "${delta_script}" <<'EOF'
+ S1("c")
--
- S2("b")
EOF
run_smoke "psc check --apply-delta (example 5.1)" \
  "${smoke_build}/tools/psc" check data/example51.psc \
  --apply-delta "${delta_script}"

# Deadline smoke: a canonical-freeze search over ~2^33 allowable
# combinations would run for minutes unbounded; with --deadline-ms 100
# the CLI must exit cleanly (verdict unknown, exit 0) within the outer
# 2 s timeout and its metrics must record the deadline trip.
echo "=== --deadline-ms graceful-degradation smoke ==="
deadline_input="$(mktemp)"
deadline_metrics="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}" "${delta_metrics}" "${serving_metrics}" "${deadline_input}" "${deadline_metrics}"; rm -rf "${serve_dir}"' EXIT
{
  printf 'source Blocker {\n  view: V0(x) <- R(x), M(x)\n'
  printf '  completeness: 1\n  soundness: 0\n}\n'
  for s in 1 2 3; do
    printf 'source Wide%s {\n  view: V%s(x) <- R(x), M(x)\n' "$s" "$s"
    printf '  completeness: 0\n  soundness: 1/2\n  facts: '
    for i in $(seq 1 12); do
      [[ $i -gt 1 ]] && printf ', '
      printf '(%s)' "$(( (s - 1) * 12 + i ))"
    done
    printf '\n}\n'
  done
} > "${deadline_input}"
timeout 2 "${smoke_build}/tools/psc" check "${deadline_input}" \
  --deadline-ms 100 --quiet --metrics-out "${deadline_metrics}"
python3 tools/check_metrics_schema.py \
  --require-counter limits.deadline_hits \
  --require-trip deadline \
  "${deadline_metrics}"

# Up-front refusal smoke: one unconstrained source over a 23-constant
# domain has 2^23 possible worlds, past the 2^22 an exact enumeration
# visits, so `answer --method exact` must fail with the resource-exhausted
# error before the first world, well within the 2 s timeout.
echo "=== exact-enumeration up-front refusal smoke ==="
refusal_input="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}" "${delta_metrics}" "${serving_metrics}" "${deadline_input}" "${deadline_metrics}" "${refusal_input}"; rm -rf "${serve_dir}"' EXIT
printf 'source S {\n  view: V(x) <- R(x)\n  completeness: 0\n  soundness: 0\n  facts: (0)\n}\n' \
  > "${refusal_input}"
if refusal="$(timeout 2 "${smoke_build}/tools/psc" answer "${refusal_input}" \
    'Ans(x) <- R(x)' --method exact --domain "$(seq -s, 0 22)" 2>&1)" ||
   ! grep -q "Resource exhausted" <<< "${refusal}"; then
  echo "FAIL: expected a resource-exhausted refusal, got: ${refusal}" >&2
  exit 1
fi

# Telemetry smoke: a 4-thread Monte-Carlo answer with --trace-out must
# emit a Chrome trace whose spans form one connected tree per query
# (cross-thread propagation made executable), and its run report must
# carry the schema-v2 per-query section.
echo "=== query-scoped telemetry smoke ==="
telemetry_trace="$(mktemp)"
telemetry_metrics="$(mktemp)"
trap 'rm -f "${smoke_input}" "${fanout_input}" "${fleet_input}" "${sparse_input}" "${big_fleet_input}" "${binary_input}" "${mc_metrics}" "${bench_metrics}" "${delta_metrics}" "${serving_metrics}" "${deadline_input}" "${deadline_metrics}" "${refusal_input}" "${telemetry_trace}" "${telemetry_metrics}"; rm -rf "${serve_dir}"' EXIT
"${smoke_build}/tools/psc" answer data/example51.psc "Ans(x) <- R(x)" \
  --method mc --samples 20000 --threads 4 --quiet \
  --trace-out "${telemetry_trace}" --metrics-out "${telemetry_metrics}"
python3 tools/check_trace_schema.py \
  --require-spans 2 --expect-single-root "${telemetry_trace}"
python3 tools/check_metrics_schema.py \
  --require-counter counting.sampler_draws \
  "${telemetry_metrics}"
python3 tools/psc_trace_summary.py --k 5 "${telemetry_trace}"

echo "ci matrix passed: lint, PSC_OBS on/off, TSan, ASan+UBSan (and its x50 budget/cancellation, pool and shared-pool repeat), Debug lock-rank checks, clang stages (or skipped), --threads equivalence, certain on inconsistent input, deadline degradation, exact-enumeration refusal, query-scoped telemetry, incremental-delta and resident-serving smokes green"
