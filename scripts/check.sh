#!/usr/bin/env bash
# Tier-1 verify (build + full ctest) plus an ASan/UBSan build of the engine,
# distance, store and mining suites, plus a smoke run of the scaling benches
# so perf-tracking binaries at least compile-and-run on every PR. CI entry
# point.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 2)

echo "== tier-1: build + ctest =="
cmake -B build -S .
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== dpe_lint: layer DAG / banned APIs / include hygiene =="
# The `lint` ctest above already gates on this; running the binary directly
# too makes a violation's diagnostics the first thing in the log rather
# than buried in ctest output.
./build/dpe_lint .

echo "== scalar-forced backend: dispatch-sensitive suites rerun =="
# The kernel dispatch (common/simd.h) honors DPE_KERNEL_BACKEND, and the
# scalar backend differs from AVX2 only in the set-intersection merge
# behind the token, structure and result distances. Rerunning the suites
# that reach it pinned to scalar keeps that merge green on hardware where
# auto-dispatch would always pick AVX2: integration holds the paper's
# end-to-end checks (DPE preservation, mining equivalence and kNN).
DPE_KERNEL_BACKEND=scalar ctest --test-dir build --output-on-failure \
      -R '^(common|distance|engine|mining|store|integration)$'

echo "== bench smoke: scaling + kernel benches compile-and-run =="
# --smoke uses tiny sizes; the binaries hard-fail if any parallel,
# featurized or sharded result deviates from its serial/direct reference,
# or any kernel from its oracle (std::set_intersection per backend, a
# two-row DP for edit distance), and all emit BENCH_*.json (at the repo
# root, wherever they are invoked from) for the perf trajectory.
(cd build && ./bench/bench_distance_scaling --smoke > /dev/null)
(cd build && ./bench/bench_mining_scaling --smoke > /dev/null)
(cd build && ./bench/bench_shard_scaling --smoke > /dev/null)
(cd build && ./bench/bench_simd_kernels --smoke)
ls -l BENCH_distance_scaling.json BENCH_mining_scaling.json \
      BENCH_shard_scaling.json BENCH_simd_kernels.json

echo "== multi-host crash harness: forked workers, the full crash matrix =="
# Forks real worker processes coordinating through lease files, scripts
# their crash points (each child arms the common/fault.h injector) — die
# before export, die mid frame write, wedge without heartbeat, the
# double-acquire race, every worker dead — and hard-fails unless each
# scenario's merged matrix is bit-identical to the direct build and meets
# its expiry, kill and latency floors. About 6 s; --smoke runs only the
# first kill.
(cd build && ./bench/bench_multihost)
ls -l BENCH_multihost.json

echo "== checkpoint bench: cold build vs restore + incremental =="
# Restores a checkpoint of N queries, appends M and rebuilds, per measure;
# hard-fails unless every restored matrix is bit-identical to its cold build
# and the journal after the restart holds exactly M row records at rows
# >= N. The JSON records cold/restore/incremental times.
(cd build && ./bench/bench_checkpoint --smoke > /dev/null)
ls -l BENCH_checkpoint.json

echo "== compaction bench: restart cost, long journal vs folded =="
# Restarts the same checkpoint twice — once replaying the full journal,
# once after one compaction cycle folded it into the next snapshot
# generation — and hard-fails unless both matrices are bit-identical and
# the folded checkpoint (snapshot + journal) is no larger on disk than the
# long-journal one. The JSON records load/rebuild times, replayed record
# counts and the journal/snapshot byte footprints for the perf trajectory.
(cd build && ./bench/bench_compaction --smoke > /dev/null)
ls -l BENCH_compaction.json

echo "== perfbench self-test: the benchmark builds from src/ and stays correct =="
# perfbench/ is a CMake package of its own over src/ (built into
# .bench_build/). Its self-test runs every BENCHMARK.json workload at tiny
# sizes, untraced and traced, and fails unless each run prints every
# contract metric with its unit and passes its plaintext-equality check.
python3 perfbench/test_perfbench.py

echo "== example smoke: compaction + self-healing scrub round-trip =="
# Compacts in the background, flips a snapshot byte, and exits non-zero
# unless the strict load fails typed, scrub_on_load quarantines and
# recomputes the damage, and the result is bit-identical.
(cd build && ./examples/compaction_scrub > /dev/null)

echo "== example smoke: fault-tolerant multi-host build =="
# A dead worker's lease + a live worker + the coordinator; exits non-zero
# unless the lease is reclaimed and the merge is bit-identical.
(cd build && ./examples/fault_tolerant_build > /dev/null)

echo "== traced rerun: DPE_TRACE=1 must not change any result =="
# Span capture is the only thing DPE_TRACE toggles; every bit-identity and
# golden-value assertion in the engine/store suites must hold with it on.
DPE_TRACE=1 ctest --test-dir build --output-on-failure \
      -R '^(engine|store|integration)$'

echo "== example smoke: observability export =="
# Builds a 256-query matrix with tracing on; exits non-zero unless the
# distance-call counters equal the upper-triangle cell count, the stage
# timings sum to within 10% of the build's wall time, the best of five cold
# builds costs at most its compute stage + 10%, and the Chrome trace export
# is well-formed. Artifacts land in observability_out/ for CI.
(cd build && ./examples/observability ../observability_out)
ls -l observability_out/metrics.prom observability_out/trace.json \
      observability_out/observability_report.json

echo "== telemetry smoke: live /metrics scrape over real HTTP =="
# The observability example with --serve starts the engine's embedded
# telemetry server on DPE_TELEMETRY_PORT, runs its push-vs-scrape
# self-check, then holds the endpoint open; curl scrapes it the way a
# Prometheus server would. Non-200 answers fail the leg (curl -f), and the
# scraped text must carry the exact 256-query distance-call count
# (256 * 255 / 2 = 32640). Scraped artifacts land in observability_out/
# so CI archives them with the rest.
TELEMETRY_PORT=$((20000 + RANDOM % 20000))
# exec so $! is the example itself, not the subshell — the kill below must
# reach the serving process.
(cd build && exec env DPE_TELEMETRY_PORT="$TELEMETRY_PORT" \
      ./examples/observability --serve --serve-ms 30000 ../observability_out \
      > ../observability_out/serve_log.txt 2>&1) &
SERVE_PID=$!
# Poll until the scrape carries the full post-build count — the server is
# up from engine construction, so an early scrape legitimately sees a
# partial build. The last iteration's scrape is the archived artifact.
for _ in $(seq 1 150); do
  if curl -fsS "http://127.0.0.1:${TELEMETRY_PORT}/metrics" \
        -o observability_out/scraped_metrics.prom 2>/dev/null \
      && grep -q 'dpe_distance_calls_total{measure="token"} 32640' \
            observability_out/scraped_metrics.prom; then
    break
  fi
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.2
done
grep -q 'dpe_distance_calls_total{measure="token"} 32640' \
      observability_out/scraped_metrics.prom
curl -fsS "http://127.0.0.1:${TELEMETRY_PORT}/healthz" \
      -o observability_out/healthz.json
grep -q '"status":"ok"' observability_out/healthz.json
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
cat observability_out/serve_log.txt
ls -l observability_out/scraped_metrics.prom observability_out/healthz.json

echo "== sanitizers: asan+ubsan on the owner and provider suites =="
# Provider side: engine, distance, store and mining (complete link's
# unchecked index arithmetic over its working copy of the cluster
# distances). Owner side: sql (the parser), db (executor, access areas),
# crypto (hand-written AES/SHA-256, the GMP wrappers, OPE), cryptdb
# (ciphertext hex decoding, result decryption) and core (log encryption).
# Both: common (the fault-spec parser's counts, the thread pool, the
# kernels).
cmake -B build-asan -S . -DDPE_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug \
      -DDPE_BUILD_BENCHES=OFF -DDPE_BUILD_EXAMPLES=OFF
cmake --build build-asan -j"$JOBS" \
      --target dpe_engine_tests dpe_distance_tests dpe_store_tests \
      dpe_mining_tests dpe_sql_tests dpe_db_tests dpe_crypto_tests \
      dpe_cryptdb_tests dpe_core_tests dpe_common_tests
ctest --test-dir build-asan --output-on-failure \
      -R '^(engine|distance|store|mining|sql|db|crypto|cryptdb|core|common)$'

echo "== tsan: driver/coordinator/pool concurrency under ThreadSanitizer =="
# The lease protocol's value is exactly its behavior under concurrency:
# heartbeat threads renewing while worker loops acquire, the driver's poll
# loop racing worker threads, /stats snapshotting a live board. The engine
# has one caller thread, but its any-thread calls (engine.h's threading
# contract) run beside it: EngineTest.BuildsRacingClearCacheStayBitIdentical
# races builds against ClearCache on the triangle map,
# EngineTest.AnyThreadReadsRacingLogMutations races the telemetry readers
# against SetLog/AddQuery, and the seeded triangle differential suite
# interleaves background compaction, ClearCache, restarts and shard drives
# (whose merged rows go through the same triangle and journal writes) on
# one engine. MatrixBuilderTest's 4-thread builds of the result and
# access-area measures have every tile thread read one prepared log (the
# state each measure's Prepare builds for a build). TSan the suites that
# exercise those interleavings (plus the backoff/fault primitives they are
# built from); the full matrix stays with ASan above.
cmake -B build-tsan -S . -DDPE_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDPE_BUILD_BENCHES=OFF -DDPE_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j"$JOBS" \
      --target dpe_engine_tests dpe_common_tests
(cd build-tsan && ./dpe_engine_tests \
      --gtest_filter='DriverTest.*:ShardTest.*:MatrixBuilderTest.*:ThreadPoolTest.*:ParallelForTest.*:CompactionTest.*:EngineTest.BuildsRacingClearCacheStayBitIdentical:EngineTest.AnyThreadReadsRacingLogMutations:Seeds/TriangleDifferentialTest.*')
(cd build-tsan && ./dpe_common_tests \
      --gtest_filter='BackoffTest.*:FaultInjectorTest.*')
# Log-sink registry: concurrent emitters vs. sink swaps (the regression
# tests for the delivery/state lock split in obs/log.cc).
cmake --build build-tsan -j"$JOBS" --target dpe_obs_tests
(cd build-tsan && ./dpe_obs_tests --gtest_filter='LogTest.*')

echo "== scalar-only compile: DPE_DISABLE_SIMD build + kernel suites =="
# Simulates a non-x86 target: the AVX2 backend is not even compiled, and
# the dispatch-sensitive suites must pass on the scalar table alone.
cmake -B build-noscalar-simd -S . -DDPE_DISABLE_SIMD=ON \
      -DDPE_BUILD_BENCHES=OFF -DDPE_BUILD_EXAMPLES=OFF
cmake --build build-noscalar-simd -j"$JOBS" \
      --target dpe_common_tests dpe_engine_tests dpe_distance_tests \
      dpe_mining_tests
ctest --test-dir build-noscalar-simd --output-on-failure \
      -R '^(common|distance|engine|mining)$'

if command -v clang++ >/dev/null 2>&1; then
  echo "== clang thread-safety: -Wthread-safety -Werror build of src/ =="
  # GCC compiles the capability annotations (common/thread_annotations.h)
  # away; only clang checks them. CMakeLists.txt turns the analysis on
  # automatically for clang, so a plain library build is the whole gate —
  # any GUARDED_BY/REQUIRES violation anywhere in src/ fails it.
  cmake -B build-clang-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DDPE_BUILD_TESTS=OFF -DDPE_BUILD_BENCHES=OFF \
        -DDPE_BUILD_EXAMPLES=OFF
  cmake --build build-clang-tsa -j"$JOBS"
else
  echo "== clang thread-safety: SKIPPED (clang++ not installed) =="
fi

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy: bugprone/concurrency/performance over src/ =="
  # .clang-tidy carries the curated check list with warnings-as-errors;
  # compile_commands.json comes from the tier-1 configure above
  # (CMAKE_EXPORT_COMPILE_COMMANDS is always on).
  find src -name '*.cc' -print0 \
    | xargs -0 -P "$JOBS" -n 8 clang-tidy -p build --quiet
else
  echo "== clang-tidy: SKIPPED (clang-tidy not installed) =="
fi

echo "== check.sh: all green =="
