#!/usr/bin/env bash
# Sanitizer CI job: the full test suite under ASan and UBSan, plus the
# concurrency-sensitive suites (thread pool + parallel GRA evaluation) under
# TSan. Uses separate build trees so the instrumented builds never pollute
# the regular one. Roughly 3x the plain build+test time.
set -euo pipefail
cd "$(dirname "$0")/.."

configure_and_build() {
  local sanitizer=$1 dir=$2
  echo "== configuring $dir (DREP_SANITIZE=$sanitizer) =="
  cmake -B "$dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDREP_SANITIZE="$sanitizer" \
    -DDREP_BUILD_BENCH=OFF -DDREP_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$dir" -j "$(nproc)"
}

# Full suite under AddressSanitizer and UndefinedBehaviorSanitizer.
for sanitizer in address undefined; do
  dir=build-${sanitizer}
  configure_and_build "$sanitizer" "$dir"
  echo "== ctest under ${sanitizer} sanitizer =="
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
done

# ThreadSanitizer: the suites that exercise real concurrency (the thread
# pool's fork-join loop, parallel GRA evaluation, the island-model GRA and
# batched AGRA determinism suites, sharded metrics, span registry) plus the
# fault-injection suite, whose retune rounds run GA solves on the shared
# pool. The rest of the tests are single-threaded and already covered
# above; running them under TSan's ~10x slowdown buys nothing.
dir=build-thread
configure_and_build thread "$dir"
echo "== ctest under thread sanitizer (pool + parallel/island GRA + obs + faults) =="
TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1} \
  ctest --test-dir "$dir" --output-on-failure \
    -R 'ThreadPool|Gra\.|IslandGra|AgraBatch|EvolvePopulation|Metrics\.|SpanTest|Fault'

echo "sanitize: all jobs passed"
