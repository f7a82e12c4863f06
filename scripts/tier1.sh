#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the concurrency tests
# again under ThreadSanitizer (-DQPS_SANITIZE=THREAD). ASan and TSan cannot
# be combined, so the TSan pass uses its own build tree and only re-runs the
# tests that exercise the shard thread pool, concurrent forwards on one
# shared model, and the serving layer.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: metric-name lint =="
./scripts/check_metric_names.sh

echo "== tier-1: mutable-member lint =="
./scripts/check_mutable_members.sh

echo "== tier-1: no-sleep lint (src/serve) =="
# A retry's backoff is a delayed re-enqueue on the shard pool
# (ThreadPool::ScheduleAfter), never a sleeping thread: a sleep in the
# serving layer blocks a caller or holds a worker of a shard.
if grep -rn "sleep_for\|sleep_until\|usleep\|nanosleep" src/serve; then
  echo "error: src/serve must not sleep; re-enqueue with ScheduleAfter" >&2
  exit 1
fi

echo "== tier-1: no-lock lint (src/nn, src/encoder, src/tabert) =="
# A const model is shared lock-free across tenants and workers
# (planner_api.h): a forward keeps its intermediates in locals and returns
# what a caller asks for, so model code never needs a lock.
if grep -rnE "std::mutex|shared_mutex|lock_guard|unique_lock|scoped_lock" \
    src/nn src/encoder src/tabert; then
  echo "error: model code must not lock; return state to the caller instead" >&2
  exit 1
fi

echo "== tier-1: planning-starts-no-threads lint (src/core, src/encoder, src/nn, src/tabert) =="
# A planning request runs on one thread from parse to plan; the serving
# shards (src/serve) are the only level of parallelism. Planner and model
# code therefore never start a thread or hold a pool.
if grep -rnE "ThreadPool|std::thread|std::async" \
    src/core src/encoder src/nn src/tabert; then
  echo "error: planning code must not start threads; parallelize across requests in src/serve" >&2
  exit 1
fi

echo "== tier-1: one-activation lint (src/nn, src/encoder, src/core) =="
# Sigmoid and tanh have one implementation, the span kernels in
# src/nn/tensor.cc, shared by training and inference: a libm copy would
# compute other bits in one path than in the other and move plans.
if grep -rnF -e 'std::tanh(' -e '1.0f / (1.0f + std::exp' \
    src/nn src/encoder src/core; then
  echo "error: use nn::SigmoidInPlace / nn::TanhInPlace (src/nn/tensor.h)" >&2
  exit 1
fi

echo "== tier-1: one-primitive lint (JsonEscape, AtomicAddDouble, splitmix64) =="
./scripts/check_one_primitive.sh

echo "== tier-1: release build + full ctest =="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "== tier-1: activation kernels vectorize (src/nn/tensor.cc) =="
./scripts/check_activation_vectorized.sh build

echo "== tier-1: forced-scalar int8 kernel leg (QPS_FORCE_SCALAR=1) =="
# The int8 GEMM dispatches to SIMD kernels at runtime; this leg pins the
# portable scalar kernel and re-runs the tests that exercise quantized
# inference, so a host without AVX2 is covered from an AVX-512 CI box.
# hotpath_test pins that the request memo stays exact on this kernel too.
(cd build && QPS_FORCE_SCALAR=1 ctest --output-on-failure \
  -R "quant_test|nn_test|model_manager_test|checkpoint_test|hotpath_test")

echo "== tier-1: TSan build (threadpool + hot-path + ladder + serving + golden plans + obs + fuzz-replay + storage tests) =="
cmake -B build-tsan -S . -DQPS_SANITIZE=THREAD >/dev/null
cmake --build build-tsan -j --target threadpool_test hotpath_test \
  planner_conformance_test guarded_planner_test plan_service_test \
  model_manager_test tenant_test resilience_test serve_golden_test \
  planner_fuzz_test obs_test storage_test
(cd build-tsan && ctest --output-on-failure \
  -R "threadpool_test|hotpath_test|planner_conformance_test|guarded_planner_test|plan_service_test|model_manager_test|tenant_test|resilience_test|serve_golden_test|planner_fuzz_test|obs_test|storage_test")

echo "== tier-1: ASan checkpoint-loader fuzz (10k fixed-seed inputs) =="
cmake -B build-asan -S . -DQPS_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target serialize_fuzz_test
(cd build-asan && QPS_FUZZ_ITERS=10000 ctest --output-on-failure \
  -R "serialize_fuzz_test")

echo "== tier-1: ASan chaos smoke (serve tests with fault points armed) =="
# The resilience/serving tests arm util/fault points (injected errors,
# stalls, NaN corruption) on the serve path; this leg re-runs them under
# ASan so cancellation and retry paths leak nothing when attempts die
# mid-plan.
cmake --build build-asan -j --target resilience_test plan_service_test \
  serve_golden_test
(cd build-asan && ctest --output-on-failure \
  -R "resilience_test|plan_service_test|serve_golden_test")

echo "== tier-1: ASan planner fuzz smoke (fixed-seed differential campaign) =="
cmake --build build-asan -j --target qps_fuzz
./build-asan/src/fuzz/qps_fuzz --iters=2000 --seed=42 --log-every=1000

echo "tier-1 OK"
