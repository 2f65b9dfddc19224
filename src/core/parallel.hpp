#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "core/thread_pool.hpp"
#include "obs/scope.hpp"

namespace mtdgrid::core {

/// Runs `fn(i)` for every i in [0, count). Indices are handed out through a
/// shared atomic cursor so uneven task costs balance across workers; `fn`
/// must therefore not depend on execution order, and must be safe to call
/// concurrently for distinct indices. Runs inline (plain loop, ascending
/// order) when the effective worker count is 1 or the caller is already
/// inside a parallel region — nested regions serialize rather than
/// oversubscribe. Safe to call from any number of user threads at once:
/// the pool queues regions and runs them one at a time
/// (`ThreadPool::run`), so independent callers — e.g. two daemon shards —
/// never interleave their tasks and each region's results stay
/// bit-identical to a solo run.
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, ThreadPool* pool = nullptr) {
  // Structural counters (see obs::WorkInfo::deterministic): callers may
  // shape their regions by worker count, so these are Prometheus-only.
  obs::add(obs::Work::kPoolRegions);
  obs::add(obs::Work::kPoolTasks, count);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const std::size_t workers = std::min(p.num_threads(), count);
  if (workers <= 1 || ThreadPool::in_parallel_region()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  p.run(workers, [&](std::size_t) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      fn(i);
    }
  });
}

/// `parallel_for` with per-worker state: each worker evaluates
/// `make_state()` once and passes the result to every task it claims —
/// for scratch that is expensive to rebuild per task or unsafe to share
/// across threads (the Monte-Carlo detector's measurement buffer).
/// Determinism rule: `fn(state, i)`'s observable result must be a function
/// of `i` alone — states built by `make_state()` must be interchangeable,
/// because which worker's state serves index i depends on scheduling.
/// Const, thread-safe evaluators (`mtd::SpaEvaluator`) need no per-worker
/// copy: build one and share it through plain `parallel_for`.
template <typename MakeState, typename Fn>
void parallel_for_with_state(std::size_t count, MakeState&& make_state,
                             Fn&& fn, ThreadPool* pool = nullptr) {
  obs::add(obs::Work::kPoolRegions);
  obs::add(obs::Work::kPoolTasks, count);
  ThreadPool& p = pool != nullptr ? *pool : ThreadPool::global();
  const std::size_t workers = std::min(p.num_threads(), count);
  if (workers <= 1 || ThreadPool::in_parallel_region()) {
    auto state = make_state();
    for (std::size_t i = 0; i < count; ++i) fn(state, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  p.run(workers, [&](std::size_t) {
    auto state = make_state();
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      fn(state, i);
    }
  });
}

/// Evaluates `fn(i) -> T` for every index in parallel and returns the
/// results ordered by task index. The index-ordered output (not the
/// execution order) is what downstream reductions fold over, which is the
/// cornerstone of the library's thread-count-invariance guarantee.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t count, Fn&& fn,
                            ThreadPool* pool = nullptr) {
  std::vector<T> out(count);
  parallel_for(
      count, [&](std::size_t i) { out[i] = fn(i); }, pool);
  return out;
}

}  // namespace mtdgrid::core
