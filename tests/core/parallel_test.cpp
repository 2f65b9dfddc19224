#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "stats/rng.hpp"

namespace mtdgrid::core {
namespace {

TEST(ThreadPoolTest, SizeOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::size_t> ids;
  pool.run(4, [&](std::size_t id) { ids.push_back(id); });
  // Worker ids are clamped to the pool size: a one-thread pool runs one id.
  EXPECT_EQ(ids, (std::vector<std::size_t>{0}));
}

TEST(ThreadPoolTest, RunsEveryWorkerIdExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::mutex m;
  std::multiset<std::size_t> ids;
  pool.run(4, [&](std::size_t id) {
    std::lock_guard<std::mutex> lock(m);
    ids.insert(id);
  });
  EXPECT_EQ(ids, (std::multiset<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, WorkerCountClampedToPoolSize) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.run(100, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> calls{0};
    pool.run(3, [&](std::size_t) { calls.fetch_add(1); });
    ASSERT_EQ(calls.load(), 3) << "round " << round;
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(4,
               [&](std::size_t id) {
                 if (id == 2) throw std::runtime_error("worker failure");
               }),
      std::runtime_error);
  // The pool survives a throwing region.
  std::atomic<int> calls{0};
  pool.run(4, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolTest, NestedRegionsRunInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  std::atomic<bool> nested_flag_seen{false};
  pool.run(4, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // A nested region must serialize on the calling worker instead of
    // deadlocking or oversubscribing.
    pool.run(4, [&](std::size_t) {
      inner_calls.fetch_add(1);
      if (ThreadPool::in_parallel_region()) nested_flag_seen.store(true);
    });
  });
  EXPECT_EQ(inner_calls.load(), 16);
  EXPECT_TRUE(nested_flag_seen.load());
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPoolTest, DefaultThreadsHonorsEnvOverride) {
  // Save/restore so other tests see the ambient configuration.
  const char* old = std::getenv("MTDGRID_THREADS");
  const std::string saved = old != nullptr ? old : "";
  setenv("MTDGRID_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_num_threads(), 3u);
  setenv("MTDGRID_THREADS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_num_threads(), 1u);
  if (old != nullptr)
    setenv("MTDGRID_THREADS", saved.c_str(), 1);
  else
    unsetenv("MTDGRID_THREADS");
}

TEST(ThreadPoolTest, SetGlobalNumThreadsRebuildsPool) {
  ThreadPool::set_global_num_threads(2);
  EXPECT_EQ(ThreadPool::global().num_threads(), 2u);
  ThreadPool::set_global_num_threads(5);
  EXPECT_EQ(ThreadPool::global().num_threads(), 5u);
  ThreadPool::set_global_num_threads(0);  // restore the default
  EXPECT_EQ(ThreadPool::global().num_threads(),
            ThreadPool::default_num_threads());
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(
      n, [&](std::size_t i) { visits[i].fetch_add(1); }, &pool);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForTest, ZeroAndOneCounts) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; }, &pool);
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; }, &pool);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelMapTest, ResultsAreIndexOrdered) {
  ThreadPool pool(8);
  const std::vector<double> out = parallel_map<double>(
      256, [](std::size_t i) { return static_cast<double>(i) * 0.5; }, &pool);
  ASSERT_EQ(out.size(), 256u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
}

TEST(ParallelForWithStateTest, OneStatePerWorkerCoversAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> states_built{0};
  std::vector<std::atomic<int>> visits(200);
  parallel_for_with_state(
      visits.size(),
      [&] {
        states_built.fetch_add(1);
        return 0;
      },
      [&](int&, std::size_t i) { visits[i].fetch_add(1); }, &pool);
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_GE(states_built.load(), 1);
  EXPECT_LE(states_built.load(), 4);
}

TEST(StreamSeedTest, PureFunctionOfRootAndIndex) {
  EXPECT_EQ(stats::stream_seed(42, 7), stats::stream_seed(42, 7));
  EXPECT_NE(stats::stream_seed(42, 7), stats::stream_seed(42, 8));
  EXPECT_NE(stats::stream_seed(42, 7), stats::stream_seed(43, 7));
}

TEST(StreamSeedTest, AdjacentStreamsAreDecorrelated) {
  // Crude independence check: across many (root, index) pairs, adjacent
  // streams' first uniforms must not track each other.
  double corr = 0.0;
  const int n = 2000;
  for (int k = 0; k < n; ++k) {
    stats::Rng a = stats::make_stream(1234, k);
    stats::Rng b = stats::make_stream(1234, k + 1);
    corr += (a.uniform() - 0.5) * (b.uniform() - 0.5);
  }
  corr /= n * (1.0 / 12.0);  // normalize by uniform variance
  EXPECT_LT(std::abs(corr), 0.1);
}

}  // namespace
}  // namespace mtdgrid::core
