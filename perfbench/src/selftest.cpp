// Self-test of the benchmark's own helpers: the nearest-rank percentile,
// the capacity-ladder decision and search, span self time, and the
// result line. Exits non-zero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.hpp"
#include "serve/json.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void test_percentile() {
  using perfbench::percentile;
  const std::vector<double> v = {5, 1, 4, 2, 3};
  check(percentile(v, 0.5) == 3, "median of 1..5 is 3");
  check(percentile(v, 0.2) == 1, "p20 of 5 values is the 1st");
  check(percentile(v, 0.21) == 2, "p21 of 5 values is the 2nd");
  check(percentile(v, 0.99) == 5, "p99 of 5 values is the max");
  check(percentile(v, 1.0) == 5, "p100 is the max");
  check(percentile(v, 0.0) == 1, "p0 clamps to the min");
  check(percentile({}, 0.5) == 0, "empty sample gives 0");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  check(perfbench::median({4, 1, 3, 2}) == 2, "even median is the lower one");

  // Three 1 s windows; the middle one holds a stall.
  const std::vector<double> lat = {1, 2, 3, 100, 200, 300, 4, 5, 6, 7};
  const std::vector<double> at = {0.1, 0.2, 0.3, 1.1, 1.2, 1.3,
                                  2.1, 2.2, 2.3, 2.4};
  check(perfbench::windowed_percentile(lat, at, 1.0, 1.0, 3) == 7,
        "interquartile mean of window maxima 3, 300, 7 is 7");
  check(perfbench::interquartile_mean({1, 2, 3, 4, 100, 5, 6, 7}) == 4.5,
        "a quarter is dropped from each end");
  check(perfbench::interquartile_mean({2, 4}) == 3, "two values: plain mean");
  check(perfbench::windowed_percentile(lat, at, 1.0, 1.0, 4) == 7,
        "windows under min_samples are skipped");
  check(perfbench::windowed_percentile(lat, at, 1.0, 0.5, 5) == 0,
        "no qualifying window gives 0");
}

void test_ladder() {
  using perfbench::RungObservation;
  using perfbench::rung_passes;
  RungObservation ok{1000.0, 800.0, 0, 2};
  check(rung_passes(ok, 1000.0, 2), "fast rung passes");
  RungObservation slow = ok;
  slow.p99_us = 1000.5;
  check(!rung_passes(slow, 1000.0, 2), "p99 over the limit fails");
  RungObservation failed = ok;
  failed.failed = 1;
  check(!rung_passes(failed, 1000.0, 2), "a failed request fails the rung");
  // Little's law allowance: 1000/s * 1 ms + 2 connections = 3 in flight.
  RungObservation at = ok;
  at.backlog_late_max = 3;
  check(rung_passes(at, 1000.0, 2), "backlog at the allowance passes");
  RungObservation grown = ok;
  grown.backlog_late_max = 4;
  check(!rung_passes(grown, 1000.0, 2), "backlog over the allowance fails");

  const auto rates = perfbench::rate_ladder(500.0, 2.0, 4);
  check(rates.size() == 4 && rates[0] == 500 && rates[3] == 4000,
        "ladder is geometric");
  for (long cut = -1; cut < 64; ++cut) {
    int calls = 0;
    const long got = perfbench::highest_passing_rung(64, [&](std::size_t k) {
      ++calls;
      return static_cast<long>(k) <= cut;
    });
    check(got == cut, "bisection finds the highest passing rung");
    check(calls <= 7, "bisection probes at most ceil(log2(65)) rungs");
  }
}

void test_self_time() {
  using mtdgrid::obs::TraceEvent;
  // Thread 0: parent [0,100) with children [10,30) and [40,90), the
  // latter with a grandchild [50,60). Thread 1: a lone span.
  const std::vector<TraceEvent> events = {
      {"child", "t", 0, 40.0, 50.0},  {"parent", "t", 0, 0.0, 100.0},
      {"child", "t", 0, 10.0, 20.0},  {"grandchild", "t", 0, 50.0, 10.0},
      {"parent", "t", 1, 5.0, 30.0},
  };
  const auto totals = perfbench::span_totals(events);
  check(totals.at("parent").count == 2, "parent count");
  check(totals.at("parent").total_us == 130.0, "parent total");
  check(totals.at("parent").self_us == 60.0, "parent self = 130 - 70");
  check(totals.at("child").self_us == 60.0, "child self = 70 - 10");
  check(totals.at("grandchild").self_us == 10.0, "leaf self = total");
}

void test_result_line() {
  perfbench::Report report;
  check(!report.correct(), "nothing attempted is not correct");
  report.attempt(4);
  report.set("p50_ms", 1.25, "ms");
  report.set("p50_ms", 1.5, "ms");
  const mtdgrid::serve::Json doc = mtdgrid::serve::Json::parse(report.json());
  check(doc.find("correct")->as_bool(), "4 attempted, 0 failed is correct");
  check(doc.find("attempted")->as_number() == 4, "attempted count");
  check(doc.find("failed")->as_number() == 0, "failed count");
  const auto* m = doc.find("metrics")->find("p50_ms");
  check(m != nullptr && m->find("value")->as_number() == 1.5 &&
            m->find("unit")->as_string() == "ms",
        "set overwrites and keeps the unit");
  check(doc.find("metrics")->as_object().size() == 1, "one metric");
  report.fail("test", 2);
  check(!report.correct() && report.failed() == 2, "failures are counted");
}

}  // namespace

int main() {
  test_percentile();
  test_ladder();
  test_self_time();
  test_result_line();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
