// perfbench: the end-to-end benchmark of the MTD engine. Runs one named
// workload for a fixed time, checks every output against its reference,
// and prints one JSON result line (see perfbench/README.md).
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--corrupt-reference] [--out-dir DIR] [--reference-dir DIR]
//   perfbench --campaign-reference COUNT   (prints reference/campaign.json)
//
// Exit codes: 0 outputs correct, 1 a check failed, 2 bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "core/thread_pool.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_read|campaign|megagrid_zones"
               " --seed N --seconds S --trace 0|1\n"
               "                 [--corrupt-reference] [--out-dir DIR] "
               "[--reference-dir DIR]\n"
               "       perfbench --campaign-reference COUNT\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::uint64_t reference_count = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--corrupt-reference") {
      opt.corrupt_reference = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed" && parse_u64(value, n)) {
      opt.seed = n;
    } else if (arg == "--seconds" && parse_u64(value, n) && n >= 1) {
      opt.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_u64(value, n) && n <= 1) {
      opt.trace = n == 1;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else if (arg == "--reference-dir") {
      opt.reference_dir = value;
    } else if (arg == "--campaign-reference" && parse_u64(value, n)) {
      reference_count = n;
    } else {
      return usage();
    }
  }

  // The engine pool is pinned to the machine's cores for every workload.
  mtdgrid::core::ThreadPool::set_global_num_threads(
      std::thread::hardware_concurrency());

  if (reference_count > 0) {
    std::printf("%s\n", campaign_reference(reference_count).c_str());
    return 0;
  }

  Report report;
  try {
    if (opt.workload == "serve_read") {
      run_serve_read(opt, report);
    } else if (opt.workload == "campaign") {
      run_campaign(opt, report);
    } else if (opt.workload == "megagrid_zones") {
      run_megagrid_zones(opt, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (opt.trace) {
    report.set("failed_frac",
               report.attempted() ? static_cast<double>(report.failed()) /
                                        report.attempted()
                                  : 1.0,
               "ratio");
  } else {
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
