#pragma once

#include "report.hpp"

namespace perfbench {

// Each workload sets up, measures for `opt.seconds`, checks its outputs
// into `report`, and sets the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, `opt.trace`).

void run_serve_read(const Options& opt, Report& report);
void run_campaign(const Options& opt, Report& report);
void run_megagrid_zones(const Options& opt, Report& report);

/// The stored-reference file of the campaign workload for seeds
/// [0, count): `{"frontiers":{"<seed>":[[mean_detection, eta], ...]}}`.
std::string campaign_reference(std::uint64_t count);

}  // namespace perfbench
