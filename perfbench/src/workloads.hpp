// The benchmark's workloads, one entry point each.  Every workload runs as
// its own process (main.cpp dispatches on --workload).
#pragma once

#include <string_view>

#include "common.hpp"

namespace perfbench {

using WorkloadFn = void (*)(const Options&, Report&);

/// Sampled correlated storms on GEANT: forwarding-bound, ordered reduce,
/// checkpoint writes (2 threads).
void run_storm_geant(const Options& options, Report& report);
/// Every single-link failure of a 512-node ISP under a full gravity matrix:
/// load-charging-bound (1 thread).
void run_single_link_isp512(const Options& options, Report& report);
/// Post-failure routing tables for every single-link failure of a 2048-node
/// ISP: SPF-tree-repair-bound (2 threads).
void run_repair_isp2048(const Options& options, Report& report);

[[nodiscard]] inline WorkloadFn find_workload(std::string_view name) {
  if (name == "storm-geant") return run_storm_geant;
  if (name == "single-link-isp512") return run_single_link_isp512;
  if (name == "repair-isp2048") return run_repair_isp2048;
  return nullptr;
}

}  // namespace perfbench
