// Congestion metrics: pricing a failure scenario in traffic, not probes.
//
// Given the per-interface load a demand-weighted sweep accumulated and the
// capacity plan pricing those interfaces, a scenario's cost has two axes:
//   * concentration -- how hard does rerouted demand hit the surviving links
//     (max utilization, overloaded-link count);
//   * volume        -- how much demand was delivered, lost although a path
//     existed (a protocol coverage gap priced in pps), or stranded because
//     the destination was partitioned off (no scheme can deliver it).
// The structs are plain mergeable values with defaulted equality so sweep
// determinism can be asserted bit for bit.
#pragma once

#include <cstddef>
#include <span>

#include "graph/graph.hpp"
#include "traffic/capacity.hpp"
#include "traffic/load_map.hpp"

namespace pr::traffic {

/// What one (scenario, protocol) cell of a traffic sweep experienced.
struct CongestionMetrics {
  /// max over interfaces of load / capacity (0 when nothing was loaded).
  /// Both utilization fields count every dart a packet crossed, including
  /// those of packets that never reach their destination and loop until TTL
  /// expiry: such a flow adds crossings(ttl) x demand to its orbit's darts,
  /// which grows linearly in net::default_ttl.  Reporting that stranded loop
  /// load apart from the headline is open (ROADMAP item B, "Reporting").
  double max_utilization = 0.0;
  /// Links (edges) with at least one direction loaded above capacity (same
  /// loop load included as above).
  std::size_t overloaded_links = 0;
  double offered_pps = 0.0;    ///< total demand routed into the scenario
  double delivered_pps = 0.0;  ///< demand of delivered flows
  double lost_pps = 0.0;       ///< demand dropped though the destination was reachable
  double stranded_pps = 0.0;   ///< demand whose destination was partitioned off

  friend bool operator==(const CongestionMetrics&, const CongestionMetrics&) = default;
};

/// Fills the utilization axis (max_utilization, overloaded_links) of `m` from
/// an accumulated load map; the volume axis is filled by the sweep driver,
/// which knows per-flow outcomes.  `load` must cover g.dart_count() darts and
/// `plan` g.edge_count() edges (throws std::invalid_argument otherwise).
void apply_utilization(CongestionMetrics& m, const graph::Graph& g,
                       const LoadMap& load, const CapacityPlan& plan);

/// Aggregate view of one protocol across a scenario sweep.
struct CongestionSummary {
  std::size_t scenarios = 0;
  double worst_max_utilization = 0.0;
  double mean_max_utilization = 0.0;
  /// Summed over scenarios (a link overloaded in k scenarios counts k times).
  std::size_t overloaded_links = 0;
  /// Scenarios with at least one overloaded link.
  std::size_t overloaded_scenarios = 0;
  double offered_pps = 0.0;
  double delivered_pps = 0.0;
  double lost_pps = 0.0;
  double stranded_pps = 0.0;

  friend bool operator==(const CongestionSummary&, const CongestionSummary&) = default;
};

/// Folds per-scenario metrics (in canonical scenario order, for deterministic
/// floating-point sums) into the aggregate view.
[[nodiscard]] CongestionSummary summarize(std::span<const CongestionMetrics> per_scenario);

}  // namespace pr::traffic
