// Congestion-under-failure sweeps: the traffic-engineering view of the
// paper's comparison.
//
// The stretch-and-coverage experiment treats every flow as one unweighted
// probe.  This driver routes a full demand matrix (every ordered pair with
// non-zero demand) through every failure scenario under every protocol,
// accumulates demand-weighted per-interface load, and prices each scenario
// against a capacity plan: max link utilization, overloaded links, and
// delivered / lost / stranded traffic volume.  Like its siblings it has one
// sweep body, run_traffic_experiment_resilient, on SweepExecutor::run_ordered
// (per-scenario units folded in canonical scenario order); the other two
// signatures wrap it, so results are bit-identical at every thread count.
//
// Two sweep modes share that body:
//   * kFullReroute -- the reference oracle: every scenario re-routes every
//     flow from scratch, hop by hop through sim::ForwardingEngine::run and
//     so without route_batch's orbit compression, O(flows) walks per
//     scenario;
//   * kIncremental (default) -- one pristine routing pass per protocol builds
//     a traffic::FlowIncidenceIndex; each scenario then probes it for the
//     flows whose pristine path crosses a failed edge, re-routes ONLY those
//     through the demand-weighted route_batch, and prices the cell by delta:
//     the pristine load, minus the affected flows' pristine rows, plus the
//     re-routed load.  Work is O(affected flows), so single-link sweeps pay
//     for the affected fraction (typically single-digit percent, often far
//     less) instead of all n*(n-1) pairs.
//
// Exactness replaces ordering.  collect_demand_flows puts every rate on a
// power-of-two grid sized so that every per-dart load and every delivered /
// lost / stranded sum of one cell is an integer multiple of the quantum below
// 2^53 quanta (validate_demand_sweep refuses inputs where that could fail).
// Double addition and subtraction on those values are exact, hence
// associative, so the delta cell's rows and LoadMaps are bit-identical to
// kFullReroute however its terms are ordered.  Debug builds cross-check every
// incremental cell against the oracle.  Sums ACROSS scenarios (total_load,
// the storm reducers) can leave the exact range and still fold in canonical
// scenario order.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/stretch.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/run_control.hpp"
#include "traffic/capacity.hpp"
#include "traffic/congestion.hpp"
#include "traffic/demand.hpp"
#include "traffic/incidence.hpp"
#include "traffic/load_map.hpp"

namespace pr::analysis {

/// How a traffic sweep prices each scenario; both modes produce bit-identical
/// results (on-grid demand makes every per-cell sum exact), so the oracle
/// survives as the reference for tests, benches and protocols outside the
/// failure-local contract documented in traffic/incidence.hpp.
enum class TrafficSweepMode : std::uint8_t {
  kFullReroute,  ///< re-route every flow per scenario (reference oracle)
  kIncremental,  ///< pristine load - affected pristine rows + affected re-routes
};

/// One protocol's outcome across the whole sweep.
struct ProtocolTraffic {
  std::string name;
  /// One entry per folded scenario, in the caller's scenario order.  A
  /// resilient run under UnitErrorPolicy::kContinue skips the scenarios
  /// listed in outcome.errors, so row r is then not scenario r.
  std::vector<traffic::CongestionMetrics> per_scenario;
  /// Per-dart load summed over all scenarios in canonical order (where
  /// rerouted demand concentrates across the sweep), plus the scenario count
  /// it covers.
  traffic::LoadMapReduction total_load;
  /// Flows routed through a protocol instance, summed over scenarios: the
  /// affected-flow count in incremental mode, scenarios * flows in full mode.
  std::size_t rerouted_flows = 0;

  [[nodiscard]] traffic::CongestionSummary summary() const {
    return traffic::summarize(per_scenario);
  }
};

struct TrafficExperimentResult {
  std::vector<ProtocolTraffic> protocols;
  std::size_t scenarios = 0;  ///< scenarios folded (== per_scenario.size())
  std::size_t flows_per_scenario = 0;  ///< ordered pairs with non-zero demand
  TrafficSweepMode mode = TrafficSweepMode::kIncremental;

  /// Fraction of (scenario, flow) cells `p` actually routed: the per-sweep
  /// affected-flow fraction in incremental mode, 1.0 in full mode.
  [[nodiscard]] double rerouted_fraction(const ProtocolTraffic& p) const {
    const double total =
        static_cast<double>(scenarios) * static_cast<double>(flows_per_scenario);
    return total == 0.0 ? 0.0 : static_cast<double>(p.rerouted_flows) / total;
  }
};

/// Significant bits of the demand grid: the quantum is
/// q = 2^(ilogb(raw offered) + 1 - kDemandGridBits), so the offered volume
/// spans about 2^kDemandGridBits quanta.  A flow crosses at most
/// net::default_ttl(g) darts, so no per-dart load exceeds offered * ttl and
/// every per-cell sum stays exact while offered/q * default_ttl(g) < 2^53
/// (ttl < 2^17, i.e. fewer than ~32k edges, at 36 bits).
/// validate_demand_sweep enforces that bound.
inline constexpr int kDemandGridBits = 36;

/// Raised by validate_demand_sweep when the worst-case dart load of `demand`
/// on `g` cannot be represented exactly on the demand grid.
class DemandGridOverflow : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The demand grid's quantum for `demand` (see kDemandGridBits): a power of
/// two derived from the raw offered volume summed in canonical (s, t) order.
/// 0 for an all-zero matrix.
[[nodiscard]] double demand_quantum(const traffic::TrafficMatrix& demand);

/// The sweep work-list every demand-weighted driver routes: one FlowSpec per
/// ordered pair with non-zero demand, in the canonical (s, t) order, with the
/// matching per-flow demand vector, every rate rounded to the nearest
/// multiple of demand_quantum(demand) (a positive rate never rounds to 0).
/// Returns the offered volume, the exact sum of those rates (every metrics
/// row's offered_pps).  Exposed so capacity-sizing callers (the bench's
/// pristine-load pass) build exactly the list the sweep will route.
double collect_demand_flows(const traffic::TrafficMatrix& demand,
                            std::vector<sim::FlowSpec>& flows,
                            std::vector<double>& demands);

/// The input checks every demand-weighted driver (traffic, storm, exhaustive
/// storm) shares: a non-empty protocol list, and a demand matrix and
/// capacity plan sized to `g`, all std::invalid_argument prefixed `who`; and
/// DemandGridOverflow when offered/q * net::default_ttl(g) >= 2^53 (or the
/// offered volume is not finite).
void validate_demand_sweep(const char* who, const graph::Graph& g,
                           const traffic::TrafficMatrix& demand,
                           const traffic::CapacityPlan& plan,
                           const std::vector<NamedFactory>& protocols);

/// One priced (scenario, protocol) cell, beyond the LoadMap it filled.
struct CellOutcome {
  traffic::CongestionMetrics metrics;
  /// Worst path-cost stretch among delivered affected flows; stays 1.0 when
  /// the cell was priced without pristine costs.
  double max_stretch = 1.0;
  std::size_t rerouted = 0;  ///< flows routed through a protocol instance
};

/// The kIncremental cell (see the top of this header) every demand-weighted
/// driver prices scenarios with: traffic sweeps, sampled storms and the
/// exhaustive storm oracle.  The caller has already probed the scenario's
/// affected flows into `scratch` -- per failed edge through
/// FlowIncidenceIndex or per failed risk group through GroupIncidence, which
/// find the same set.  The cell re-routes only those through the
/// demand-weighted route_batch into scratch.reroute (so a looping flow's
/// orbit is charged as crossings x demand, not hop by hop), sets `load` to
/// the index's pristine load minus their pristine rows plus that re-routed
/// load, and adjusts the pristine delivered volume the same way.
/// `component` holds the scenario's residual component ids, which split
/// dropped demand (affected flows that dropped, and the index's
/// pristine-undelivered flows) into lost vs stranded independently of
/// `cache`, whose tables the protocol instance may be borrowing.  `demands`
/// must be the on-grid rates of collect_demand_flows -- the index's too --
/// for the result to equal the full re-route.  A non-empty `pristine_costs`
/// (one per flow) turns on the max_stretch output.
[[nodiscard]] CellOutcome price_incremental_cell(
    const graph::Graph& g, const net::Network& network,
    std::span<const std::uint32_t> component, const NamedFactory& factory,
    route::ScenarioRoutingCache& cache, const traffic::FlowIncidenceIndex& index,
    std::span<const sim::FlowSpec> flows, std::span<const double> demands,
    double offered_pps, const traffic::CapacityPlan& plan,
    std::span<const double> pristine_costs, sim::BatchResult& batch,
    traffic::LoadMap& load, traffic::IncidenceScratch& scratch);

/// Routes the demand matrix through every scenario under every protocol and
/// prices the resulting loads against `plan`.  Scenarios may disconnect the
/// graph: demand whose destination becomes unreachable is accounted as
/// stranded (no scheme can deliver it), demand dropped despite a surviving
/// path as lost.  `mode` selects the incremental core or the full-re-route
/// oracle; results are bit-identical either way.  Runs the sweep body on a
/// 1-thread executor.
[[nodiscard]] TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols,
    TrafficSweepMode mode = TrafficSweepMode::kIncremental);

/// The same sweep on `executor`, all or nothing: a failing scenario throws
/// sim::SweepUnitError.  Results are bit-identical for every thread count.
[[nodiscard]] TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    TrafficSweepMode mode = TrafficSweepMode::kIncremental);

/// A resilient traffic run: the (possibly partial) result plus the
/// executor's stop report.  Every per-protocol row/load covers exactly the
/// scenarios folded from the canonical prefix [0, completed_units) --
/// bit-identical to running just those scenarios.  result.scenarios counts
/// the folded scenarios: completed_units minus the contained failures listed
/// in outcome.errors under UnitErrorPolicy::kContinue.
struct TrafficRunResult {
  TrafficExperimentResult result;
  sim::SweepOutcome outcome;

  [[nodiscard]] bool complete() const noexcept {
    return outcome.stop_reason == sim::StopReason::kCompleted;
  }
};

/// The traffic sweep body.  Scenarios are work units on `executor`, each
/// routed with the worker's reusable batch and incidence buffers
/// (sim::WorkerContext); the per-protocol incidence indexes are built once,
/// up front, and shared read-only by all workers, and each scenario's rows
/// and load maps fold into the result in canonical scenario order.  Under
/// `control` the sweep stops cooperatively at scenario boundaries on
/// cancel/deadline/budget, contains per-scenario failures per the control's
/// error policy, and returns the surviving canonical prefix instead of
/// throwing.  Scenario lists are enumerated (unlike sampled storms), so
/// "resume" is simply re-running with the remaining span -- no checkpoint
/// machinery needed here.
[[nodiscard]] TrafficRunResult run_traffic_experiment_resilient(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    const sim::RunControl& control,
    TrafficSweepMode mode = TrafficSweepMode::kIncremental);

}  // namespace pr::analysis
