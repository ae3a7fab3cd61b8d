#include "analysis/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/connectivity.hpp"
#include "net/forwarding.hpp"
#include "sim/parallel_sweep.hpp"

namespace pr::analysis {

using graph::NodeId;

namespace {

/// `pps` rounded to the nearest multiple of the quantum `q`, never below one
/// quantum.  pps / q and the product are exact (q is a power of two).
double on_grid(double pps, double q) { return std::max(q, std::round(pps / q) * q); }

}  // namespace

double demand_quantum(const traffic::TrafficMatrix& demand) {
  double raw = 0.0;
  for (const double pps : demand.flat()) raw += pps;
  return raw == 0.0 ? 0.0 : std::ldexp(1.0, std::ilogb(raw) + 1 - kDemandGridBits);
}

double collect_demand_flows(const traffic::TrafficMatrix& demand,
                            std::vector<sim::FlowSpec>& flows,
                            std::vector<double>& demands) {
  flows.clear();
  demands.clear();
  const double q = demand_quantum(demand);
  double offered = 0.0;
  const std::size_t n = demand.node_count();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s == t || demand.demand(s, t) == 0.0) continue;
      flows.push_back(sim::FlowSpec{s, t});
      demands.push_back(on_grid(demand.demand(s, t), q));
      offered += demands.back();
    }
  }
  return offered;
}

void validate_demand_sweep(const char* who, const graph::Graph& g,
                           const traffic::TrafficMatrix& demand,
                           const traffic::CapacityPlan& plan,
                           const std::vector<NamedFactory>& protocols) {
  if (protocols.empty()) {
    throw std::invalid_argument(std::string(who) + ": no protocols given");
  }
  if (demand.node_count() != g.node_count()) {
    throw std::invalid_argument(std::string(who) +
                                ": demand matrix does not cover the graph");
  }
  if (plan.edge_count() != g.edge_count()) {
    throw std::invalid_argument(std::string(who) +
                                ": capacity plan does not cover the graph");
  }
  const double q = demand_quantum(demand);
  if (q == 0.0) return;  // no demand, nothing to charge
  double offered = 0.0;
  for (const double pps : demand.flat()) {
    if (pps != 0.0) offered += on_grid(pps, q);
  }
  // The product rounds at most up to 2^53, so the test never misses a
  // violation; a non-finite offered volume (or quantum) fails it too.
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  if (!(offered / q * net::default_ttl(g) < kExactLimit)) {
    throw DemandGridOverflow(std::string(who) +
                             ": demand grid overflow: offered/quantum x ttl reaches "
                             "2^53, so per-dart loads would not be exact");
  }
}

CellOutcome price_incremental_cell(
    const graph::Graph& g, const net::Network& network,
    std::span<const std::uint32_t> component, const NamedFactory& factory,
    route::ScenarioRoutingCache& cache, const traffic::FlowIncidenceIndex& index,
    std::span<const sim::FlowSpec> flows, std::span<const double> demands,
    double offered_pps, const traffic::CapacityPlan& plan,
    std::span<const double> pristine_costs, sim::BatchResult& batch,
    traffic::LoadMap& load, traffic::IncidenceScratch& scratch) {
  // Re-route the affected flows, charging their load into scratch.reroute.
  // When the scenario touches no pristine path the protocol instance (and
  // any routing-table repair it would trigger) is skipped entirely and the
  // pristine cell is the whole answer.
  batch.clear();
  if (!scratch.affected.empty()) {
    scratch.flows.clear();
    scratch.demands.clear();
    for (const std::uint32_t f : scratch.affected) {
      scratch.flows.push_back(flows[f]);
      scratch.demands.push_back(demands[f]);
    }
    const auto instance = make_protocol(factory, network, cache);
    sim::route_batch(network, *instance, scratch.flows, scratch.demands,
                     scratch.reroute, sim::TraceMode::kStats, batch);
  }

  // Every term below is a multiple of the demand quantum within the exact
  // range, so the order of these additions does not matter.
  CellOutcome out;
  out.rerouted = scratch.affected.size();
  traffic::CongestionMetrics& m = out.metrics;
  m.offered_pps = offered_pps;
  m.delivered_pps = index.pristine_delivered_pps();
  load = index.pristine_load();
  const auto drop = [&](std::uint32_t f) {
    if (component[flows[f].source] == component[flows[f].destination]) {
      m.lost_pps += demands[f];
    } else {
      m.stranded_pps += demands[f];
    }
  };
  for (std::size_t a = 0; a < scratch.affected.size(); ++a) {
    const std::uint32_t f = scratch.affected[a];
    const double rate = demands[f];
    for (const graph::DartId d : index.flow_darts(f)) load.add(d, -rate);
    if (index.pristine_delivered(f)) m.delivered_pps -= rate;
    if (!batch[a].delivered()) {
      drop(f);
      continue;
    }
    m.delivered_pps += rate;
    if (!pristine_costs.empty() && pristine_costs[f] > 0.0) {
      out.max_stretch = std::max(out.max_stretch, batch[a].cost / pristine_costs[f]);
    }
  }
  if (!scratch.affected.empty()) load.merge(scratch.reroute);
  // Flows the pristine network already drops stay dropped unless affected
  // (failure locality); the scenario's components still decide lost vs
  // stranded for them.
  for (const std::uint32_t f : index.pristine_undelivered()) {
    if (scratch.affected_mark[f] == 0) drop(f);
  }
  traffic::apply_utilization(m, g, load, plan);
  return out;
}

namespace {

/// The kFullReroute oracle for one (scenario, protocol) cell: every flow
/// walks hop by hop through ForwardingEngine::run, charging `load` per hop
/// -- deliberately not route_batch, whose orbit compression it checks --
/// then the full metrics row.  `component` holds the scenario's residual
/// component ids (graph minus failures) and splits dropped demand into lost
/// (path existed) vs stranded (partitioned) -- deliberately independent of
/// the routing cache, whose table storage the protocol instance may be
/// borrowing.
traffic::CongestionMetrics route_cell(const graph::Graph& g,
                                      const net::Network& network,
                                      std::span<const std::uint32_t> component,
                                      const NamedFactory& factory,
                                      route::ScenarioRoutingCache& cache,
                                      std::span<const sim::FlowSpec> flows,
                                      std::span<const double> demands,
                                      double offered_pps,
                                      const traffic::CapacityPlan& plan,
                                      traffic::LoadMap& load) {
  const auto instance = make_protocol(factory, network, cache);
  const sim::ForwardingEngine engine(network, *instance);
  const std::uint32_t default_ttl = net::default_ttl(g);
  load.reset(g.dart_count());
  traffic::CongestionMetrics m;
  m.offered_pps = offered_pps;
  sim::FlowState fs;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const sim::FlowSpec& flow = flows[f];
    fs.reset(flow.source, flow.destination, flow.ttl == 0 ? default_ttl : flow.ttl,
             flow.traffic_class);
    const sim::FlowOutcome outcome =
        engine.run(fs, [&](NodeId) { load.add(fs.arrived_over, demands[f]); });
    if (outcome.status == net::DeliveryStatus::kDelivered) {
      m.delivered_pps += demands[f];
    } else if (component[flows[f].source] == component[flows[f].destination]) {
      m.lost_pps += demands[f];
    } else {
      m.stranded_pps += demands[f];
    }
  }
  traffic::apply_utilization(m, g, load, plan);
  return m;
}

#ifndef NDEBUG
/// Debug builds re-price every incremental cell through the full oracle and
/// demand bit-identity -- the enforcement teeth of the failure-local protocol
/// contract documented in traffic/incidence.hpp.
void cross_check_incremental_cell(
    const graph::Graph& g, const net::Network& network,
    std::span<const std::uint32_t> component, const NamedFactory& factory,
    route::ScenarioRoutingCache& cache, std::span<const sim::FlowSpec> flows,
    std::span<const double> demands, double offered_pps,
    const traffic::CapacityPlan& plan, const traffic::CongestionMetrics& metrics,
    const traffic::LoadMap& load) {
  traffic::LoadMap oracle_load;
  const traffic::CongestionMetrics oracle = route_cell(
      g, network, component, factory, cache, flows, demands, offered_pps, plan,
      oracle_load);
  const traffic::LoadMapDiff d = traffic::diff(load, oracle_load);
  if (!(metrics == oracle) || !d.identical()) {
    throw std::logic_error(
        "run_traffic_experiment: incremental cell diverged from the full "
        "re-route oracle (protocol '" +
        factory.name + "', " + std::to_string(d.differing) +
        " darts differ, max |delta| " + std::to_string(d.max_abs_delta) + ")");
  }
}
#endif

/// One pristine routing pass per protocol over the sweep's exact work-list.
/// `cache` warms with the pristine tables, which every scenario repair then
/// starts from.
std::vector<traffic::FlowIncidenceIndex> build_indexes(
    const graph::Graph& g, const std::vector<NamedFactory>& protocols,
    std::span<const sim::FlowSpec> flows, std::span<const double> demands,
    route::ScenarioRoutingCache& cache) {
  std::vector<traffic::FlowIncidenceIndex> indexes(protocols.size());
  const net::Network pristine(g);
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    const auto instance = make_protocol(protocols[i], pristine, cache);
    indexes[i].build(pristine, *instance, flows, demands);
  }
  return indexes;
}

}  // namespace

TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, TrafficSweepMode mode) {
  sim::SweepExecutor executor(1);
  return run_traffic_experiment(g, demand, plan, scenarios, protocols, executor, mode);
}

TrafficExperimentResult run_traffic_experiment(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    TrafficSweepMode mode) {
  const sim::RunControl control;
  TrafficRunResult run = run_traffic_experiment_resilient(
      g, demand, plan, scenarios, protocols, executor, control, mode);
  sim::throw_if_incomplete(run.outcome);
  return std::move(run.result);
}

TrafficRunResult run_traffic_experiment_resilient(
    const graph::Graph& g, const traffic::TrafficMatrix& demand,
    const traffic::CapacityPlan& plan, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor,
    const sim::RunControl& control, TrafficSweepMode mode) {
  validate_demand_sweep("run_traffic_experiment", g, demand, plan, protocols);

  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  const double offered = collect_demand_flows(demand, flows, demands);

  // Per-protocol pristine indexes are built once, serially, then shared
  // read-only by every worker.
  std::vector<traffic::FlowIncidenceIndex> indexes;
  if (mode == TrafficSweepMode::kIncremental) {
    route::ScenarioRoutingCache pristine_cache;
    indexes = build_indexes(g, protocols, flows, demands, pristine_cache);
  }

  TrafficRunResult run;
  TrafficExperimentResult& result = run.result;
  result.flows_per_scenario = flows.size();
  result.mode = mode;
  result.protocols.resize(protocols.size());
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    result.protocols[i].name = protocols[i].name;
    result.protocols[i].per_scenario.reserve(scenarios.size());
  }

  // A ring of `window` slots hands each scenario's cells from the worker that
  // priced them to the canonical-order fold, so memory is flat in the
  // scenario count.  Cells price straight into their slot's load maps.
  struct Slot {
    std::vector<CellOutcome> cells;       // per protocol
    std::vector<traffic::LoadMap> loads;  // per protocol
  };
  const std::size_t window = executor.default_ordered_window();
  std::vector<Slot> slots(window);

  const sim::SweepExecutor::UnitFn unit_fn = [&](std::size_t unit,
                                                 sim::WorkerContext& ctx) {
    const graph::EdgeSet& failures = scenarios[unit];
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);
    const auto component = graph::connected_components(g, &failures);

    Slot& slot = slots[unit % window];
    slot.cells.resize(protocols.size());
    slot.loads.resize(protocols.size());
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      traffic::LoadMap& load = slot.loads[i];
      if (mode == TrafficSweepMode::kFullReroute) {
        slot.cells[i] = CellOutcome{
            route_cell(g, network, component, protocols[i], ctx.routes, flows,
                       demands, offered, plan, load),
            1.0, flows.size()};
      } else {
        indexes[i].affected_flows(network.failed_links(), ctx.incidence.affected_mark,
                                  ctx.incidence.affected);
        slot.cells[i] = price_incremental_cell(
            g, network, component, protocols[i], ctx.routes, indexes[i], flows,
            demands, offered, plan, {}, ctx.batch, load, ctx.incidence);
#ifndef NDEBUG
        cross_check_incremental_cell(g, network, component, protocols[i],
                                     ctx.routes, flows, demands, offered, plan,
                                     slot.cells[i].metrics, load);
#endif
      }
    }
  };
  // Summed over many scenarios the loads can leave the demand grid's exact
  // range, so rows and load maps fold in canonical scenario order: the same
  // floating-point sequence at every thread count.  A contained failure
  // (kContinue) never reaches this fold, so it adds no row.
  const sim::SweepExecutor::ReduceFn reduce_fn = [&](std::size_t unit) {
    const Slot& slot = slots[unit % window];
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      ProtocolTraffic& agg = result.protocols[i];
      agg.per_scenario.push_back(slot.cells[i].metrics);
      agg.total_load.add(slot.loads[i]);
      agg.rerouted_flows += slot.cells[i].rerouted;
    }
    ++result.scenarios;
  };
  run.outcome = executor.run_ordered(scenarios.size(), unit_fn, reduce_fn, control,
                                     nullptr, 0, window);
  return run;
}

}  // namespace pr::analysis
