#include "analysis/stretch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/parallel_sweep.hpp"

namespace pr::analysis {

using graph::NodeId;

std::vector<double> ccdf(std::span<const double> samples, std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  if (samples.empty()) {
    out.assign(xs.size(), 0.0);
    return out;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  for (double x : xs) {
    const auto first_greater = std::upper_bound(sorted.begin(), sorted.end(), x);
    const auto count = static_cast<double>(sorted.end() - first_greater);
    out.push_back(count / static_cast<double>(sorted.size()));
  }
  return out;
}

bool path_affected(const route::RoutingDb& routes, NodeId s, NodeId t,
                   const graph::EdgeSet& failures) {
  if (s == t || !routes.reachable(s, t)) return false;
  NodeId v = s;
  while (v != t) {
    const graph::DartId d = routes.next_dart(v, t);
    if (failures.contains(graph::dart_edge(d))) return true;
    v = routes.graph().dart_head(d);
  }
  return false;
}

double ProtocolStretch::max_finite_stretch() const {
  double best = 0;
  for (double s : stretches) {
    if (std::isfinite(s)) best = std::max(best, s);
  }
  return best;
}

double ProtocolStretch::mean_finite_stretch() const {
  double sum = 0;
  std::size_t n = 0;
  for (double s : stretches) {
    if (std::isfinite(s)) {
      sum += s;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

namespace {

/// Flow list of one scenario in the canonical (s, t) order every sweep uses:
/// all ordered pairs whose pristine path crosses a failed edge, with their
/// pristine costs and a parallel recoverability flag (same component in the
/// failed graph).
void collect_affected_flows(const graph::Graph& g, const route::RoutingDb& pristine,
                            const graph::EdgeSet& failures,
                            std::vector<sim::FlowSpec>& flows,
                            std::vector<double>& base_costs,
                            std::vector<char>& recoverable) {
  const auto components = graph::connected_components(g, &failures);
  flows.clear();
  base_costs.clear();
  recoverable.clear();
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t || !path_affected(pristine, s, t, failures)) continue;
      flows.push_back(sim::FlowSpec{s, t});
      base_costs.push_back(pristine.cost(s, t));
      recoverable.push_back(components[s] == components[t] ? 1 : 0);
    }
  }
}

}  // namespace

StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols) {
  sim::SweepExecutor executor(1);
  return run_stretch_experiment(g, scenarios, protocols, executor);
}

StretchExperimentResult run_stretch_experiment(
    const graph::Graph& g, std::span<const graph::EdgeSet> scenarios,
    const std::vector<NamedFactory>& protocols, sim::SweepExecutor& executor) {
  if (protocols.empty()) {
    throw std::invalid_argument("run_stretch_experiment: no protocols given");
  }
  const route::RoutingDb pristine(g);

  StretchExperimentResult result;
  result.scenarios = scenarios.size();
  result.protocols.reserve(protocols.size());
  for (const auto& p : protocols) {
    result.protocols.push_back(ProtocolStretch{p.name, {}, 0, 0, 0});
  }

  // A ring of `window` slots hands each scenario's per-protocol counters and
  // samples, in flow order, from the worker that routed them to the
  // canonical-order fold below.
  struct Slot {
    std::size_t affected = 0;
    std::vector<ProtocolStretch> protocols;
  };
  const std::size_t window = executor.default_ordered_window();
  std::vector<Slot> slots(window);

  const sim::SweepExecutor::UnitFn unit_fn = [&](std::size_t unit,
                                                 sim::WorkerContext& ctx) {
    const graph::EdgeSet& failures = scenarios[unit];
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);

    collect_affected_flows(g, pristine, failures, ctx.flows, ctx.base_costs, ctx.flags);
    Slot& slot = slots[unit % window];
    slot.affected = ctx.flows.size();
    slot.protocols.resize(protocols.size());
    for (auto& p : slot.protocols) {
      p.stretches.clear();
      p.delivered = p.dropped_reachable = p.dropped_partitioned = 0;
    }
    if (ctx.flows.empty()) return;

    for (std::size_t i = 0; i < protocols.size(); ++i) {
      // Fresh protocol instances see this scenario's link state at build
      // time; reconverging ones borrow delta-repaired tables from the
      // worker's cache instead of rebuilding n Dijkstras per scenario.
      const auto instance = make_protocol(protocols[i], network, ctx.routes);
      sim::route_batch(network, *instance, ctx.flows, sim::TraceMode::kStats,
                       ctx.batch);
      ProtocolStretch& out = slot.protocols[i];
      for (std::size_t f = 0; f < ctx.batch.size(); ++f) {
        if (ctx.batch[f].delivered()) {
          ++out.delivered;
          out.stretches.push_back(ctx.batch[f].cost / ctx.base_costs[f]);
        } else if (ctx.flags[f] != 0) {
          ++out.dropped_reachable;
          out.stretches.push_back(std::numeric_limits<double>::infinity());
        } else {
          ++out.dropped_partitioned;
        }
      }
    }
  };
  // Appending each scenario's samples in scenario order yields one sample
  // sequence for every thread count.
  const sim::SweepExecutor::ReduceFn reduce_fn = [&](std::size_t unit) {
    const Slot& slot = slots[unit % window];
    result.affected_pairs += slot.affected;
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const ProtocolStretch& part = slot.protocols[i];
      ProtocolStretch& agg = result.protocols[i];
      agg.delivered += part.delivered;
      agg.dropped_reachable += part.dropped_reachable;
      agg.dropped_partitioned += part.dropped_partitioned;
      agg.stretches.insert(agg.stretches.end(), part.stretches.begin(),
                           part.stretches.end());
    }
  };
  const sim::RunControl control;
  sim::throw_if_incomplete(executor.run_ordered(scenarios.size(), unit_fn, reduce_fn,
                                                control, nullptr, 0, window));
  return result;
}

}  // namespace pr::analysis
