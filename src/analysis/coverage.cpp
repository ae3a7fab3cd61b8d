#include "analysis/coverage.hpp"

#include <stdexcept>

#include "graph/connectivity.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/parallel_sweep.hpp"

namespace pr::analysis {

using graph::NodeId;

namespace {

/// Flow list of one scenario in canonical (s, t) order, with a parallel
/// recoverability flag per flow (same component in the failed graph).
void collect_classified_flows(const graph::Graph& g, const route::RoutingDb& pristine,
                              const graph::EdgeSet& failures,
                              std::vector<sim::FlowSpec>& flows,
                              std::vector<char>& recoverable) {
  const auto components = graph::connected_components(g, &failures);
  flows.clear();
  recoverable.clear();
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t || !path_affected(pristine, s, t, failures)) continue;
      flows.push_back(sim::FlowSpec{s, t});
      recoverable.push_back(components[s] == components[t] ? 1 : 0);
    }
  }
}

/// Classifies one routed batch into a coverage accumulator.
void classify_batch(const sim::BatchResult& batch, const std::vector<char>& recoverable,
                    ProtocolCoverage& agg) {
  for (std::size_t f = 0; f < batch.size(); ++f) {
    if (batch[f].delivered()) {
      ++agg.delivered;
    } else if (recoverable[f] != 0) {
      ++agg.dropped_reachable;
    } else {
      ++agg.dropped_partitioned;
    }
  }
}

}  // namespace

CoverageResult run_coverage_experiment(const graph::Graph& g,
                                       std::span<const graph::EdgeSet> scenarios,
                                       const std::vector<NamedFactory>& protocols) {
  sim::SweepExecutor executor(1);
  return run_coverage_experiment(g, scenarios, protocols, executor);
}

CoverageResult run_coverage_experiment(const graph::Graph& g,
                                       std::span<const graph::EdgeSet> scenarios,
                                       const std::vector<NamedFactory>& protocols,
                                       sim::SweepExecutor& executor) {
  if (protocols.empty()) {
    throw std::invalid_argument("run_coverage_experiment: no protocols given");
  }
  const route::RoutingDb pristine(g);

  CoverageResult result;
  result.scenarios = scenarios.size();
  for (const auto& p : protocols) {
    result.protocols.push_back(ProtocolCoverage{p.name, 0, 0, 0});
  }

  // A ring of `window` slots hands each scenario's per-protocol counts from
  // the worker that classified them to the canonical-order fold below.
  const std::size_t window = executor.default_ordered_window();
  std::vector<std::vector<ProtocolCoverage>> slots(window);

  const sim::SweepExecutor::UnitFn unit_fn = [&](std::size_t unit,
                                                 sim::WorkerContext& ctx) {
    const graph::EdgeSet& failures = scenarios[unit];
    net::Network network(g);
    for (graph::EdgeId e : failures.elements()) network.fail_link(e);

    collect_classified_flows(g, pristine, failures, ctx.flows, ctx.flags);
    std::vector<ProtocolCoverage>& slot = slots[unit % window];
    slot.assign(protocols.size(), ProtocolCoverage{});
    if (ctx.flows.empty()) return;

    for (std::size_t i = 0; i < protocols.size(); ++i) {
      const auto instance = make_protocol(protocols[i], network, ctx.routes);
      sim::route_batch(network, *instance, ctx.flows, sim::TraceMode::kStats,
                       ctx.batch);
      classify_batch(ctx.batch, ctx.flags, slot[i]);
    }
  };
  const sim::SweepExecutor::ReduceFn reduce_fn = [&](std::size_t unit) {
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      result.protocols[i].merge(slots[unit % window][i]);
    }
  };
  const sim::RunControl control;
  sim::throw_if_incomplete(executor.run_ordered(scenarios.size(), unit_fn, reduce_fn,
                                                control, nullptr, 0, window));
  return result;
}

}  // namespace pr::analysis
