// Tests for the affected-flow incremental traffic sweep core: the demand
// grid that makes per-cell sums exact, the FlowIncidenceIndex built from a
// pristine routing pass, the LoadMap diff helper, and -- the load-bearing
// guarantee -- bit-identical incremental vs full-re-route experiments across
// demand matrices, failure depths, every protocol factory and 1/2/8 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/traffic.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/failure_model.hpp"
#include "route/routing_db.hpp"
#include "route/static_spf.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"
#include "traffic/incidence.hpp"
#include "traffic/load_map.hpp"

namespace pr {
namespace {

using analysis::TrafficSweepMode;
using traffic::CapacityPlan;
using traffic::FlowIncidenceIndex;
using traffic::LoadMap;
using traffic::TrafficMatrix;

// ---------------------------------------------------------------------------
// Demand grid

TEST(DemandGrid, EveryRateIsAPositiveMultipleOfTheQuantum) {
  const auto g = topo::geant();
  TrafficMatrix demand = traffic::gravity_demand(g, 1e6);
  demand.set_demand(0, 1, 1e-30);  // far below one quantum

  const double q = analysis::demand_quantum(demand);
  EXPECT_EQ(q, std::ldexp(1.0, std::ilogb(demand.total_pps()) + 1 -
                                   analysis::kDemandGridBits));
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);
  ASSERT_EQ(flows.size(), demand.pair_count());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const double units = demands[f] / q;
    EXPECT_EQ(units, std::round(units)) << f;
    EXPECT_GE(units, 1.0) << f;
    // Rounding moves a rate by at most half a quantum, unless it lifts a
    // sub-half-quantum rate to one quantum.
    const double raw = demand.demand(flows[f].source, flows[f].destination);
    EXPECT_LE(std::abs(demands[f] - raw), raw < q / 2 ? q : q / 2) << f;
  }
  ASSERT_EQ(flows[0].source, 0u);
  ASSERT_EQ(flows[0].destination, 1u);
  EXPECT_EQ(demands[0], q);  // the tiny demand stays positive

  EXPECT_EQ(analysis::demand_quantum(TrafficMatrix(g.node_count())), 0.0);
}

TEST(DemandGrid, OfferedVolumeIsOrderIndependent) {
  const auto g = topo::geant();
  graph::Rng rng(5);
  const auto demand = traffic::hotspot_demand(g, 1e6, 3, 0.3, rng);
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  const double offered = analysis::collect_demand_flows(demand, flows, demands);
  double reversed = 0.0;
  for (auto it = demands.rbegin(); it != demands.rend(); ++it) reversed += *it;
  EXPECT_EQ(offered, reversed);
}

TEST(DemandGrid, SweepsRejectDemandTheGridCannotHoldExactly) {
  // default_ttl = 4 * edges + 16: parallel edges raise it past 2^17 hops on
  // a tiny graph, so offered/q (>= 2^35) times ttl reaches 2^53.
  const auto multigraph = [](std::size_t parallel) {
    graph::Graph g;
    for (int i = 0; i < 3; ++i) g.add_node();
    g.add_edge(1, 2);
    for (std::size_t k = 0; k < parallel; ++k) g.add_edge(0, 1);
    return g;
  };
  // The guard fires before any protocol instance is made.
  const std::vector<analysis::NamedFactory> protocols = {
      {"unused", [](const net::Network&) -> std::unique_ptr<net::ForwardingProtocol> {
         throw std::logic_error("protocol built before validation");
       }}};

  const graph::Graph big = multigraph(1U << 16);
  const auto demand = traffic::uniform_demand(big, 1e6);
  const auto plan = CapacityPlan::uniform(big, 1e6);
  EXPECT_THROW(analysis::validate_demand_sweep("test", big, demand, plan, protocols),
               analysis::DemandGridOverflow);
  EXPECT_THROW((void)analysis::run_traffic_experiment(big, demand, plan, {}, protocols),
               analysis::DemandGridOverflow);

  // Below 2^17 hops the same demand fits.
  const graph::Graph fits = multigraph(32000);
  EXPECT_NO_THROW(analysis::validate_demand_sweep(
      "test", fits, traffic::uniform_demand(fits, 1e6), CapacityPlan::uniform(fits, 1e6),
      protocols));
}

// ---------------------------------------------------------------------------
// FlowIncidenceIndex

TEST(FlowIncidenceIndex, RecordsPathsIncidenceAndPristineLoad) {
  // Path A-B-C under plain SPF: every structure the index caches is small
  // enough to check by hand.
  graph::Graph g;
  const auto a = g.add_node("A");
  const auto b = g.add_node("B");
  const auto c = g.add_node("C");
  const auto e_ab = g.add_edge(a, b);
  const auto e_bc = g.add_edge(b, c);

  const route::RoutingDb routes(g);
  route::StaticSpf spf(routes);
  const net::Network network(g);

  const std::vector<sim::FlowSpec> flows{{a, c}, {c, a}, {a, b}};
  const std::vector<double> demands{100.0, 40.0, 7.0};

  FlowIncidenceIndex index;
  EXPECT_FALSE(index.built());
  index.build(network, spf, flows, demands);
  ASSERT_TRUE(index.built());
  EXPECT_EQ(index.flow_count(), 3u);
  EXPECT_EQ(index.dart_count(), g.dart_count());

  const graph::DartId ab = g.dart_from(a, e_ab);
  const graph::DartId ba = g.dart_from(b, e_ab);
  const graph::DartId bc = g.dart_from(b, e_bc);
  const graph::DartId cb = g.dart_from(c, e_bc);

  ASSERT_EQ(index.flow_darts(0).size(), 2u);
  EXPECT_EQ(index.flow_darts(0)[0], ab);
  EXPECT_EQ(index.flow_darts(0)[1], bc);
  ASSERT_EQ(index.flow_darts(1).size(), 2u);
  EXPECT_EQ(index.flow_darts(1)[0], cb);
  EXPECT_EQ(index.flow_darts(1)[1], ba);
  ASSERT_EQ(index.flow_darts(2).size(), 1u);
  EXPECT_EQ(index.flow_darts(2)[0], ab);

  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_TRUE(index.pristine_delivered(f)) << f;
  }

  // Reverse incidence: sorted flow ids per dart.
  ASSERT_EQ(index.dart_flows(ab).size(), 2u);
  EXPECT_EQ(index.dart_flows(ab)[0], 0u);
  EXPECT_EQ(index.dart_flows(ab)[1], 2u);
  ASSERT_EQ(index.dart_flows(bc).size(), 1u);
  EXPECT_EQ(index.dart_flows(bc)[0], 0u);
  ASSERT_EQ(index.dart_flows(cb).size(), 1u);
  EXPECT_EQ(index.dart_flows(cb)[0], 1u);

  // The cached pristine load is exactly what the demand-weighted batch
  // accumulates.
  EXPECT_DOUBLE_EQ(index.pristine_load().load(ab), 107.0);
  EXPECT_DOUBLE_EQ(index.pristine_load().load(bc), 100.0);
  EXPECT_DOUBLE_EQ(index.pristine_load().load(cb), 40.0);
  EXPECT_DOUBLE_EQ(index.pristine_load().load(ba), 40.0);

  // Affected-flow probe: failing B-C touches both A<->C flows but not A->B.
  std::vector<std::uint8_t> mark;
  std::vector<std::uint32_t> affected;
  graph::EdgeSet failures(g.edge_count());
  failures.insert(e_bc);
  index.affected_flows(failures, mark, affected);
  ASSERT_EQ(affected.size(), 2u);
  EXPECT_EQ(affected[0], 0u);
  EXPECT_EQ(affected[1], 1u);
  EXPECT_NE(mark[0], 0);
  EXPECT_NE(mark[1], 0);
  EXPECT_EQ(mark[2], 0);

  // Reusing the pair clears exactly the previous probe's marks.
  index.affected_flows(graph::EdgeSet(g.edge_count()), mark, affected);
  EXPECT_TRUE(affected.empty());
  EXPECT_EQ(mark, std::vector<std::uint8_t>(flows.size(), 0));

  // A pair sized for another flow universe is re-zeroed in full.
  std::vector<std::uint8_t> stale(5, 1);
  std::vector<std::uint32_t> stale_out;
  index.affected_flows(failures, stale, stale_out);
  EXPECT_EQ(stale, (std::vector<std::uint8_t>{1, 1, 0}));
  EXPECT_EQ(stale_out, (std::vector<std::uint32_t>{0, 1}));

  EXPECT_EQ(index.pristine_delivered_pps(), 147.0);
  EXPECT_TRUE(index.pristine_undelivered().empty());
}

TEST(FlowIncidenceIndex, RejectsFailedNetworksAndBadDemands) {
  const auto g = graph::ring(4);
  const route::RoutingDb routes(g);
  route::StaticSpf spf(routes);
  const std::vector<sim::FlowSpec> flows{{0, 2}};
  FlowIncidenceIndex index;

  net::Network failed(g);
  failed.fail_link(0);
  EXPECT_THROW(index.build(failed, spf, flows, std::vector<double>{1.0}),
               std::invalid_argument);

  const net::Network pristine(g);
  EXPECT_THROW(index.build(pristine, spf, flows, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LoadMap diff helper

TEST(LoadMapDiff, ReportsIdentityDeltasAndSizeMismatch) {
  LoadMap a(4);
  a.add(1, 10.0);
  a.add(3, 2.5);
  LoadMap b = a;

  const auto same = traffic::diff(a, b);
  EXPECT_TRUE(same.identical());
  EXPECT_EQ(same.darts_compared, 4u);
  EXPECT_EQ(same.differing, 0u);
  EXPECT_EQ(same.worst_dart, graph::kInvalidDart);
  EXPECT_DOUBLE_EQ(same.max_abs_delta, 0.0);

  b.add(1, 0.25);
  b.add(2, 1.0);
  const auto d = traffic::diff(a, b);
  EXPECT_FALSE(d.identical());
  EXPECT_EQ(d.differing, 2u);
  EXPECT_EQ(d.worst_dart, 2u);  // |0 - 1| beats |10 - 10.25|
  EXPECT_DOUBLE_EQ(d.max_abs_delta, 1.0);

  const auto mismatch = traffic::diff(a, LoadMap(3));
  EXPECT_TRUE(mismatch.size_mismatch);
  EXPECT_FALSE(mismatch.identical());
  EXPECT_EQ(mismatch.darts_compared, 0u);
}

// ---------------------------------------------------------------------------
// Incremental vs full-re-route equivalence

void expect_identical_results(const analysis::TrafficExperimentResult& oracle,
                              const analysis::TrafficExperimentResult& incremental,
                              const char* tag) {
  ASSERT_EQ(incremental.protocols.size(), oracle.protocols.size()) << tag;
  EXPECT_EQ(incremental.scenarios, oracle.scenarios) << tag;
  EXPECT_EQ(incremental.flows_per_scenario, oracle.flows_per_scenario) << tag;
  for (std::size_t i = 0; i < oracle.protocols.size(); ++i) {
    const auto& full = oracle.protocols[i];
    const auto& inc = incremental.protocols[i];
    EXPECT_EQ(inc.name, full.name) << tag;
    // Bit-identical doubles, not approximate equality: on-grid demand makes
    // every per-cell sum exact, whatever order the delta cell adds it in.
    EXPECT_EQ(inc.per_scenario, full.per_scenario) << full.name << " " << tag;
    EXPECT_EQ(inc.total_load.load, full.total_load.load) << full.name << " " << tag;
    EXPECT_EQ(inc.total_load.scenarios, full.total_load.scenarios)
        << full.name << " " << tag;
    EXPECT_EQ(inc.summary(), full.summary()) << full.name << " " << tag;
    // And the diff helper agrees there is nothing to report.
    EXPECT_TRUE(traffic::diff(inc.total_load.load, full.total_load.load).identical())
        << full.name << " " << tag;
    EXPECT_LE(inc.rerouted_flows, full.rerouted_flows) << full.name << " " << tag;
  }
}

std::vector<analysis::NamedFactory> all_factories(const analysis::ProtocolSuite& s) {
  return {s.pr(),  s.pr_single_bit(),       s.lfa(), s.lfa_node_protecting(),
          s.fcp(), s.reconvergence(),       s.spf()};
}

TEST(TrafficIncremental, BitIdenticalToFullRerouteAcrossMatricesAndProtocols) {
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto protocols = all_factories(suite);
  const auto plan = CapacityPlan::uniform(g, 2.5e5);

  auto scenarios = net::all_single_failures(g);
  graph::Rng rng(3);
  for (auto& s : net::sample_any_failures(g, 2, 6, rng)) {
    scenarios.push_back(std::move(s));
  }

  graph::Rng demand_rng(graph::split_seed(3, 7));
  const std::vector<std::pair<const char*, TrafficMatrix>> matrices = {
      {"uniform", traffic::uniform_demand(g, 1e6)},
      {"gravity", traffic::gravity_demand(g, 1e6)},
      {"hotspot", traffic::hotspot_demand(g, 1e6, 2, 0.5, demand_rng)},
  };

  for (const auto& [tag, demand] : matrices) {
    const auto oracle = analysis::run_traffic_experiment(
        g, demand, plan, scenarios, protocols, TrafficSweepMode::kFullReroute);
    EXPECT_EQ(oracle.mode, TrafficSweepMode::kFullReroute);
    const auto incremental = analysis::run_traffic_experiment(
        g, demand, plan, scenarios, protocols, TrafficSweepMode::kIncremental);
    EXPECT_EQ(incremental.mode, TrafficSweepMode::kIncremental);
    expect_identical_results(oracle, incremental, tag);

    // Full mode routes everything; incremental routes a strict subset on a
    // single-link-dominated sweep.
    for (const auto& p : oracle.protocols) {
      EXPECT_EQ(p.rerouted_flows, oracle.scenarios * oracle.flows_per_scenario);
      EXPECT_DOUBLE_EQ(oracle.rerouted_fraction(p), 1.0);
    }
    for (const auto& p : incremental.protocols) {
      EXPECT_GT(p.rerouted_flows, 0u) << p.name;
      EXPECT_LT(incremental.rerouted_fraction(p), 1.0) << p.name;
    }
  }
}

TEST(TrafficIncremental, BitIdenticalAcrossThreadCounts) {
  const auto g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const std::vector<analysis::NamedFactory> protocols = {
      suite.pr(), suite.lfa(), suite.reconvergence(), suite.fcp()};
  const auto demand = traffic::gravity_demand(g, 1e6);
  const auto plan = CapacityPlan::uniform(g, 2.5e5);
  const auto scenarios = net::all_single_failures(g);

  const auto oracle = analysis::run_traffic_experiment(
      g, demand, plan, scenarios, protocols, TrafficSweepMode::kFullReroute);
  for (const std::size_t threads : {1U, 2U, 8U}) {
    sim::SweepExecutor executor(threads);
    const auto incremental = analysis::run_traffic_experiment(
        g, demand, plan, scenarios, protocols, executor,
        TrafficSweepMode::kIncremental);
    expect_identical_results(oracle, incremental, "threads");
    // The per-worker probe counts fold deterministically too.
    const auto one_thread_inc = analysis::run_traffic_experiment(
        g, demand, plan, scenarios, protocols, TrafficSweepMode::kIncremental);
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      EXPECT_EQ(incremental.protocols[i].rerouted_flows,
                one_thread_inc.protocols[i].rerouted_flows)
          << protocols[i].name << " @ " << threads;
    }
  }
}

TEST(TrafficIncremental, PartitioningDualFailuresStayIdentical) {
  // Ring duals partition the graph, so stranded classification rides through
  // the incremental path on every scenario.
  const auto g = graph::ring(6);
  const analysis::ProtocolSuite suite(g);
  const std::vector<analysis::NamedFactory> protocols = {
      suite.pr(), suite.fcp(), suite.reconvergence()};
  const auto demand = traffic::uniform_demand(g, 6e5);
  const auto plan = CapacityPlan::uniform(g, 1e5);
  const auto scenarios = net::enumerate_failures(g, 2);

  const auto oracle = analysis::run_traffic_experiment(
      g, demand, plan, scenarios, protocols, TrafficSweepMode::kFullReroute);
  const auto incremental = analysis::run_traffic_experiment(
      g, demand, plan, scenarios, protocols, TrafficSweepMode::kIncremental);
  expect_identical_results(oracle, incremental, "ring duals");

  double stranded = 0.0;
  for (const auto& p : incremental.protocols) stranded += p.summary().stranded_pps;
  EXPECT_GT(stranded, 0.0);  // the partitions really were exercised

  sim::SweepExecutor executor(2);
  expect_identical_results(
      oracle,
      analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                       executor, TrafficSweepMode::kIncremental),
      "ring duals @ 2");
}

TEST(TrafficIncremental, PristineUndeliveredFlowsMatchTheOracle) {
  // Two triangles joined by nothing: every cross-component flow is dropped
  // in the pristine network already, so the delta cell must classify it from
  // the index's pristine_undelivered() list in every scenario.
  graph::Graph g;
  for (int i = 0; i < 6; ++i) g.add_node();
  for (const graph::NodeId base : {0U, 3U}) {
    g.add_edge(base, base + 1);
    g.add_edge(base + 1, base + 2);
    g.add_edge(base, base + 2, 3.0);
  }
  const analysis::ProtocolSuite suite(g);
  const std::vector<analysis::NamedFactory> protocols = {
      suite.pr(), suite.lfa(), suite.reconvergence(), suite.spf()};
  const auto demand = traffic::gravity_demand(g, 6e5);
  const auto plan = CapacityPlan::uniform(g, 1e5);
  auto scenarios = net::all_single_failures(g);
  for (auto& s : net::enumerate_failures(g, 2)) scenarios.push_back(std::move(s));

  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);
  const net::Network pristine(g);
  const auto spf = suite.spf().make(pristine);
  FlowIncidenceIndex index;
  index.build(pristine, *spf, flows, demands);
  EXPECT_EQ(index.pristine_undelivered().size(), 18u);  // 2 * 3 * 3 cross pairs

  const auto oracle = analysis::run_traffic_experiment(
      g, demand, plan, scenarios, protocols, TrafficSweepMode::kFullReroute);
  for (const auto& p : oracle.protocols) {
    EXPECT_GT(p.summary().stranded_pps, 0.0) << p.name;
  }
  for (const std::size_t threads : {1U, 2U, 8U}) {
    sim::SweepExecutor executor(threads);
    expect_identical_results(
        oracle,
        analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                         executor, TrafficSweepMode::kIncremental),
        "two components");
  }
}

TEST(TrafficIncremental, ChargingOrderDoesNotChangeTheLoad) {
  // Metamorphic: on-grid demand charged in reverse flow order -- through a
  // failure that sends PR packets round cycles -- fills the same bits.
  const auto g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  graph::Rng rng(9);
  const auto demand = traffic::hotspot_demand(g, 1e6, 2, 0.5, rng);
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);
  const std::vector<sim::FlowSpec> flows_rev(flows.rbegin(), flows.rend());
  const std::vector<double> demands_rev(demands.rbegin(), demands.rend());

  for (const graph::EdgeId failed : {0U, 7U, 20U}) {
    net::Network network(g);
    network.fail_link(failed);
    const auto pr = suite.pr().make(network);
    LoadMap forward;
    LoadMap reverse;
    sim::BatchResult batch;
    sim::route_batch(network, *pr, flows, demands, forward, sim::TraceMode::kStats,
                     batch);
    sim::route_batch(network, *pr, flows_rev, demands_rev, reverse,
                     sim::TraceMode::kStats, batch);
    EXPECT_EQ(forward, reverse) << "edge " << failed;
    EXPECT_TRUE(traffic::diff(forward, reverse).identical()) << "edge " << failed;
  }
}

TEST(TrafficIncremental, ScenarioTouchingNoPristinePathReroutesZeroFlows) {
  // Triangle with one expensive edge: no pristine shortest path crosses it,
  // so failing it must re-route nothing -- the pristine cell is the answer --
  // while the metrics still match the full oracle bit for bit.
  graph::Graph g;
  const auto a = g.add_node("A");
  const auto b = g.add_node("B");
  const auto c = g.add_node("C");
  g.add_edge(a, b, 1.0);
  g.add_edge(b, c, 1.0);
  const auto e_heavy = g.add_edge(a, c, 10.0);

  const analysis::ProtocolSuite suite(g);
  const auto protocols = all_factories(suite);
  const auto demand = traffic::uniform_demand(g, 6000.0);
  const auto plan = CapacityPlan::uniform(g, 1e4);

  std::vector<graph::EdgeSet> scenarios(1, graph::EdgeSet(g.edge_count()));
  scenarios[0].insert(e_heavy);

  const auto oracle = analysis::run_traffic_experiment(
      g, demand, plan, scenarios, protocols, TrafficSweepMode::kFullReroute);
  const auto incremental = analysis::run_traffic_experiment(
      g, demand, plan, scenarios, protocols, TrafficSweepMode::kIncremental);
  expect_identical_results(oracle, incremental, "no-op failure");
  for (const auto& p : incremental.protocols) {
    EXPECT_EQ(p.rerouted_flows, 0u) << p.name;
    EXPECT_DOUBLE_EQ(incremental.rerouted_fraction(p), 0.0) << p.name;
    // Nothing was affected, so every scenario row equals the pristine price.
    ASSERT_EQ(p.per_scenario.size(), 1u);
    EXPECT_DOUBLE_EQ(p.per_scenario[0].delivered_pps, 6000.0) << p.name;
    EXPECT_DOUBLE_EQ(p.per_scenario[0].lost_pps, 0.0) << p.name;
  }
}

TEST(TrafficIncremental, RandomTopologiesMatchAcrossGeneratedWorkloads) {
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    graph::Rng rng(seed);
    const graph::Graph g = graph::random_two_edge_connected(10, 6, rng);
    const analysis::ProtocolSuite suite(g);
    const std::vector<analysis::NamedFactory> protocols = {
        suite.pr(), suite.lfa(), suite.reconvergence(), suite.fcp()};

    graph::Rng demand_rng(graph::split_seed(seed, 42));
    const auto demand = traffic::hotspot_demand(g, 5e5, 2, 0.4, demand_rng);
    const auto plan = CapacityPlan::from_weights(g, 1e4);

    auto scenarios = net::all_single_failures(g);
    for (auto& s : net::sample_any_failures(g, 2, 6, rng)) {
      scenarios.push_back(std::move(s));
    }

    const auto oracle = analysis::run_traffic_experiment(
        g, demand, plan, scenarios, protocols, TrafficSweepMode::kFullReroute);
    sim::SweepExecutor executor(8);
    expect_identical_results(
        oracle,
        analysis::run_traffic_experiment(g, demand, plan, scenarios, protocols,
                                         executor, TrafficSweepMode::kIncremental),
        "random topo");
  }
}

}  // namespace
}  // namespace pr
