// Parity suite for the batched forwarding engine (sim/forwarding_engine.hpp).
//
// The engine is only allowed to be fast, not different: for every protocol,
// topology and failure set, route_batch must report bit-identical delivery
// status, drop reason, hop count, cost, (in full-trace mode) node sequence
// and demand-weighted load to the per-hop walk, although it stops asking the
// protocol once a looping flow's state repeats (the orbit rule).  The event
// simulator must agree with both because all three share the same hop core.
#include "sim/forwarding_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/protocols.hpp"
#include "core/policy.hpp"
#include "core/pr_protocol.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/event_sim.hpp"
#include "net/failure_model.hpp"
#include "net/storm_model.hpp"
#include "obs/telemetry.hpp"
#include "route/fcp.hpp"
#include "route/reconvergence.hpp"
#include "topo/topologies.hpp"

namespace pr {
namespace {

using sim::BatchResult;
using sim::FlowSpec;
using sim::TraceMode;

/// Every protocol the library ships, built over `suite`.
std::vector<analysis::NamedFactory> all_protocols(const analysis::ProtocolSuite& suite) {
  return {suite.spf(),          suite.reconvergence(), suite.fcp(),
          suite.lfa(),          suite.pr(),            suite.pr_single_bit()};
}

std::vector<FlowSpec> all_ordered_pairs(const graph::Graph& g) {
  return sim::all_pairs_flows(g);
}

/// Small multiples of a power of two: every per-dart sum is exact, so the
/// orbit's crossings x demand must equal the per-hop additions bit for bit.
std::vector<double> grid_demands(std::size_t flows) {
  std::vector<double> demands(flows);
  for (std::size_t f = 0; f < flows; ++f) demands[f] = 0.25 * static_cast<double>(f % 7 + 1);
  return demands;
}

/// The per-hop charge: every flow walks through ForwardingEngine::run -- the
/// walk net::route_packet wraps -- and adds its demand at every hop.
traffic::LoadMap per_hop_load(const net::Network& network, net::ForwardingProtocol& protocol,
                              const std::vector<FlowSpec>& flows,
                              const std::vector<double>& demands) {
  const graph::Graph& g = network.graph();
  const sim::ForwardingEngine engine(network, protocol);
  traffic::LoadMap load(g.dart_count());
  sim::FlowState fs;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    fs.reset(flows[f].source, flows[f].destination,
             flows[f].ttl == 0 ? net::default_ttl(g) : flows[f].ttl);
    (void)engine.run(fs, [&](graph::NodeId) { load.add(fs.arrived_over, demands[f]); });
  }
  return load;
}

/// Counts the forward() calls that reach `inner`; passes the orbit trait
/// through, as analysis::ProtocolSuite's borrowing adapter does.
class CallCounter final : public net::ForwardingProtocol {
 public:
  explicit CallCounter(net::ForwardingProtocol& inner) : inner_(&inner) {}

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, graph::NodeId at,
                                                graph::DartId arrived_over,
                                                net::Packet& packet) override {
    ++calls_;
    return inner_->forward(net, at, arrived_over, packet);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] bool header_determines_path() const noexcept override {
    return inner_->header_determines_path();
  }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

 private:
  net::ForwardingProtocol* inner_;
  std::uint64_t calls_ = 0;
};

/// Routes `flows` with the legacy walker and with route_batch (both trace
/// modes and the demand-weighted overload), asserting identical outcomes
/// flow by flow and an identical load map.
void expect_parity(const net::Network& network, const analysis::NamedFactory& factory,
                   const std::vector<FlowSpec>& flows) {
  // Each side gets its own fresh instance and sees the flows in the same
  // order, so even stateful protocols (FCP's SPF cache) are comparable.
  const auto legacy_proto = factory.make(network);
  std::vector<net::PathTrace> legacy;
  legacy.reserve(flows.size());
  for (const auto& flow : flows) {
    legacy.push_back(
        net::route_packet(network, *legacy_proto, flow.source, flow.destination));
  }

  const auto stats_proto = factory.make(network);
  const BatchResult stats = sim::route_batch(network, *stats_proto, flows);
  const auto traced_proto = factory.make(network);
  const BatchResult traced =
      sim::route_batch(network, *traced_proto, flows, TraceMode::kFullTrace);
  const std::vector<double> demands = grid_demands(flows.size());
  const auto weighted_proto = factory.make(network);
  BatchResult weighted;
  traffic::LoadMap load;
  sim::route_batch(network, *weighted_proto, flows, demands, load, TraceMode::kStats,
                   weighted);
  const auto oracle_proto = factory.make(network);
  const traffic::LoadMapDiff load_diff =
      traffic::diff(load, per_hop_load(network, *oracle_proto, flows, demands));
  EXPECT_TRUE(load_diff.identical())
      << "protocol " << factory.name << ": " << load_diff.differing
      << " darts differ from the per-hop charge, worst " << load_diff.worst_dart;

  ASSERT_EQ(stats.size(), flows.size());
  ASSERT_EQ(traced.size(), flows.size());
  ASSERT_EQ(weighted.size(), flows.size());
  std::size_t delivered = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    SCOPED_TRACE("protocol " + factory.name + ", flow " + std::to_string(f) + " (" +
                 std::to_string(flows[f].source) + " -> " +
                 std::to_string(flows[f].destination) + ")");
    for (const BatchResult* batch : {&stats, &traced, &std::as_const(weighted)}) {
      EXPECT_EQ((*batch)[f].status, legacy[f].status);
      EXPECT_EQ((*batch)[f].drop_reason, legacy[f].drop_reason);
      EXPECT_EQ((*batch)[f].hops, legacy[f].hops);
      EXPECT_EQ((*batch)[f].cost, legacy[f].cost);  // bitwise: same additions
    }
    EXPECT_TRUE(stats.nodes(f).empty());  // stats mode records no sequences
    EXPECT_TRUE(stats.darts(f).empty());
    const auto nodes = traced.nodes(f);
    ASSERT_EQ(nodes.size(), legacy[f].nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(nodes[i], legacy[f].nodes[i]);
    }
    // The dart trace is the same walk seen as interfaces: one dart per hop,
    // each connecting the consecutive node pair.
    const auto darts = traced.darts(f);
    ASSERT_EQ(darts.size(), nodes.size() - 1);
    for (std::size_t i = 0; i < darts.size(); ++i) {
      EXPECT_EQ(network.graph().dart_tail(darts[i]), nodes[i]);
      EXPECT_EQ(network.graph().dart_head(darts[i]), nodes[i + 1]);
    }
    if (legacy[f].delivered()) ++delivered;
  }
  EXPECT_EQ(stats.delivered_count(), delivered);
  EXPECT_EQ(stats.dropped_count(), flows.size() - delivered);
  EXPECT_EQ(traced.delivered_count(), delivered);
}

TEST(RouteBatchParity, AbileneAllProtocolsAcrossFailureSets) {
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const auto flows = all_ordered_pairs(g);

  graph::Rng rng(0xBA7C4);
  for (std::size_t failures : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
    net::Network network(g);
    for (std::size_t k = 0; k < failures; ++k) {
      network.fail_link(static_cast<graph::EdgeId>(rng.below(g.edge_count())));
    }
    for (const auto& factory : all_protocols(suite)) {
      expect_parity(network, factory, flows);
    }
  }
}

TEST(RouteBatchParity, RandomTopologiesWithArbitraryFailures) {
  graph::Rng rng(0x5EED);
  for (int round = 0; round < 4; ++round) {
    const auto n = static_cast<std::size_t>(8 + 2 * round);
    const graph::Graph g = graph::random_two_edge_connected(n, n / 2, rng);
    const analysis::ProtocolSuite suite(g);
    const auto flows = all_ordered_pairs(g);

    // Arbitrary failure sets -- possibly disconnecting, so drop parity
    // (status AND reason) is exercised, not just the happy path.
    net::Network network(g);
    const std::size_t failures = 1 + rng.below(3);
    for (std::size_t k = 0; k < failures; ++k) {
      network.fail_link(static_cast<graph::EdgeId>(rng.below(g.edge_count())));
    }
    for (const auto& factory : all_protocols(suite)) {
      expect_parity(network, factory, flows);
    }
  }
}

/// GEANT with every edge of the given geographic_srlgs(g, 2) groups failed:
/// storm-geant's site-wide conduit cuts, each of which isolates its anchor
/// node, so PR and LFA packets bound across the cut loop until TTL.
net::Network geant_storm(const graph::Graph& g, const std::vector<std::size_t>& groups) {
  const net::SrlgCatalog catalog = net::geographic_srlgs(g, 2);
  net::Network network(g);
  for (const std::size_t group : groups) {
    for (const graph::EdgeId e : catalog.members(group)) network.fail_link(e);
  }
  return network;
}

/// Forward() calls a per-hop walk makes for `batch`: one per hop, plus one
/// for every drop the protocol (not the TTL guard) decided.
std::uint64_t per_hop_decisions(const BatchResult& batch) {
  std::uint64_t decisions = 0;
  for (const sim::FlowStats& s : batch.stats()) {
    decisions += s.hops;
    if (!s.delivered() && s.drop_reason != net::DropReason::kTtlExpired) ++decisions;
  }
  return decisions;
}

TEST(RouteBatchParity, PartitionedGeantUnderGeographicSrlgs) {
  const graph::Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  const auto flows = all_ordered_pairs(g);
  const std::vector<std::vector<std::size_t>> storms{{0}, {5, 17}, {11, 23, 30}};
  for (const auto& groups : storms) {
    const net::Network network = geant_storm(g, groups);
    const auto component = graph::connected_components(g, &network.failed_links());
    ASSERT_GT(*std::max_element(component.begin(), component.end()), 0U)
        << "every radius-2 bundle isolates its anchor";
    for (const auto& factory : {suite.pr(), suite.pr_single_bit(), suite.lfa(),
                                suite.reconvergence()}) {
      expect_parity(network, factory, flows);
    }
  }
}

TEST(RouteBatchParity, Section43OneBitLoop) {
  // Figure 1 with D-E and B-C down: the paper's motivation for the DD bits.
  // Without them the packet from A to F returns to the shortest path and
  // meets D->E forever.
  const graph::Graph g = topo::figure1();
  const core::CycleFollowingTable cycles(topo::figure1_rotation(g));
  const route::RoutingDb routes(g);
  const auto node = [&g](const char* label) { return *g.find_node(label); };
  net::Network network(g);
  network.fail_link(*g.find_edge(node("D"), node("E")));
  network.fail_link(*g.find_edge(node("B"), node("C")));
  const analysis::NamedFactory one_bit{"pr-1bit", [&](const net::Network&) {
                                         return std::make_unique<core::PacketRecycling>(
                                             routes, cycles, core::PrVariant::kSingleBit);
                                       }};
  expect_parity(network, one_bit, all_ordered_pairs(g));

  core::PacketRecycling pr(routes, cycles, core::PrVariant::kSingleBit);
  CallCounter counted(pr);
  const std::vector<FlowSpec> a_to_f{FlowSpec{node("A"), node("F")}};
  const BatchResult batch = sim::route_batch(network, counted, a_to_f);
  EXPECT_EQ(batch[0].drop_reason, net::DropReason::kTtlExpired);
  EXPECT_EQ(batch[0].hops, net::default_ttl(g));
  EXPECT_LT(counted.calls(), batch[0].hops / 4);  // the orbit was not walked
}

TEST(RouteBatch, OnlyOrbitProtocolsSkipDecisions) {
  const graph::Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  const net::Network network = geant_storm(g, {0});
  const auto flows = all_ordered_pairs(g);

  // PR skips the decisions of its loops...
  const auto pr = suite.pr().make(network);
  ASSERT_TRUE(pr->header_determines_path());
  CallCounter counted_pr(*pr);
  const BatchResult pr_batch = sim::route_batch(network, counted_pr, flows);
  EXPECT_LT(counted_pr.calls(), per_hop_decisions(pr_batch));

  // ...while protocols outside the orbit contract are asked at every hop --
  // including PolicyGatedRecycling, whose loops are PR's, hop for hop.
  route::FcpRouting fcp(g);
  route::TimedReconvergence before(network, suite.routes());
  route::TimedReconvergence after(network, suite.routes());
  after.complete_convergence();
  core::PolicyGatedRecycling gated(suite.routes(), suite.cycle_table(),
                                   core::TrafficClassPolicy::all());
  for (net::ForwardingProtocol* protocol :
       std::initializer_list<net::ForwardingProtocol*>{&fcp, &before, &after, &gated}) {
    SCOPED_TRACE(std::string(protocol->name()));
    EXPECT_FALSE(protocol->header_determines_path());
    CallCounter counted(*protocol);
    const BatchResult batch = sim::route_batch(network, counted, flows);
    EXPECT_EQ(counted.calls(), per_hop_decisions(batch));
    if (protocol == &gated) {
      for (std::size_t f = 0; f < flows.size(); ++f) {
        EXPECT_EQ(batch[f].hops, pr_batch[f].hops);
        EXPECT_EQ(batch[f].cost, pr_batch[f].cost);
      }
    }
  }
}

TEST(RouteBatch, OrbitChargeIsExactAndDecisionsDoNotGrowWithTtl) {
  const graph::Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);
  const net::Network network = geant_storm(g, {0});
  // The first flow PR loops on until its TTL expires.
  FlowSpec looping;
  {
    const auto pr = suite.pr().make(network);
    for (const FlowSpec& flow : all_ordered_pairs(g)) {
      if (net::route_packet(network, *pr, flow.source, flow.destination).drop_reason ==
          net::DropReason::kTtlExpired) {
        looping = flow;
        break;
      }
    }
  }
  ASSERT_NE(looping.source, graph::kInvalidNode);

  const double demand = 0.75;
  const std::uint32_t base = net::default_ttl(g);
  std::vector<std::uint64_t> calls;
  for (const std::uint32_t ttl : {base, 2 * base, 7 * base + 3}) {
    SCOPED_TRACE("ttl " + std::to_string(ttl));
    looping.ttl = ttl;
    const std::vector<FlowSpec> one{looping};
    const auto pr = suite.pr().make(network);
    CallCounter counted(*pr);
    obs::Counters counters;
    BatchResult batch;
    traffic::LoadMap load;
    {
      obs::ScopedSink sink(&counters);
      sim::route_batch(network, counted, one, std::vector<double>{demand}, load,
                       TraceMode::kStats, batch);
    }
    EXPECT_EQ(batch[0].drop_reason, net::DropReason::kTtlExpired);
    EXPECT_EQ(batch[0].hops, ttl);
    const auto oracle_proto = suite.pr().make(network);
    const net::PathTrace walk = net::route_packet(network, *oracle_proto, looping.source,
                                                  looping.destination, ttl);
    EXPECT_EQ(batch[0].cost, walk.cost);

    // Crossings per dart, counted on the per-hop walk.
    std::map<graph::DartId, std::uint64_t> crossings;
    for (std::size_t i = 0; i + 1 < walk.nodes.size(); ++i) {
      ++crossings[*g.find_dart(walk.nodes[i], walk.nodes[i + 1])];
    }
    for (graph::DartId d = 0; d < g.dart_count(); ++d) {
      const auto it = crossings.find(d);
      const double expected =
          it == crossings.end() ? 0.0 : static_cast<double>(it->second) * demand;
      EXPECT_EQ(load.load(d), expected) << "dart " << g.dart_name(d);
    }
    calls.push_back(counted.calls());
#if !defined(PR_OBS_DISABLED)
#ifdef NDEBUG
    const std::uint64_t self_checks = 0;
#else
    const std::uint64_t self_checks = 1;  // the orbit self-check's own call
#endif
    EXPECT_EQ(counters.get(obs::Counter::kForwardDecisions) + self_checks, counted.calls());
    EXPECT_EQ(counters.get(obs::Counter::kForwardHops), ttl);
#endif
  }
  EXPECT_LT(calls[0], base / 2);
  EXPECT_EQ(calls[1], calls[0]);
  EXPECT_EQ(calls[2], calls[0]);
}

/// Claims the orbit contract but breaks it: round a ring it turns the other
/// way on its last hop, a decision that reads the ttl.
class TtlReader final : public net::ForwardingProtocol {
 public:
  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, graph::NodeId at,
                                                graph::DartId /*arrived_over*/,
                                                net::Packet& packet) override {
    const std::size_t ring = net.graph().node_count() - 1;
    const graph::NodeId next = static_cast<graph::NodeId>(
        packet.ttl == 1 ? (at + ring - 1) % ring : (at + 1) % ring);
    return net::ForwardingDecision::forward(*net.graph().find_dart(at, next));
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "ttl-reader"; }
  [[nodiscard]] bool header_determines_path() const noexcept override { return true; }
};

TEST(RouteBatch, DebugSelfCheckRejectsAProtocolThatBreaksTheOrbitContract) {
#ifdef NDEBUG
  GTEST_SKIP() << "the orbit self-check is compiled into Debug builds only";
#else
  // A 4-node ring plus an unreachable destination.
  graph::Graph g(5);
  for (graph::NodeId v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);
  const graph::EdgeId cut = g.add_edge(0, 4);
  net::Network network(g);
  network.fail_link(cut);
  TtlReader liar;
  const std::vector<FlowSpec> flows{FlowSpec{0, 4}};
  EXPECT_NO_THROW((void)net::route_packet(network, liar, 0, 4));
  try {
    (void)sim::route_batch(network, liar, flows);
    ADD_FAILURE() << "route_batch trusted a protocol that reads the ttl";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("ttl-reader"), std::string::npos) << e.what();
  }
#endif
}

TEST(RouteBatchParity, EventSimulatorAgreesWithSharedCore) {
  // With static link state, a timed flight must land exactly where the
  // synchronous walk does: same status, hops, cost and node sequence.
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  net::Network network(g);
  network.fail_link(0);
  network.fail_link(3);

  for (const auto& factory : all_protocols(suite)) {
    const auto sync_proto = factory.make(network);
    const auto timed_proto = factory.make(network);
    for (graph::NodeId s = 0; s < g.node_count(); ++s) {
      for (graph::NodeId t = 0; t < g.node_count(); ++t) {
        if (s == t) continue;
        const auto expected = net::route_packet(network, *sync_proto, s, t);
        net::Simulator sim_driver;
        bool completed = false;
        net::launch_packet(sim_driver, network, *timed_proto, s, t, /*start=*/0.0,
                           [&](const net::PathTrace& trace) {
                             completed = true;
                             EXPECT_EQ(trace.status, expected.status);
                             EXPECT_EQ(trace.drop_reason, expected.drop_reason);
                             EXPECT_EQ(trace.hops, expected.hops);
                             EXPECT_DOUBLE_EQ(trace.cost, expected.cost);
                             EXPECT_EQ(trace.nodes, expected.nodes);
                           });
        sim_driver.run();
        EXPECT_TRUE(completed) << factory.name << " " << s << "->" << t;
      }
    }
  }
}

TEST(RouteBatch, ReusedResultBufferIsEquivalent) {
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  net::Network network(g);
  const auto flows = all_ordered_pairs(g);

  BatchResult reused;
  const auto first_proto = suite.pr().make(network);
  sim::route_batch(network, *first_proto, flows, TraceMode::kFullTrace, reused);
  const std::size_t first_delivered = reused.delivered_count();

  network.fail_link(2);
  const auto second_proto = suite.pr().make(network);
  sim::route_batch(network, *second_proto, flows, TraceMode::kStats, reused);
  EXPECT_EQ(reused.size(), flows.size());
  EXPECT_EQ(reused.mode(), TraceMode::kStats);
  EXPECT_TRUE(reused.nodes(0).empty());

  network.restore_link(2);
  const auto third_proto = suite.pr().make(network);
  sim::route_batch(network, *third_proto, flows, TraceMode::kStats, reused);
  EXPECT_EQ(reused.delivered_count(), first_delivered);
}

TEST(RouteBatch, RejectsOutOfRangeEndpoints) {
  const graph::Graph g = topo::abilene();
  const analysis::ProtocolSuite suite(g);
  const net::Network network(g);
  const auto proto = suite.spf().make(network);
  const std::vector<FlowSpec> flows{FlowSpec{0, static_cast<graph::NodeId>(999)}};
  EXPECT_THROW((void)sim::route_batch(network, *proto, flows), std::out_of_range);
}

TEST(TraceRendering, DroppedTracesNameTheReason) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const route::RoutingDb routes(g);
  route::StaticSpf spf(routes);
  net::Network network(g);
  network.fail_link(0);

  const auto trace = net::route_packet(network, spf, 0, 2);
  EXPECT_FALSE(trace.delivered());
  const auto text = net::trace_to_string(g, trace);
  EXPECT_NE(text.find("DROPPED"), std::string::npos);
  EXPECT_NE(text.find(net::drop_reason_name(trace.drop_reason)), std::string::npos);

  EXPECT_EQ(net::drop_reason_name(net::DropReason::kNoRoute), "no-route");
  EXPECT_EQ(net::drop_reason_name(net::DropReason::kTtlExpired), "ttl-expired");
  EXPECT_EQ(net::drop_reason_name(net::DropReason::kPolicy), "policy");
  EXPECT_EQ(net::drop_reason_name(net::DropReason::kCongestion), "congestion");
}

}  // namespace
}  // namespace pr
