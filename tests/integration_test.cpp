// End-to-end integration: the full experiment pipeline on every bundled
// topology, asserting the cross-module invariants the benches rely on.
#include <gtest/gtest.h>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "net/header_codec.hpp"
#include "topo/topologies.hpp"

namespace pr {
namespace {

using analysis::ProtocolSuite;
using graph::Graph;

struct TopologyCase {
  const char* name;
  Graph (*make)();
  bool planar;  ///< planar topologies enjoy the unconditional guarantee
};

Graph make_figure1() { return topo::figure1(); }
Graph make_abilene() { return topo::abilene(); }
Graph make_teleglobe() { return topo::teleglobe(); }
Graph make_geant() { return topo::geant(); }

class TopologyPipeline : public ::testing::TestWithParam<TopologyCase> {};

TEST_P(TopologyPipeline, SuiteInvariants) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);

  // Embedding quality: PR-safe always; genus 0 exactly for planar inputs.
  EXPECT_TRUE(suite.embedding().supports_pr());
  if (param.planar) {
    EXPECT_EQ(suite.embedding().genus, 0);
  } else {
    EXPECT_GT(suite.embedding().genus, 0);
  }

  // Euler consistency.
  const long v = static_cast<long>(g.node_count());
  const long e = static_cast<long>(g.edge_count());
  const long f = static_cast<long>(suite.embedding().faces.face_count());
  EXPECT_EQ(v - e + f, 2 - 2 * suite.embedding().genus);

  // Header budget: every bundled topology fits the DSCP pool-2 proposal.
  const auto layout =
      net::PrHeaderLayout::for_hop_diameter(suite.routes().max_discriminator());
  EXPECT_LE(layout.total_bits(), 4U);
}

TEST_P(TopologyPipeline, SingleFailureFigureShape) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);
  const auto result = analysis::run_stretch_experiment(g, scenarios, suite.paper_trio());

  ASSERT_EQ(result.protocols.size(), 3U);
  for (const auto& p : result.protocols) {
    EXPECT_EQ(p.dropped(), 0U) << p.name;
    for (double s : p.stretches) EXPECT_GE(s, 1.0 - 1e-12);
  }
  // Protocol ordering, mean and pointwise CCDF.
  EXPECT_LE(result.protocols[0].mean_finite_stretch(),
            result.protocols[1].mean_finite_stretch() + 1e-12);
  EXPECT_LE(result.protocols[1].mean_finite_stretch(),
            result.protocols[2].mean_finite_stretch() + 1e-12);
  const auto xs = analysis::paper_stretch_axis();
  const auto reconv = analysis::ccdf(result.protocols[0].stretches, xs);
  const auto pr_curve = analysis::ccdf(result.protocols[2].stretches, xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_LE(reconv[i], pr_curve[i] + 1e-12);
    if (i > 0) {
      EXPECT_LE(pr_curve[i], pr_curve[i - 1] + 1e-12) << "CCDF must not increase";
    }
  }
}

TEST_P(TopologyPipeline, ExperimentsAreDeterministic) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);
  const auto scenarios = net::all_single_failures(g);
  const auto a = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});
  const auto b = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});
  ASSERT_EQ(a.protocols[0].stretches.size(), b.protocols[0].stretches.size());
  for (std::size_t i = 0; i < a.protocols[0].stretches.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.protocols[0].stretches[i], b.protocols[0].stretches[i]);
  }
}

TEST_P(TopologyPipeline, CoverageClassificationConsistent) {
  const auto& param = GetParam();
  const Graph g = param.make();
  const ProtocolSuite suite(g);
  graph::Rng rng(123);
  const auto scenarios = net::sample_any_failures(g, 3, 25, rng);
  const auto result = analysis::run_stretch_experiment(
      g, scenarios, {suite.pr(), suite.fcp(), suite.spf()});

  const auto& pr_cov = result.protocols[0];
  const auto& fcp_cov = result.protocols[1];
  const auto& spf_cov = result.protocols[2];
  // Totals agree across protocols (same pair population).
  EXPECT_EQ(pr_cov.total(), fcp_cov.total());
  EXPECT_EQ(pr_cov.total(), spf_cov.total());
  // Partition counts are protocol-independent facts of the scenario.
  EXPECT_EQ(pr_cov.dropped_partitioned, fcp_cov.dropped_partitioned);
  EXPECT_EQ(pr_cov.dropped_partitioned, spf_cov.dropped_partitioned);
  // FCP has full coverage everywhere; PR too on planar topologies.
  EXPECT_EQ(fcp_cov.dropped_reachable, 0U);
  if (param.planar) {
    EXPECT_EQ(pr_cov.dropped_reachable, 0U);
  }
  // SPF never exceeds PR.
  EXPECT_LE(spf_cov.delivered, pr_cov.delivered);
}

INSTANTIATE_TEST_SUITE_P(
    Bundled, TopologyPipeline,
    ::testing::Values(TopologyCase{"figure1", make_figure1, true},
                      TopologyCase{"abilene", make_abilene, true},
                      TopologyCase{"teleglobe", make_teleglobe, false},
                      TopologyCase{"geant", make_geant, true}),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      return std::string(info.param.name);
    });

TEST(Integration, StretchExperimentMatchesManualComputation) {
  // Cross-check the harness against a hand-rolled loop on one scenario.
  const Graph g = topo::abilene();
  const ProtocolSuite suite(g);
  std::vector<graph::EdgeSet> scenarios;
  scenarios.emplace_back(g.edge_count());
  scenarios.back().insert(3);
  const auto result = analysis::run_stretch_experiment(g, scenarios, {suite.pr()});

  net::Network network(g);
  network.fail_link(3);
  std::size_t manual_pairs = 0;
  double manual_sum = 0;
  for (graph::NodeId s = 0; s < g.node_count(); ++s) {
    for (graph::NodeId t = 0; t < g.node_count(); ++t) {
      if (s == t ||
          !analysis::path_affected(suite.routes(), s, t, network.failed_links())) {
        continue;
      }
      ++manual_pairs;
      auto proto = suite.pr().make(network);
      const auto trace = net::route_packet(network, *proto, s, t);
      manual_sum += trace.cost / suite.routes().cost(s, t);
    }
  }
  EXPECT_EQ(result.affected_pairs, manual_pairs);
  EXPECT_NEAR(result.protocols[0].mean_finite_stretch(),
              manual_sum / static_cast<double>(manual_pairs), 1e-12);
}

TEST(Integration, AllSuiteProtocolsAgreeOnHealthyNetwork) {
  // With no failures every protocol must produce identical (optimal) costs.
  const Graph g = topo::geant();
  const ProtocolSuite suite(g);
  net::Network network(g);
  for (graph::NodeId s = 0; s < g.node_count(); s += 5) {
    for (graph::NodeId t = 0; t < g.node_count(); t += 3) {
      if (s == t) continue;
      const double expected = suite.routes().cost(s, t);
      for (const auto& factory :
           {suite.pr(), suite.pr_single_bit(), suite.fcp(), suite.lfa(), suite.spf(),
            suite.reconvergence()}) {
        auto proto = factory.make(network);
        const auto trace = net::route_packet(network, *proto, s, t);
        ASSERT_TRUE(trace.delivered()) << factory.name;
        EXPECT_DOUBLE_EQ(trace.cost, expected) << factory.name;
      }
    }
  }
}

}  // namespace
}  // namespace pr
