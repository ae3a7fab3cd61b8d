// Unit tests for edge-list parsing and serialisation.
#include "graph/graphio.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace pr::graph {
namespace {

TEST(FromEdgeList, ExplicitNodesAndEdges) {
  const Graph g = from_edge_list(
      "# comment line\n"
      "node A\n"
      "node B\n"
      "edge A B 2.5\n");
  EXPECT_EQ(g.node_count(), 2U);
  ASSERT_EQ(g.edge_count(), 1U);
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 2.5);
  EXPECT_EQ(g.node_label(0), "A");
}

TEST(FromEdgeList, ImplicitNodes) {
  const Graph g = from_edge_list("edge X Y\nedge Y Z\n");
  EXPECT_EQ(g.node_count(), 3U);
  EXPECT_EQ(g.edge_count(), 2U);
  EXPECT_TRUE(g.find_node("Z").has_value());
}

TEST(FromEdgeList, DefaultWeightIsOne) {
  const Graph g = from_edge_list("edge A B\n");
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 1.0);
}

TEST(FromEdgeList, TrailingCommentsAndBlankLines) {
  const Graph g = from_edge_list("\n  \nedge A B # inline comment\n\n");
  EXPECT_EQ(g.edge_count(), 1U);
}

TEST(FromEdgeList, Errors) {
  EXPECT_THROW((void)from_edge_list("frobnicate A B\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("node\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("node A\nnode A\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("edge A B notaweight\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("edge A A\n"), std::invalid_argument);  // self loop
  EXPECT_THROW((void)from_edge_list("edge A B 0\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("edge A B 2x\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("edge A B inf\n"), std::invalid_argument);
  EXPECT_THROW((void)from_edge_list("edge A B nan\n"), std::invalid_argument);
}

TEST(RoundTrip, PreservesStructure) {
  Rng rng(7);
  const Graph original = random_two_edge_connected(9, 4, rng);
  const Graph copy = from_edge_list(to_edge_list(original));
  ASSERT_EQ(copy.node_count(), original.node_count());
  ASSERT_EQ(copy.edge_count(), original.edge_count());
  for (EdgeId e = 0; e < original.edge_count(); ++e) {
    EXPECT_DOUBLE_EQ(copy.edge_weight(e), original.edge_weight(e));
  }
}

TEST(RoundTrip, PreservesLabelsAndWeights) {
  Graph g;
  g.add_node("seattle");
  g.add_node("denver");
  g.add_edge(0, 1, 3.25);
  const Graph copy = from_edge_list(to_edge_list(g));
  EXPECT_EQ(copy.node_label(0), "seattle");
  EXPECT_DOUBLE_EQ(copy.edge_weight(0), 3.25);
}

}  // namespace
}  // namespace pr::graph
