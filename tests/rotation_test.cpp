// Unit tests for rotation systems (sigma) and the face successor (phi).
#include "embed/rotation_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"

namespace pr::embed {
namespace {

using graph::Rng;

TEST(RotationSystem, IdentityCoversAllDarts) {
  const Graph g = graph::ring(5);
  const auto rot = RotationSystem::identity(g);
  rot.validate();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto order = rot.order_at(v);
    EXPECT_EQ(order.size(), g.degree(v));
  }
}

TEST(RotationSystem, SigmaIsCyclicPerNode) {
  const Graph g = graph::complete(4);
  const auto rot = RotationSystem::identity(g);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto outs = g.out_darts(v);
    // Applying sigma degree-many times returns to the start.
    DartId d = outs[0];
    for (std::size_t i = 0; i < g.degree(v); ++i) d = rot.next_at_node(d);
    EXPECT_EQ(d, outs[0]);
  }
}

TEST(RotationSystem, NextAndPrevAreInverse) {
  Rng rng(11);
  const Graph g = graph::random_two_edge_connected(10, 8, rng);
  const auto rot = RotationSystem::random(g, rng);
  for (DartId d = 0; d < g.dart_count(); ++d) {
    EXPECT_EQ(rot.prev_at_node(rot.next_at_node(d)), d);
    EXPECT_EQ(rot.next_at_node(rot.prev_at_node(d)), d);
  }
}

TEST(RotationSystem, SigmaStaysAtNode) {
  Rng rng(12);
  const Graph g = graph::random_two_edge_connected(8, 5, rng);
  const auto rot = RotationSystem::random(g, rng);
  for (DartId d = 0; d < g.dart_count(); ++d) {
    EXPECT_EQ(g.dart_tail(rot.next_at_node(d)), g.dart_tail(d));
  }
}

TEST(RotationSystem, FaceSuccessorLeavesHead) {
  Rng rng(13);
  const Graph g = graph::random_two_edge_connected(8, 5, rng);
  const auto rot = RotationSystem::random(g, rng);
  for (DartId d = 0; d < g.dart_count(); ++d) {
    // phi(d) must depart from the node d points to: head-to-tail continuity.
    EXPECT_EQ(g.dart_tail(rot.face_successor(d)), g.dart_head(d));
  }
}

TEST(RotationSystem, FromOrdersValidation) {
  const Graph g = graph::ring(3);
  // Correct orders pass.
  std::vector<std::vector<DartId>> ok(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto outs = g.out_darts(v);
    ok[v].assign(outs.begin(), outs.end());
  }
  EXPECT_NO_THROW((void)RotationSystem::from_orders(g, ok));

  // Wrong size rejected.
  auto bad = ok;
  bad[0].pop_back();
  EXPECT_THROW((void)RotationSystem::from_orders(g, bad), std::invalid_argument);

  // Dart from another node rejected.
  bad = ok;
  bad[0][0] = ok[1][0];
  EXPECT_THROW((void)RotationSystem::from_orders(g, bad), std::invalid_argument);

  // Duplicate dart rejected.
  bad = ok;
  bad[0][1] = bad[0][0];
  EXPECT_THROW((void)RotationSystem::from_orders(g, bad), std::invalid_argument);
}

TEST(RotationSystem, FromNeighborOrders) {
  Graph g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const NodeId c = g.add_node("C");
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  const auto rot = RotationSystem::from_neighbor_orders(g, {{c, b}, {a, c}, {b, a}});
  rot.validate();
  // At A, the successor of the dart to C is the dart to B.
  const DartId a_to_c = *g.find_dart(a, c);
  const DartId a_to_b = *g.find_dart(a, b);
  EXPECT_EQ(rot.next_at_node(a_to_c), a_to_b);
  EXPECT_EQ(rot.next_at_node(a_to_b), a_to_c);
}

TEST(RotationSystem, FromNeighborOrdersErrors) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  // Missing neighbour.
  EXPECT_THROW((void)RotationSystem::from_neighbor_orders(g, {{2}, {0, 2}, {1}}),
               std::invalid_argument);
  // Multigraph rejected.
  Graph m(2);
  m.add_edge(0, 1);
  m.add_edge(0, 1);
  EXPECT_THROW((void)RotationSystem::from_neighbor_orders(m, {{1, 1}, {0, 0}}),
               std::invalid_argument);
}

TEST(RotationSystem, RandomIsDeterministicPerSeed) {
  const Graph g = graph::complete(5);
  Rng r1(77);
  Rng r2(77);
  const auto a = RotationSystem::random(g, r1);
  const auto b = RotationSystem::random(g, r2);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto oa = a.order_at(v);
    const auto ob = b.order_at(v);
    EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()));
  }
}

}  // namespace
}  // namespace pr::embed
