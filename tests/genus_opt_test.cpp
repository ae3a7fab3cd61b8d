// Tests for the genus-minimising local search and the top-level embedder.
#include "embed/genus_opt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "embed/embedder.hpp"
#include "embed/incremental_faces.hpp"
#include "graph/generators.hpp"

namespace pr::embed {
namespace {

TEST(GenusOpt, PlanarGraphReachesGenusZero) {
  const Graph g = graph::grid(3, 3);
  const auto result = minimize_genus(g);
  EXPECT_EQ(result.genus, 0);
}

TEST(GenusOpt, K5ReachesKnownMinimumGenusOne) {
  const Graph g = graph::k5();
  GenusSearchOptions opts;
  opts.max_iterations = 8000;
  const auto result = minimize_genus(g, opts);
  EXPECT_EQ(result.genus, 1);  // gamma(K5) = 1
}

TEST(GenusOpt, K33ReachesKnownMinimumGenusOne) {
  const Graph g = graph::k33();
  GenusSearchOptions opts;
  opts.max_iterations = 8000;
  const auto result = minimize_genus(g, opts);
  EXPECT_EQ(result.genus, 1);  // gamma(K3,3) = 1
}

TEST(GenusOpt, PetersenReachesKnownMinimumGenusOne) {
  const Graph g = graph::petersen();
  GenusSearchOptions opts;
  opts.max_iterations = 20000;
  const auto result = minimize_genus(g, opts);
  EXPECT_EQ(result.genus, 1);  // gamma(Petersen) = 1
}

TEST(GenusOpt, ResultAlwaysValidEmbedding) {
  graph::Rng rng(31);
  const Graph g = graph::erdos_renyi(9, 0.5, rng);
  GenusSearchOptions opts;
  opts.max_iterations = 500;
  const auto result = minimize_genus(g, opts);
  const auto faces = trace_faces(result.rotation);
  EXPECT_NO_THROW(check_face_set(result.rotation, faces));
  EXPECT_EQ(euler_genus(g, faces), result.genus);
}

TEST(GenusOpt, ZeroBudgetStillValid) {
  GenusSearchOptions opts;
  opts.max_iterations = 0;
  // The graph must outlive the result: RotationSystem references it, and
  // trace_faces below reads through that reference.
  const Graph g = graph::k5();
  const auto result = minimize_genus(g, opts);
  EXPECT_GE(result.genus, 1);
  EXPECT_NO_THROW(check_face_set(result.rotation, trace_faces(result.rotation)));
}

TEST(GenusOpt, DeterministicForFixedSeed) {
  const Graph g = graph::petersen();
  GenusSearchOptions opts;
  opts.max_iterations = 1000;
  const auto a = minimize_genus(g, opts);
  const auto b = minimize_genus(g, opts);
  EXPECT_EQ(a.genus, b.genus);
  EXPECT_EQ(a.iterations_used, b.iterations_used);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto oa = a.rotation.order_at(v);
    const auto ob = b.rotation.order_at(v);
    EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end())) << "node " << v;
  }
}

/// FNV-1a over every node's order, in node order, each prefixed by its size.
std::uint64_t rotation_digest(const RotationSystem& rot) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (NodeId v = 0; v < rot.graph().node_count(); ++v) {
    const auto order = rot.order_at(v);
    mix(order.size());
    for (DartId d : order) mix(d);
  }
  return h;
}

// Pins the exact embeddings the default search returns on generated ISPs, so
// a speed-up of the search cannot silently change its moves, its RNG stream
// or its accept rule.  The values were recorded with the full-retrace search
// that preceded incremental face tracing; they also depend on the standard
// library's mt19937_64, uniform_int_distribution and shuffle.
TEST(GenusOpt, DefaultSearchEmbeddingsArePinned) {
  struct Pinned {
    std::size_t nodes;
    std::uint64_t topology_seed;
    int genus;
    std::uint64_t digest;
  };
  const Pinned cases[] = {
      {128, 1, 28, 0x5e0e7eedd8196027ULL},
      {128, 7, 28, 0x4395e5ec2a261a60ULL},
      {256, 1, 77, 0x802aa9e38b50d7a5ULL},
      {256, 7, 71, 0xc8d978e73980a6eeULL},
  };
  for (const Pinned& c : cases) {
    graph::Rng rng(c.topology_seed);
    const auto isp = graph::hierarchical_isp(graph::sized_isp_params(c.nodes), rng);
    const auto result = minimize_genus(isp.graph);
    EXPECT_EQ(result.genus, c.genus) << c.nodes << "/" << c.topology_seed;
    EXPECT_EQ(rotation_digest(result.rotation), c.digest) << c.nodes << "/" << c.topology_seed;
    EXPECT_EQ(result.iterations_used, GenusSearchOptions{}.max_iterations);
  }
}

/// The incremental state against a full trace of the same orders: face
/// count, self-paired count, and the partition of darts into faces.
::testing::AssertionResult matches_full_trace(const IncrementalFaces& state, const Graph& g) {
  const FaceSet traced = trace_faces(state.rotation());
  if (state.face_count() != traced.face_count()) {
    return ::testing::AssertionFailure()
           << "faces " << state.face_count() << " vs traced " << traced.face_count();
  }
  const std::size_t self_paired = self_paired_edges(g, traced).size();
  if (state.self_paired_count() != self_paired) {
    return ::testing::AssertionFailure()
           << "self-paired " << state.self_paired_count() << " vs traced " << self_paired;
  }
  // Two darts share a label iff they share a traced face.
  std::map<DartId, std::uint32_t> face_of_label;
  std::vector<DartId> label_of_face(traced.face_count(), graph::kInvalidDart);
  for (DartId d = 0; d < g.dart_count(); ++d) {
    const DartId label = state.face_label(d);
    const std::uint32_t face = traced.face_of[d];
    const auto [it, fresh] = face_of_label.emplace(label, face);
    if (!fresh && it->second != face) {
      return ::testing::AssertionFailure() << "label " << label << " spans two faces";
    }
    if (label_of_face[face] == graph::kInvalidDart) label_of_face[face] = label;
    if (label_of_face[face] != label) {
      return ::testing::AssertionFailure() << "face " << face << " carries two labels";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::vector<DartId>> orders_of(const IncrementalFaces& state, const Graph& g) {
  std::vector<std::vector<DartId>> orders;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto order = state.order_at(v);
    orders.emplace_back(order.begin(), order.end());
  }
  return orders;
}

TEST(IncrementalFaces, RandomMovesAndRevertsMatchFullTrace) {
  graph::Rng topo_rng(7);
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"K5", graph::k5()},
      {"Petersen", graph::petersen()},
      {"grid(4,4)", graph::grid(4, 4)},
      {"ISP-128", graph::hierarchical_isp(graph::sized_isp_params(128), topo_rng).graph},
  };
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    graph::Rng rng(2024);
    IncrementalFaces state(RotationSystem::random(g, rng));
    ASSERT_TRUE(matches_full_trace(state, g));
    std::vector<NodeId> movable;  // degree 2 included: its moves change nothing
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (g.degree(v) >= 2) movable.push_back(v);
    }
    std::size_t reverts = 0;
    std::size_t face_changes = 0;
    for (int step = 0; step < 3000; ++step) {
      const NodeId v = movable[rng.below(movable.size())];
      const std::size_t deg = g.degree(v);
      const std::size_t take = rng.below(deg);
      std::size_t put = rng.below(deg - 1);
      if (put >= take) ++put;
      const auto before = orders_of(state, g);
      const std::size_t faces_before = state.face_count();
      state.move(v, take, put);
      ASSERT_TRUE(matches_full_trace(state, g)) << "after move " << step;
      if (state.face_count() != faces_before) ++face_changes;
      if (rng.chance(0.5)) {
        state.revert();
        ++reverts;
        ASSERT_TRUE(matches_full_trace(state, g)) << "after revert " << step;
        ASSERT_EQ(orders_of(state, g), before) << "revert " << step;
      }
    }
    EXPECT_GT(reverts, 1000U);
    EXPECT_GT(face_changes, 100U);  // the moves really split and merge faces
  }
}

TEST(IncrementalFaces, RevertWithoutMoveThrows) {
  const Graph g = graph::k5();
  IncrementalFaces state(RotationSystem::identity(g));
  EXPECT_THROW(state.revert(), std::logic_error);
  state.move(0, 0, 2);
  state.revert();
  EXPECT_THROW(state.revert(), std::logic_error);  // one level only
  EXPECT_NO_THROW(state.verify());
}

TEST(Embedder, AutoUsesPlanarWhenPossible) {
  const Graph g = graph::grid(4, 4);
  const auto emb = embed(g);
  EXPECT_EQ(emb.strategy_used, EmbedStrategy::kPlanar);
  EXPECT_EQ(emb.genus, 0);
  EXPECT_TRUE(emb.planar());
}

TEST(Embedder, AutoFallsBackToSearchOnNonPlanar) {
  const Graph g = graph::k5();
  const auto emb = embed(g);
  EXPECT_EQ(emb.strategy_used, EmbedStrategy::kLocalSearch);
  EXPECT_GE(emb.genus, 1);
}

TEST(Embedder, PlanarStrategyThrowsOnNonPlanar) {
  EmbedOptions opts;
  opts.strategy = EmbedStrategy::kPlanar;
  EXPECT_THROW((void)embed(graph::k33(), opts), std::invalid_argument);
}

TEST(Embedder, RandomAndIdentityAlwaysSucceed) {
  const Graph g = graph::petersen();
  for (EmbedStrategy s : {EmbedStrategy::kRandom, EmbedStrategy::kIdentity}) {
    EmbedOptions opts;
    opts.strategy = s;
    const auto emb = embed(g, opts);
    EXPECT_EQ(emb.strategy_used, s);
    EXPECT_GE(emb.genus, 1);  // Petersen cannot be genus 0
    EXPECT_NO_THROW(check_face_set(emb.rotation, emb.faces));
  }
}

TEST(Embedder, FacesMatchRotation) {
  const Graph g = graph::ring(8);
  const auto emb = embed(g);
  EXPECT_EQ(emb.faces.face_count(), 2U);
  EXPECT_EQ(emb.faces.face_of.size(), g.dart_count());
}

}  // namespace
}  // namespace pr::embed
