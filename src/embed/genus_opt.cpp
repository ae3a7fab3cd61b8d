#include "embed/genus_opt.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "embed/incremental_faces.hpp"

namespace pr::embed {

namespace {

/// Lexicographic objective: more faces first (lower genus), then more
/// PR-safe edges (edges whose two darts lie on distinct faces; see
/// faces.hpp for why safety matters to Packet Re-cycling).
struct Score {
  std::size_t faces = 0;
  std::size_t safe_edges = 0;

  bool operator==(const Score&) const noexcept = default;
  bool operator>(const Score& other) const noexcept {
    if (faces != other.faces) return faces > other.faces;
    return safe_edges > other.safe_edges;
  }
  bool operator>=(const Score& other) const noexcept {
    return *this > other || *this == other;
  }
};

Score score_of(const IncrementalFaces& faces, const Graph& g) {
  return Score{faces.face_count(), g.edge_count() - faces.self_paired_count()};
}

}  // namespace

GenusSearchResult minimize_genus(const Graph& g, const GenusSearchOptions& opts) {
  graph::Rng rng(opts.seed);

  // Only nodes of degree >= 3 have more than one cyclic order.
  std::vector<NodeId> movable;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (g.degree(v) >= 3) movable.push_back(v);
  }

  IncrementalFaces best(RotationSystem::identity(g));
  Score best_score = score_of(best, g);
  std::size_t used = 0;

  if (movable.empty() || opts.max_iterations == 0) {
    return GenusSearchResult{best.rotation(), euler_genus(g, best_score.faces), used};
  }

  // Cannot do better than a sphere embedding with every edge safe.
  const std::size_t sphere_faces =
      best_score.faces + 2 * static_cast<std::size_t>(euler_genus(g, best_score.faces));
  const auto is_perfect = [&](const Score& s) {
    return s.safe_edges == g.edge_count() && s.faces == sphere_faces;
  };

  const std::size_t restarts = std::max<std::size_t>(1, opts.restarts);
  const std::size_t per_restart = std::max<std::size_t>(1, opts.max_iterations / restarts);

  for (std::size_t r = 0; r < restarts && used < opts.max_iterations; ++r) {
    IncrementalFaces current(r == 0 ? RotationSystem::identity(g)
                                    : RotationSystem::random(g, rng));
    Score current_score = score_of(current, g);
    if (current_score > best_score) {
      best = current;
      best_score = current_score;
    }

    // Phase A (first half): maximise face count with full sideways mobility.
    // Phase B (second half): refine within the face-count plateau, accepting
    // only moves that do not lose safety -- this steers the walk toward
    // embeddings where every link separates two distinct cells.
    for (std::size_t i = 0; i < per_restart && used < opts.max_iterations; ++i, ++used) {
      const bool safety_phase = i >= per_restart / 2;
      const NodeId v = movable[rng.below(movable.size())];
      const std::size_t deg = g.degree(v);
      const std::size_t take = rng.below(deg);
      std::size_t put = rng.below(deg - 1);
      if (put >= take) ++put;
      current.move(v, take, put);
      const Score moved = score_of(current, g);
      const bool accept = safety_phase ? moved >= current_score
                                       : moved.faces >= current_score.faces;
      if (accept) {
#ifndef NDEBUG
        current.verify();
#endif
        current_score = moved;
        if (moved > best_score) {
          best = current;
          best_score = moved;
          if (is_perfect(best_score)) {
            return GenusSearchResult{best.rotation(), 0, used + 1};
          }
        }
      } else {
        current.revert();
      }
    }
  }

  return GenusSearchResult{best.rotation(), euler_genus(g, best_score.faces), used};
}

ExactGenusResult exact_minimum_genus(const Graph& g, std::uint64_t max_rotations) {
  // Size of the rotation space: the first dart of each node's cyclic order is
  // fixed (cyclic symmetry), the rest permute freely: prod (deg - 1)!.
  double space = 1.0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (std::size_t k = 2; k < g.degree(v); ++k) {
      space *= static_cast<double>(k);
    }
  }
  if (space > static_cast<double>(max_rotations)) {
    throw std::invalid_argument(
        "exact_minimum_genus: rotation space too large (" + std::to_string(space) +
        " rotations)");
  }

  // Per-node permutable tails (all out-darts except the first).
  std::vector<std::vector<DartId>> tails(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto outs = g.out_darts(v);
    if (outs.size() > 1) tails[v].assign(outs.begin() + 1, outs.end());
    std::sort(tails[v].begin(), tails[v].end());
  }

  ExactGenusResult result{RotationSystem::identity(g), 0, 0, 0, 0};
  int best_genus = std::numeric_limits<int>::max();

  // Odometer over per-node permutations via std::next_permutation.
  std::vector<std::vector<DartId>> current = tails;
  const auto build = [&]() {
    std::vector<std::vector<DartId>> orders(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto outs = g.out_darts(v);
      orders[v].clear();
      if (!outs.empty()) orders[v].push_back(outs[0]);
      orders[v].insert(orders[v].end(), current[v].begin(), current[v].end());
    }
    return RotationSystem::from_orders(g, std::move(orders));
  };

  bool done = false;
  while (!done) {
    const RotationSystem rot = build();
    const FaceSet faces = trace_faces(rot);
    const int genus = euler_genus(g, faces);
    ++result.rotations_tested;
    if (genus < best_genus) {
      best_genus = genus;
      result.rotation = rot;
      result.genus = genus;
      result.minimum_count = 1;
      result.minimum_pr_safe = pr_safe(g, faces) ? 1 : 0;
    } else if (genus == best_genus) {
      ++result.minimum_count;
      if (pr_safe(g, faces)) ++result.minimum_pr_safe;
    }

    // Advance the odometer.
    done = true;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (std::next_permutation(current[v].begin(), current[v].end())) {
        done = false;
        break;
      }
      // wrapped: current[v] is sorted again, carry to the next node
    }
  }
  return result;
}

}  // namespace pr::embed
