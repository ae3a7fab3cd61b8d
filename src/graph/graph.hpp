// Core undirected multigraph used throughout the Packet Re-cycling library.
//
// The graph is deliberately phrased in terms of *darts* (directed edge-ends,
// also known as half-edges or arcs).  Every undirected edge e contributes two
// darts: dart 2e (from edge_u to edge_v) and dart 2e+1 (the reverse).  Darts
// are the natural currency of both
//   * router interfaces  -- the dart u->v is "the interface of u facing v", and
//   * cellular embeddings -- a rotation system is a permutation over darts.
//
// Nodes and edges are created once and never removed; failure is modelled as
// an overlay (EdgeSet of "down" edges) so that identifiers stay stable, which
// mirrors real routers whose interfaces do not disappear when a link fails.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pr::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;
using DartId = std::uint32_t;
using Weight = double;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();
inline constexpr DartId kInvalidDart = std::numeric_limits<DartId>::max();

/// Distance value for unreachable nodes in shortest-path structures.
inline constexpr Weight kUnreachable = std::numeric_limits<Weight>::infinity();

/// Dart helpers are free functions so they can be used without a Graph at hand.
[[nodiscard]] constexpr DartId make_dart(EdgeId e, unsigned side) noexcept {
  return static_cast<DartId>(2 * e + (side & 1U));
}
/// The oppositely-directed dart on the same edge.
[[nodiscard]] constexpr DartId reverse(DartId d) noexcept { return d ^ 1U; }
/// The undirected edge a dart belongs to.
[[nodiscard]] constexpr EdgeId dart_edge(DartId d) noexcept { return d >> 1U; }
/// 0 for the u->v dart, 1 for the v->u dart.
[[nodiscard]] constexpr unsigned dart_side(DartId d) noexcept { return d & 1U; }

/// A set of edges with O(1) membership, used to describe failure scenarios.
class EdgeSet {
 public:
  EdgeSet() = default;
  explicit EdgeSet(std::size_t edge_count) : member_(edge_count, 0) {}

  void insert(EdgeId e);
  void erase(EdgeId e);
  [[nodiscard]] bool contains(EdgeId e) const noexcept {
    return e < member_.size() && member_[e] != 0;
  }
  [[nodiscard]] std::size_t size() const noexcept { return elements_.size(); }
  [[nodiscard]] bool empty() const noexcept { return elements_.empty(); }
  void clear();

  /// Members in insertion order (duplicates impossible).
  [[nodiscard]] std::span<const EdgeId> elements() const noexcept { return elements_; }

  /// Capacity (number of edges this set was sized for).
  [[nodiscard]] std::size_t capacity() const noexcept { return member_.size(); }

 private:
  std::vector<std::uint8_t> member_;
  std::vector<EdgeId> elements_;
};

/// Undirected multigraph with stable identifiers, positive edge weights and
/// optional node labels.  Self-loops are rejected: they are meaningless for
/// routing (a router never forwards to itself over a loopback link).
class Graph {
 public:
  Graph() = default;
  /// Creates `node_count` unlabeled nodes.
  explicit Graph(std::size_t node_count);

  /// Adds a node; the label is optional but must be unique when non-empty.
  NodeId add_node(std::string label = {});

  /// Adds an undirected edge u--v of weight `w` (finite, > 0: an infinite
  /// weight would equal kUnreachable).  Parallel edges are allowed;
  /// self-loops and bad weights throw std::invalid_argument.
  EdgeId add_edge(NodeId u, NodeId v, Weight w = 1.0);

  [[nodiscard]] std::size_t node_count() const noexcept { return out_darts_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
  [[nodiscard]] std::size_t dart_count() const noexcept { return 2 * edges_.size(); }

  [[nodiscard]] NodeId edge_u(EdgeId e) const { return edges_.at(e).u; }
  [[nodiscard]] NodeId edge_v(EdgeId e) const { return edges_.at(e).v; }
  [[nodiscard]] Weight edge_weight(EdgeId e) const { return edges_.at(e).w; }
  void set_edge_weight(EdgeId e, Weight w);

  /// Node the dart points away from (the router that owns this interface).
  [[nodiscard]] NodeId dart_tail(DartId d) const;
  /// Node the dart points to (the neighbour across the link).
  [[nodiscard]] NodeId dart_head(DartId d) const;

  /// The dart leaving `u` over edge `e`; throws if `u` is not an endpoint.
  [[nodiscard]] DartId dart_from(NodeId u, EdgeId e) const;

  /// All darts whose tail is `v`, i.e. v's interfaces, in insertion order.
  [[nodiscard]] std::span<const DartId> out_darts(NodeId v) const {
    return out_darts_.at(v);
  }
  [[nodiscard]] std::size_t degree(NodeId v) const { return out_darts_.at(v).size(); }

  /// First edge between u and v if any (either orientation).
  [[nodiscard]] std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;

  /// Dart u->v over the first edge between them, if any.
  [[nodiscard]] std::optional<DartId> find_dart(NodeId u, NodeId v) const;

  [[nodiscard]] const std::string& node_label(NodeId v) const { return labels_.at(v); }
  void set_node_label(NodeId v, std::string label);
  /// Looks a node up by label; empty labels never match.
  [[nodiscard]] std::optional<NodeId> find_node(std::string_view label) const;

  /// Label if set, otherwise "n<id>"; convenient for traces and reports.
  [[nodiscard]] std::string display_name(NodeId v) const;

  /// Human-readable "A->B" form of a dart, for diagnostics.
  [[nodiscard]] std::string dart_name(DartId d) const;

  /// Sum of all edge weights (used by stretch normalisation sanity checks).
  [[nodiscard]] Weight total_weight() const noexcept;

  /// Validates internal invariants; throws std::logic_error on corruption.
  /// Exposed so property tests can call it after generator runs.
  void check_invariants() const;

  /// Structure-version id: drawn from a process-wide counter at construction
  /// and re-drawn by every routing-relevant mutation (add_node, add_edge,
  /// set_edge_weight).  Two graphs with the same id are copies of the same
  /// structure; a graph allocated at a recycled address always has a fresh
  /// id.  Caches keyed by graph (e.g. route::ScenarioRoutingCache) compare
  /// (address, structure_id) so stale derived state can never be served
  /// after the object at that address was destroyed or mutated.
  [[nodiscard]] std::uint64_t structure_id() const noexcept { return structure_id_; }

 private:
  struct EdgeRec {
    NodeId u;
    NodeId v;
    Weight w;
  };

  [[nodiscard]] static std::uint64_t next_structure_id() noexcept;

  std::vector<EdgeRec> edges_;
  std::vector<std::vector<DartId>> out_darts_;
  std::vector<std::string> labels_;
  std::uint64_t structure_id_ = next_structure_id();
};

}  // namespace pr::graph
