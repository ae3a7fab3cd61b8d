// Incremental face tracing for the genus-minimising local search.
//
// The search's only move takes one dart out of a node's cyclic order and
// reinserts it elsewhere.  That rewires sigma for at most three darts, so
// phi(d) = sigma(reverse(d)) changes for at most three darts too, and only
// the faces through those darts can split or merge.  IncrementalFaces keeps
// a face label per dart together with the face count and the self-paired
// edge count, and per move walks just those (at most three) faces before and
// after the rewiring: O(length of the touched faces) instead of the O(|E|)
// full trace.  trace_faces stays the oracle; verify() compares against it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "embed/rotation_system.hpp"

namespace pr::embed {

class IncrementalFaces {
 public:
  /// Traces the faces of `rot` in full; the state then owns a copy of its
  /// per-node orders.  `rot.graph()` must outlive the state.
  explicit IncrementalFaces(const RotationSystem& rot);

  /// Moves the dart at index `take` of v's order to index `put` of the order
  /// with that dart removed -- i.e. erase then insert -- and retraces only the
  /// faces through the darts whose face successor changed.
  void move(NodeId v, std::size_t take, std::size_t put);

  /// Undoes the last move(): order, sigma, labels and counts.  Only one level.
  void revert();

  [[nodiscard]] std::size_t face_count() const noexcept { return faces_; }
  /// Edges whose two darts lie on the same face (see self_paired_edges).
  [[nodiscard]] std::size_t self_paired_count() const noexcept { return self_paired_; }
  /// Label of the face containing d: a dart of that face, so two darts share
  /// a label iff they share a face.
  [[nodiscard]] DartId face_label(DartId d) const { return label_.at(d); }

  [[nodiscard]] std::span<const DartId> order_at(NodeId v) const {
    return {order_.data() + first_.at(v), order_.data() + first_.at(v + 1)};
  }

  /// The current orders as a (validated) rotation system.
  [[nodiscard]] RotationSystem rotation() const;

  /// Checks face count, self-paired count and the face partition against a
  /// full trace_faces; throws std::logic_error on any difference.  O(|E|).
  void verify() const;

 private:
  struct SigmaChange {
    DartId dart;
    DartId old_next;
    DartId new_next;
  };

  [[nodiscard]] DartId phi(DartId d) const noexcept { return next_[graph::reverse(d)]; }

  const Graph* graph_;
  std::vector<std::size_t> first_;  ///< v's order is order_[first_[v], first_[v+1])
  std::vector<DartId> order_;
  std::vector<DartId> next_;   ///< sigma
  std::vector<DartId> label_;  ///< face label per dart
  std::size_t faces_ = 0;
  std::size_t self_paired_ = 0;

  // Undo record of the last move.
  NodeId moved_node_ = graph::kInvalidNode;
  std::size_t take_ = 0;
  std::size_t put_ = 0;
  std::vector<SigmaChange> changed_;
  std::vector<DartId> touched_;        ///< darts of the faces the move touched
  std::vector<DartId> touched_label_;  ///< their labels before the move
  std::size_t old_faces_ = 0;
  std::size_t old_self_paired_ = 0;
};

}  // namespace pr::embed
