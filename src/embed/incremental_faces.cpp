#include "embed/incremental_faces.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "embed/faces.hpp"

namespace pr::embed {

namespace {

/// Erases the entry at `from` and reinserts it at index `to` of the shortened
/// range; move_within(o, to, from) undoes move_within(o, from, to).
void move_within(DartId* order, std::size_t from, std::size_t to) {
  if (from < to) {
    std::rotate(order + from, order + from + 1, order + to + 1);
  } else {
    std::rotate(order + to, order + from, order + from + 1);
  }
}

}  // namespace

IncrementalFaces::IncrementalFaces(const RotationSystem& rot)
    : graph_(&rot.graph()),
      next_(graph_->dart_count()),
      label_(graph_->dart_count(), graph::kInvalidDart) {
  const Graph& g = *graph_;
  first_.reserve(g.node_count() + 1);
  order_.reserve(g.dart_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    first_.push_back(order_.size());
    const auto order = rot.order_at(v);
    order_.insert(order_.end(), order.begin(), order.end());
  }
  first_.push_back(order_.size());
  for (DartId d = 0; d < g.dart_count(); ++d) next_[d] = rot.next_at_node(d);

  for (DartId start = 0; start < g.dart_count(); ++start) {
    if (label_[start] != graph::kInvalidDart) continue;
    ++faces_;
    DartId d = start;
    do {
      label_[d] = start;
      d = phi(d);
    } while (d != start);
  }
  for (DartId d = 0; d < g.dart_count(); d += 2) {
    if (label_[d] == label_[graph::reverse(d)]) ++self_paired_;
  }
}

void IncrementalFaces::move(NodeId v, std::size_t take, std::size_t put) {
  DartId* const order = order_.data() + first_.at(v);
  const std::size_t deg = first_[v + 1] - first_[v];
  const DartId moved = order[take];
  const DartId old_prev = order[take == 0 ? deg - 1 : take - 1];
  const DartId old_next = next_[moved];
  move_within(order, take, put);
  const DartId new_prev = order[put == 0 ? deg - 1 : put - 1];
  const DartId new_next = order[put + 1 == deg ? 0 : put + 1];
  moved_node_ = v;
  take_ = take;
  put_ = put;
  old_faces_ = faces_;
  old_self_paired_ = self_paired_;

  // Taking the dart out joins its old neighbours; putting it back splits the
  // pair (new_prev, new_next).  So at most three darts change successor.
  changed_.clear();
  const auto relink = [&](DartId d, DartId successor) {
    if (next_[d] != successor) changed_.push_back({d, next_[d], successor});
  };
  if (old_prev != new_prev) {
    relink(old_prev, old_next);
    relink(new_prev, moved);
  }
  relink(moved, new_next);

  // phi changes exactly at reverse(c.dart); walk the old faces through those.
  touched_.clear();
  touched_label_.clear();
  // An edge with one dart off the touched faces is never self-paired before
  // or after: each label is a dart of its own face.
  std::array<DartId, 3> old_labels{};
  std::size_t faces_before = 0;
  std::size_t self_paired_before = 0;
  for (const SigmaChange& c : changed_) {
    const DartId start = graph::reverse(c.dart);
    const DartId label = label_[start];
    if (std::find(old_labels.begin(), old_labels.begin() + faces_before, label) !=
        old_labels.begin() + faces_before) {
      continue;
    }
    old_labels[faces_before++] = label;
    DartId d = start;
    do {
      touched_.push_back(d);
      touched_label_.push_back(label);
      if (graph::dart_side(d) == 0 && label_[graph::reverse(d)] == label) ++self_paired_before;
      d = phi(d);
    } while (d != start);
  }

  // Relink, then retrace: the new faces through the changed darts cover the
  // touched darts exactly, since every other face keeps its phi.
  for (const SigmaChange& c : changed_) next_[c.dart] = c.new_next;
  for (DartId d : touched_) label_[d] = graph::kInvalidDart;
  std::size_t faces_after = 0;
  std::size_t self_paired_after = 0;
  for (const SigmaChange& c : changed_) {
    const DartId start = graph::reverse(c.dart);
    if (label_[start] != graph::kInvalidDart) continue;
    ++faces_after;
    DartId d = start;
    do {
      label_[d] = start;
      // Counted once, when the second dart of the edge joins this face.
      if (label_[graph::reverse(d)] == start) ++self_paired_after;
      d = phi(d);
    } while (d != start);
  }
  faces_ = faces_ - faces_before + faces_after;
  self_paired_ = self_paired_ - self_paired_before + self_paired_after;
}

void IncrementalFaces::revert() {
  if (moved_node_ == graph::kInvalidNode) {
    throw std::logic_error("IncrementalFaces::revert: no move to undo");
  }
  move_within(order_.data() + first_[moved_node_], put_, take_);
  for (const SigmaChange& c : changed_) next_[c.dart] = c.old_next;
  for (std::size_t i = 0; i < touched_.size(); ++i) label_[touched_[i]] = touched_label_[i];
  faces_ = old_faces_;
  self_paired_ = old_self_paired_;
  moved_node_ = graph::kInvalidNode;
}

RotationSystem IncrementalFaces::rotation() const {
  std::vector<std::vector<DartId>> orders(graph_->node_count());
  for (NodeId v = 0; v < graph_->node_count(); ++v) {
    const auto order = order_at(v);
    orders[v].assign(order.begin(), order.end());
  }
  return RotationSystem::from_orders(*graph_, std::move(orders));
}

void IncrementalFaces::verify() const {
  const Graph& g = *graph_;
  const RotationSystem rot = rotation();
  for (DartId d = 0; d < g.dart_count(); ++d) {
    if (next_[d] != rot.next_at_node(d)) {
      throw std::logic_error("IncrementalFaces: sigma out of sync with the orders");
    }
  }
  const FaceSet traced = trace_faces(rot);
  if (traced.face_count() != faces_) {
    throw std::logic_error("IncrementalFaces: face count " + std::to_string(faces_) +
                           " but a full trace finds " +
                           std::to_string(traced.face_count()));
  }
  if (self_paired_edges(g, traced).size() != self_paired_) {
    throw std::logic_error("IncrementalFaces: self-paired count disagrees with a full trace");
  }
  // Same partition: one label per traced face, and no label on two faces.
  std::vector<DartId> label_of_face(traced.face_count(), graph::kInvalidDart);
  for (DartId d = 0; d < g.dart_count(); ++d) {
    DartId& label = label_of_face[traced.face_of[d]];
    if (label == graph::kInvalidDart) label = label_[d];
    if (label != label_[d]) {
      throw std::logic_error("IncrementalFaces: one traced face carries two labels");
    }
  }
  std::sort(label_of_face.begin(), label_of_face.end());
  if (std::adjacent_find(label_of_face.begin(), label_of_face.end()) != label_of_face.end()) {
    throw std::logic_error("IncrementalFaces: one label spans two traced faces");
  }
}

}  // namespace pr::embed
