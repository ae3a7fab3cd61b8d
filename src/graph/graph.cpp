#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>

namespace pr::graph {

std::uint64_t Graph::next_structure_id() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void EdgeSet::insert(EdgeId e) {
  if (e >= member_.size()) {
    throw std::out_of_range("EdgeSet::insert: edge id " + std::to_string(e) +
                            " out of range (capacity " + std::to_string(member_.size()) + ")");
  }
  if (member_[e] == 0) {
    member_[e] = 1;
    elements_.push_back(e);
  }
}

void EdgeSet::erase(EdgeId e) {
  if (e < member_.size() && member_[e] != 0) {
    member_[e] = 0;
    elements_.erase(std::find(elements_.begin(), elements_.end(), e));
  }
}

void EdgeSet::clear() {
  for (EdgeId e : elements_) member_[e] = 0;
  elements_.clear();
}

Graph::Graph(std::size_t node_count)
    : out_darts_(node_count), labels_(node_count) {}

NodeId Graph::add_node(std::string label) {
  if (!label.empty() && find_node(label).has_value()) {
    throw std::invalid_argument("Graph::add_node: duplicate label '" + label + "'");
  }
  out_darts_.emplace_back();
  labels_.push_back(std::move(label));
  structure_id_ = next_structure_id();
  return static_cast<NodeId>(out_darts_.size() - 1);
}

EdgeId Graph::add_edge(NodeId u, NodeId v, Weight w) {
  if (u >= node_count() || v >= node_count()) {
    throw std::out_of_range("Graph::add_edge: endpoint out of range");
  }
  if (u == v) {
    throw std::invalid_argument("Graph::add_edge: self-loops are not allowed");
  }
  if (!(w > 0) || !std::isfinite(w)) {
    throw std::invalid_argument("Graph::add_edge: weight must be positive and finite");
  }
  const auto e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(EdgeRec{u, v, w});
  out_darts_[u].push_back(make_dart(e, 0));
  out_darts_[v].push_back(make_dart(e, 1));
  structure_id_ = next_structure_id();
  return e;
}

void Graph::set_edge_weight(EdgeId e, Weight w) {
  if (!(w > 0) || !std::isfinite(w)) {
    throw std::invalid_argument(
        "Graph::set_edge_weight: weight must be positive and finite");
  }
  edges_.at(e).w = w;
  structure_id_ = next_structure_id();
}

NodeId Graph::dart_tail(DartId d) const {
  const auto& rec = edges_.at(dart_edge(d));
  return dart_side(d) == 0 ? rec.u : rec.v;
}

NodeId Graph::dart_head(DartId d) const {
  const auto& rec = edges_.at(dart_edge(d));
  return dart_side(d) == 0 ? rec.v : rec.u;
}

DartId Graph::dart_from(NodeId u, EdgeId e) const {
  const auto& rec = edges_.at(e);
  if (rec.u == u) return make_dart(e, 0);
  if (rec.v == u) return make_dart(e, 1);
  throw std::invalid_argument("Graph::dart_from: node is not an endpoint of edge");
}

std::optional<EdgeId> Graph::find_edge(NodeId u, NodeId v) const {
  if (u >= node_count()) return std::nullopt;
  for (DartId d : out_darts_[u]) {
    if (dart_head(d) == v) return dart_edge(d);
  }
  return std::nullopt;
}

std::optional<DartId> Graph::find_dart(NodeId u, NodeId v) const {
  if (u >= node_count()) return std::nullopt;
  for (DartId d : out_darts_[u]) {
    if (dart_head(d) == v) return d;
  }
  return std::nullopt;
}

void Graph::set_node_label(NodeId v, std::string label) {
  if (!label.empty()) {
    auto existing = find_node(label);
    if (existing.has_value() && *existing != v) {
      throw std::invalid_argument("Graph::set_node_label: duplicate label '" + label + "'");
    }
  }
  labels_.at(v) = std::move(label);
}

std::optional<NodeId> Graph::find_node(std::string_view label) const {
  if (label.empty()) return std::nullopt;
  for (NodeId v = 0; v < labels_.size(); ++v) {
    if (labels_[v] == label) return v;
  }
  return std::nullopt;
}

std::string Graph::display_name(NodeId v) const {
  const std::string& l = labels_.at(v);
  return l.empty() ? "n" + std::to_string(v) : l;
}

std::string Graph::dart_name(DartId d) const {
  return display_name(dart_tail(d)) + "->" + display_name(dart_head(d));
}

Weight Graph::total_weight() const noexcept {
  Weight sum = 0;
  for (const auto& rec : edges_) sum += rec.w;
  return sum;
}

void Graph::check_invariants() const {
  if (out_darts_.size() != labels_.size()) {
    throw std::logic_error("Graph: node arrays out of sync");
  }
  std::size_t dart_total = 0;
  for (NodeId v = 0; v < out_darts_.size(); ++v) {
    for (DartId d : out_darts_[v]) {
      if (dart_edge(d) >= edges_.size()) throw std::logic_error("Graph: dangling dart");
      if (dart_tail(d) != v) throw std::logic_error("Graph: dart filed under wrong node");
      ++dart_total;
    }
  }
  if (dart_total != 2 * edges_.size()) {
    throw std::logic_error("Graph: dart count mismatch");
  }
  for (const auto& rec : edges_) {
    if (rec.u == rec.v) throw std::logic_error("Graph: self-loop present");
    if (!(rec.w > 0)) throw std::logic_error("Graph: non-positive weight");
  }
}

}  // namespace pr::graph
