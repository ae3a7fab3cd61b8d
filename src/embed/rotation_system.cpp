#include "embed/rotation_system.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pr::embed {

RotationSystem::RotationSystem(const Graph& g, std::vector<std::vector<DartId>> orders)
    : graph_(&g),
      orders_(std::move(orders)),
      sigma_next_(g.dart_count(), graph::kInvalidDart),
      sigma_prev_(g.dart_count(), graph::kInvalidDart) {
  if (orders_.size() != g.node_count()) {
    throw std::invalid_argument("RotationSystem: one order per node required");
  }
  for (NodeId v = 0; v < g.node_count(); ++v) rebuild_node(v);
  validate();
}

void RotationSystem::rebuild_node(NodeId v) {
  const auto& order = orders_[v];
  const auto expected = graph_->out_darts(v);
  if (order.size() != expected.size()) {
    throw std::invalid_argument("RotationSystem: order size mismatch at node " +
                                std::to_string(v));
  }
  // Check the order is a permutation of the node's out-darts.
  std::vector<DartId> sorted_order(order.begin(), order.end());
  std::vector<DartId> sorted_expected(expected.begin(), expected.end());
  std::sort(sorted_order.begin(), sorted_order.end());
  std::sort(sorted_expected.begin(), sorted_expected.end());
  if (sorted_order != sorted_expected) {
    throw std::invalid_argument("RotationSystem: order is not a permutation of out-darts at node " +
                                std::to_string(v));
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const DartId d = order[i];
    const DartId nxt = order[(i + 1) % order.size()];
    sigma_next_[d] = nxt;
    sigma_prev_[nxt] = d;
  }
}

RotationSystem RotationSystem::identity(const Graph& g) {
  std::vector<std::vector<DartId>> orders(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto outs = g.out_darts(v);
    orders[v].assign(outs.begin(), outs.end());
  }
  return RotationSystem(g, std::move(orders));
}

RotationSystem RotationSystem::random(const Graph& g, graph::Rng& rng) {
  std::vector<std::vector<DartId>> orders(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto outs = g.out_darts(v);
    orders[v].assign(outs.begin(), outs.end());
    std::shuffle(orders[v].begin(), orders[v].end(), rng.engine());
  }
  return RotationSystem(g, std::move(orders));
}

RotationSystem RotationSystem::from_orders(const Graph& g,
                                           std::vector<std::vector<DartId>> orders) {
  return RotationSystem(g, std::move(orders));
}

RotationSystem RotationSystem::from_neighbor_orders(
    const Graph& g, const std::vector<std::vector<NodeId>>& neighbor_orders) {
  if (neighbor_orders.size() != g.node_count()) {
    throw std::invalid_argument("from_neighbor_orders: one order per node required");
  }
  std::vector<std::vector<DartId>> orders(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    orders[v].reserve(neighbor_orders[v].size());
    for (NodeId nb : neighbor_orders[v]) {
      const auto d = g.find_dart(v, nb);
      if (!d.has_value()) {
        throw std::invalid_argument("from_neighbor_orders: " + g.display_name(v) +
                                    " has no edge to " + g.display_name(nb));
      }
      // Reject multigraphs: a second parallel edge makes the mapping ambiguous.
      bool parallel = false;
      for (DartId other : g.out_darts(v)) {
        if (other != *d && g.dart_head(other) == nb) parallel = true;
      }
      if (parallel) {
        throw std::invalid_argument(
            "from_neighbor_orders: parallel edges present, use from_orders");
      }
      orders[v].push_back(*d);
    }
  }
  return RotationSystem(g, std::move(orders));
}

void RotationSystem::validate() const {
  const Graph& g = *graph_;
  for (DartId d = 0; d < g.dart_count(); ++d) {
    const DartId nxt = sigma_next_.at(d);
    if (nxt == graph::kInvalidDart) {
      throw std::logic_error("RotationSystem: dart with no successor");
    }
    if (g.dart_tail(nxt) != g.dart_tail(d)) {
      throw std::logic_error("RotationSystem: sigma leaves the node");
    }
    if (sigma_prev_.at(nxt) != d) {
      throw std::logic_error("RotationSystem: next/prev out of sync");
    }
  }
}

}  // namespace pr::embed
