#include "route/igp.hpp"

#include <stdexcept>

namespace pr::route {

using graph::EdgeId;
using graph::NodeId;

/// Data-plane forwarding against the per-router tables of the moment.
class LinkStateIgp::Forwarding final : public net::ForwardingProtocol {
 public:
  /// `tables` is the IGP's shared db: rebuilt in place by every recompute,
  /// never reallocated (the IGP refuses to recompute on a mutated graph).
  Forwarding(LinkStateIgp& igp, const RoutingDb& tables)
      : igp_(&igp), tables_(&tables) {}

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, NodeId at,
                                                graph::DartId /*arrived_over*/,
                                                net::Packet& packet) override {
    if (at == packet.destination) return net::ForwardingDecision::deliver();
    // COW lookup: this router's overlay diff when it has one for the
    // destination, else the shared pristine snapshot.
    const graph::DartId out = igp_->overlays_[at].next_dart_or(
        packet.destination,
        tables_->pristine_next_dart(at, packet.destination));
    if (out == graph::kInvalidDart) {
      return net::ForwardingDecision::drop(net::DropReason::kNoRoute);
    }
    if (!net.dart_usable(out)) {
      // The router's own interface is down but its table still points there:
      // the classic pre-convergence loss.
      return net::ForwardingDecision::drop(net::DropReason::kPolicy);
    }
    return net::ForwardingDecision::forward(out);
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "igp"; }

  [[nodiscard]] const RoutingDb& tables() const noexcept { return *tables_; }

 private:
  LinkStateIgp* igp_;
  const RoutingDb* tables_;
};

LinkStateIgp::LinkStateIgp(net::Simulator& sim, net::Network& network)
    : LinkStateIgp(sim, network, Timings{}) {}

LinkStateIgp::~LinkStateIgp() = default;

net::ForwardingProtocol& LinkStateIgp::protocol() noexcept { return *protocol_; }

LinkStateIgp::LinkStateIgp(net::Simulator& sim, net::Network& network, Timings timings)
    : sim_(&sim),
      network_(&network),
      timings_(timings),
      graph_structure_id_(network.graph().structure_id()) {
  const auto& g = network.graph();
  known_failures_.reserve(g.node_count());
  overlays_.resize(g.node_count());
  recompute_pending_.assign(g.node_count(), 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    known_failures_.emplace_back(g.edge_count());
    overlays_[v].reset(g.node_count());
  }
  // The pristine build: until the first recompute its live columns are what
  // pristine_next_dart() reads, and later rebuilds keep the same db object.
  protocol_ = std::make_unique<Forwarding>(
      *this, tables_.tables(g, graph::EdgeSet(g.edge_count())));
}

std::size_t LinkStateIgp::table_bytes() const noexcept {
  std::size_t total = protocol_->tables().bytes();
  for (const auto& overlay : overlays_) total += overlay.bytes();
  return total;
}

void LinkStateIgp::on_link_failure(EdgeId e) {
  ++injected_failures_;
  const auto& g = network_->graph();
  // Both endpoints detect the loss after the detection delay, adopt the
  // information and start flooding.
  for (const NodeId endpoint : {g.edge_u(e), g.edge_v(e)}) {
    sim_->after(timings_.detection_delay, [this, endpoint, e] { learn(endpoint, e); });
  }
}

void LinkStateIgp::learn(NodeId v, EdgeId e) {
  if (known_failures_[v].contains(e)) return;  // duplicate LSA: drop silently
  known_failures_[v].insert(e);
  schedule_recompute(v);
  flood_from(v, e);
}

void LinkStateIgp::flood_from(NodeId v, EdgeId e) {
  const auto& g = network_->graph();
  for (const graph::DartId d : g.out_darts(v)) {
    const EdgeId link = graph::dart_edge(d);
    // LSAs travel only over links the sender believes usable AND that are
    // physically up at transmission time.
    if (known_failures_[v].contains(link) || !network_->link_up(link)) continue;
    const NodeId neighbour = g.dart_head(d);
    ++lsa_messages_;
    sim_->after(network_->link_delay(link) + timings_.lsa_processing,
                [this, neighbour, e] { learn(neighbour, e); });
  }
}

void LinkStateIgp::schedule_recompute(NodeId v) {
  if (recompute_pending_[v] != 0) return;  // SPF throttled: one run pending
  recompute_pending_[v] = 1;
  sim_->after(timings_.spf_delay, [this, v] {
    recompute_pending_[v] = 0;
    // Delta-repair the SHARED tables to this router's knowledge (a cache hit
    // when the previous recompute already left them there -- common once
    // flooding has equalised the link-state databases), then snapshot the
    // router's sparse row diff.  No per-router n^2 columns anywhere.
    const auto& g = network_->graph();
    if (g.structure_id() != graph_structure_id_) {
      throw std::logic_error(
          "LinkStateIgp: graph was mutated since the IGP was built");
    }
    overlays_[v].assign_row(tables_.tables(g, known_failures_[v]), v);
    ++spf_runs_;
    last_update_ = sim_->now();
  });
}

bool LinkStateIgp::converged(NodeId v) const {
  // v is converged when it knows every injected failure and has folded that
  // knowledge into its table (no recompute pending).
  if (recompute_pending_[v] != 0) return false;
  const auto& actual = network_->failed_links();
  for (const EdgeId e : actual.elements()) {
    if (!known_failures_[v].contains(e)) return false;
  }
  return true;
}

bool LinkStateIgp::fully_converged() const {
  for (NodeId v = 0; v < network_->graph().node_count(); ++v) {
    if (!converged(v)) return false;
  }
  return true;
}

}  // namespace pr::route
