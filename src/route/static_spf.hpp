// Plain shortest-path forwarding with no repair: packets meeting a failed
// link are dropped.  This models a router between failure detection and
// routing-protocol reconvergence -- the loss window the paper's introduction
// quantifies (a loaded OC-192 drops >10^5 packets per second of outage).
#pragma once

#include "net/forwarding.hpp"
#include "route/routing_db.hpp"

namespace pr::route {

class StaticSpf final : public net::ForwardingProtocol {
 public:
  /// `routes` must outlive the protocol.
  explicit StaticSpf(const RoutingDb& routes) : routes_(&routes) {}

  [[nodiscard]] net::ForwardingDecision forward(const net::Network& net, NodeId at,
                                                DartId arrived_over,
                                                net::Packet& packet) override;

  [[nodiscard]] std::string_view name() const noexcept override { return "spf"; }

  [[nodiscard]] bool header_determines_path() const noexcept override { return true; }

 private:
  const RoutingDb* routes_;
};

}  // namespace pr::route
