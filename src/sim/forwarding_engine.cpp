#include "sim/forwarding_engine.hpp"

#include <stdexcept>
#include <string>

#include "obs/telemetry.hpp"

namespace pr::sim {

HopDecision ForwardingEngine::decide(FlowState& fs) const {
  const graph::Graph& g = net_->graph();
  if (fs.at == fs.packet.destination) {
    return {HopDecision::Kind::kDelivered, graph::kInvalidDart, DropReason::kNone};
  }
  if (fs.packet.ttl == 0) {
    return {HopDecision::Kind::kDropped, graph::kInvalidDart, DropReason::kTtlExpired};
  }
  const net::ForwardingDecision decision =
      protocol_->forward(*net_, fs.at, fs.arrived_over, fs.packet);
  switch (decision.action) {
    case net::ForwardingDecision::Action::kDeliver:
      // Protocols may only deliver at the destination.
      if (fs.at != fs.packet.destination) {
        throw std::logic_error(
            "ForwardingEngine: protocol delivered away from destination");
      }
      return {HopDecision::Kind::kDelivered, graph::kInvalidDart, DropReason::kNone};
    case net::ForwardingDecision::Action::kDrop:
      return {HopDecision::Kind::kDropped, graph::kInvalidDart, decision.reason};
    case net::ForwardingDecision::Action::kForward:
      break;
  }
  const DartId out = decision.out_dart;
  if (out == graph::kInvalidDart || g.dart_tail(out) != fs.at) {
    throw std::logic_error("ForwardingEngine: protocol forwarded from the wrong node");
  }
  if (!net_->dart_usable(out)) {
    throw std::logic_error("ForwardingEngine: protocol forwarded over a failed link (" +
                           g.dart_name(out) + ")");
  }
  return {HopDecision::Kind::kForward, out, DropReason::kNone};
}

void ForwardingEngine::commit(FlowState& fs, DartId out) const {
  const graph::Graph& g = net_->graph();
  fs.cost += g.edge_weight(graph::dart_edge(out));
  ++fs.hops;
  --fs.packet.ttl;
  fs.at = g.dart_head(out);
  fs.arrived_over = out;
}

std::vector<FlowSpec> all_pairs_flows(const graph::Graph& g) {
  std::vector<FlowSpec> flows;
  if (g.node_count() < 2) return flows;
  flows.reserve(g.node_count() * (g.node_count() - 1));
  for (NodeId s = 0; s < g.node_count(); ++s) {
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (s != t) flows.push_back(FlowSpec{s, t});
    }
  }
  return flows;
}

namespace {

using OrbitHop = BatchResult::OrbitHop;

/// Finishes a flow whose post-hop state just repeated: `orbit` holds the
/// hops since Brent's saved state, which equals the current one, so the
/// remaining fs.packet.ttl hops cross orbit[0], orbit[1], ... in turn.
/// Applies them to `fs` without a protocol call and reports each orbit dart
/// once to `charge` with its crossing count.
template <typename Charge>
void finish_orbit(const graph::Graph& g, std::span<const OrbitHop> orbit, FlowState& fs,
                  bool full_trace, std::vector<NodeId>& nodes, std::vector<DartId>& darts,
                  Charge&& charge) {
  const std::size_t len = orbit.size();
  const std::uint32_t rest = fs.packet.ttl;
  // Hop order, one weight at a time: the same additions the per-hop walk
  // makes, so the cost is bitwise equal.
  for (std::uint32_t m = 0, j = 0; m < rest; ++m) {
    fs.cost += g.edge_weight(graph::dart_edge(orbit[j].dart));
    if (full_trace) {
      darts.push_back(orbit[j].dart);
      nodes.push_back(g.dart_head(orbit[j].dart));
    }
    if (++j == len) j = 0;
  }
  const std::uint32_t laps = static_cast<std::uint32_t>(rest / len);
  const std::size_t partial = rest % len;
  for (std::size_t j = 0; j < len; ++j) {
    const std::uint32_t crossings = laps + (j < partial ? 1 : 0);
    if (crossings != 0) charge(orbit[j].dart, crossings);
  }
  if (rest != 0) {
    const OrbitHop& last = orbit[(rest - 1) % len];
    fs.arrived_over = last.dart;
    fs.at = g.dart_head(last.dart);
    fs.packet.pr_bit = last.pr_bit;
    fs.packet.dd = last.dd;
  }
  fs.hops += rest;
  fs.packet.ttl = 0;
}

#ifndef NDEBUG
/// Debug self-check of the orbit contract: a fresh decision at the detected
/// state must take the orbit's first hop with its header.
void check_orbit(const ForwardingEngine& engine, const FlowState& fs,
                 const OrbitHop& next) {
  FlowState probe = fs;
  probe.packet.ttl = 1;  // the decision must not depend on it
  const HopDecision d = engine.decide(probe);
  if (d.kind != HopDecision::Kind::kForward || d.out_dart != next.dart ||
      probe.packet.pr_bit != next.pr_bit || probe.packet.dd != next.dd) {
    throw std::logic_error(
        "ForwardingEngine: protocol '" + std::string(engine.protocol().name()) +
        "' claims header_determines_path() but left a repeated state differently");
  }
}
#endif

/// The one batch loop both route_batch overloads drive.  The friended public
/// functions pass BatchResult's internals in, so this stays file-local.
/// `charge(flow index, dart, crossings)` receives every dart a flow crosses:
/// once per hop with crossings 1, and once per orbit dart with its crossing
/// count; it compiles away when empty.
template <typename Charge>
void run_flow_batch(const Network& net, ForwardingProtocol& protocol,
                    std::span<const FlowSpec> flows, TraceMode mode,
                    std::vector<FlowStats>& stats, std::vector<NodeId>& nodes,
                    std::vector<DartId>& darts, std::vector<std::size_t>& offsets,
                    std::vector<OrbitHop>& orbit, std::size_t& delivered,
                    Charge&& charge) {
  const graph::Graph& g = net.graph();
  for (const FlowSpec& flow : flows) {
    if (flow.source >= g.node_count() || flow.destination >= g.node_count()) {
      throw std::out_of_range("route_batch: endpoint out of range");
    }
  }
  const std::uint32_t fallback_ttl = net::default_ttl(g);
  const bool full_trace = mode == TraceMode::kFullTrace;
  const bool compress = protocol.header_determines_path();

  stats.reserve(flows.size());
  if (full_trace) offsets.reserve(flows.size() + 1);

  const ForwardingEngine engine(net, protocol);
  // Dataplane telemetry accumulates in locals and flushes ONCE per batch:
  // the hot loop never touches thread-local state, and a disabled sink costs
  // exactly one branch per route_batch call.
  const bool observed = obs::enabled();
  std::uint64_t obs_delivered = 0;
  std::uint64_t obs_dropped = 0;
  std::uint64_t obs_hops = 0;
  std::uint64_t obs_decisions = 0;
  std::uint64_t obs_cycle_flows = 0;
  std::uint64_t obs_cycle_hops = 0;
  FlowState fs;  // recycled across flows; FCP-list capacity survives reset()
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& flow = flows[i];
    fs.reset(flow.source, flow.destination,
             flow.ttl == 0 ? fallback_ttl : flow.ttl, flow.traffic_class);
    if (full_trace) {
      offsets.push_back(nodes.size());
      nodes.push_back(flow.source);
    }

    // Brent's cycle finding over post-hop states: `saved` is re-placed
    // whenever the hops since it reach `power`, which doubles, so a repeat
    // is found within about twice the orbit's depth plus its length.  The
    // source state (no arrival dart) never recurs and starts nothing.
    OrbitHop saved;
    std::size_t power = 1;
    orbit.clear();
    FlowOutcome outcome;
    while (true) {
      const HopDecision d = engine.decide(fs);
      if (d.kind == HopDecision::Kind::kDelivered) {
        outcome = {DeliveryStatus::kDelivered, DropReason::kNone};
        break;
      }
      if (d.kind == HopDecision::Kind::kDropped) {
        // Only the TTL guard drops without asking the protocol.
        if (d.reason != DropReason::kTtlExpired) ++obs_decisions;
        outcome = {DeliveryStatus::kDropped, d.reason};
        break;
      }
      ++obs_decisions;
      engine.commit(fs, d.out_dart);
      if (full_trace) {
        nodes.push_back(fs.at);
        darts.push_back(fs.arrived_over);
      }
      charge(i, fs.arrived_over, std::uint32_t{1});
      if (!compress) continue;

      const OrbitHop hop{fs.arrived_over, fs.packet.dd, fs.packet.pr_bit};
      orbit.push_back(hop);
      if (hop == saved) {
#ifndef NDEBUG
        check_orbit(engine, fs, orbit.front());
#endif
        finish_orbit(g, orbit, fs, full_trace, nodes, darts,
                     [&](DartId dart, std::uint32_t crossings) {
                       charge(i, dart, crossings);
                     });
        outcome = {DeliveryStatus::kDropped, DropReason::kTtlExpired};
        break;
      }
      if (orbit.size() == power) {
        saved = hop;
        power *= 2;
        orbit.clear();
      }
    }

    stats.push_back(FlowStats{outcome.status, outcome.reason, fs.hops, fs.cost});
    if (outcome.status == DeliveryStatus::kDelivered) ++delivered;
    if (observed) {
      obs_hops += fs.hops;
      if (outcome.status == DeliveryStatus::kDelivered) {
        ++obs_delivered;
      } else {
        ++obs_dropped;
      }
      if (fs.packet.pr_bit) {
        // The flow ended in PR cycle-follow mode: its whole walk priced the
        // paper's recovery mechanism, so its hop count feeds the
        // cycle-follow-length telemetry.
        ++obs_cycle_flows;
        obs_cycle_hops += fs.hops;
      }
    }
  }
  if (full_trace) offsets.push_back(nodes.size());
  if (observed) {
    obs::count(obs::Counter::kFlowsRouted, flows.size());
    obs::count(obs::Counter::kFlowsDelivered, obs_delivered);
    obs::count(obs::Counter::kFlowsDropped, obs_dropped);
    obs::count(obs::Counter::kForwardHops, obs_hops);
    obs::count(obs::Counter::kForwardDecisions, obs_decisions);
    obs::count(obs::Counter::kCycleFollowFlows, obs_cycle_flows);
    obs::count(obs::Counter::kCycleFollowHops, obs_cycle_hops);
  }
}

}  // namespace

void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, TraceMode mode, BatchResult& out) {
  out.clear();
  out.mode_ = mode;
  run_flow_batch(net, protocol, flows, mode, out.stats_, out.nodes_, out.darts_,
                 out.offsets_, out.orbit_, out.delivered_,
                 [](std::size_t, DartId, std::uint32_t) {});
}

BatchResult route_batch(const Network& net, ForwardingProtocol& protocol,
                        std::span<const FlowSpec> flows, TraceMode mode) {
  BatchResult out;
  route_batch(net, protocol, flows, mode, out);
  return out;
}

void route_batch(const Network& net, ForwardingProtocol& protocol,
                 std::span<const FlowSpec> flows, std::span<const double> demands,
                 traffic::LoadMap& load, TraceMode mode, BatchResult& out) {
  if (demands.size() != flows.size()) {
    throw std::invalid_argument("route_batch: one demand per flow required");
  }
  out.clear();
  out.mode_ = mode;
  load.reset(net.graph().dart_count());
  run_flow_batch(net, protocol, flows, mode, out.stats_, out.nodes_, out.darts_,
                 out.offsets_, out.orbit_, out.delivered_,
                 [&load, demands](std::size_t i, DartId d, std::uint32_t crossings) {
                   load.add(d, crossings * demands[i]);
                 });
}

}  // namespace pr::sim
