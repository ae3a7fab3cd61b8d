// Event-driven failure storm with link flapping (paper Section 7).
//
// Runs several independent storm replicas on GEANT: each replica streams
// packets between random pairs while links fail and recover on a schedule,
// with a FlapDamper enforcing the hold-down rule so that restores only commit
// after the link has stayed down long enough.  Replicas are sharded across
// the parallel sweep executor; each draws from its own RNG stream split off
// the base seed (sim::split_seed), so the aggregate comparison of Packet
// Re-cycling against plain SPF is reproducible for any thread count.
//
//   $ ./failure_storm [seed] [replicas] [threads]
#include <cstdint>
#include <iostream>
#include <vector>

#include "analysis/protocols.hpp"
#include "core/pr_protocol.hpp"
#include "graph/rng.hpp"
#include "net/event_sim.hpp"
#include "net/failure_model.hpp"
#include "route/static_spf.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

namespace {

struct Tally {
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  double cost = 0;

  void merge(const Tally& other) {
    delivered += other.delivered;
    dropped += other.dropped;
    cost += other.cost;
  }
};

/// One replica's outcome; filled by exactly one worker, merged in replica
/// order afterwards.
struct StormResult {
  Tally pr;
  Tally spf;
  std::size_t events = 0;
  std::size_t residual_failures = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pr;

  // Validated like the thread count: junk such as "abc" must not silently
  // become seed 0, and replicas sizes an allocation, so a "-1" wrapped
  // through strtoull must not become 2^64-1 storms.
  std::size_t seed = 42;
  std::size_t replicas = 4;
  if ((argc > 1 && !sim::parse_count_arg(argv[1], UINT64_MAX, seed)) ||
      (argc > 2 &&
       (!sim::parse_count_arg(argv[2], 1000000, replicas) || replicas == 0))) {
    std::cerr << "usage: failure_storm [seed] [replicas, 1..1000000] [threads]\n";
    return 1;
  }
  const std::size_t threads = sim::threads_from_arg(argc, argv, 3);

  const graph::Graph g = topo::geant();
  const analysis::ProtocolSuite suite(g);

  std::vector<StormResult> results(replicas);
  sim::SweepExecutor executor(threads);

  executor.run(
      replicas,
      [&](std::size_t unit, sim::WorkerContext& ctx) {
        // Per-replica world: its own timeline, link state and protocol
        // instances; the shared suite tables are immutable.
        core::PacketRecycling pr_proto(suite.routes(), suite.cycle_table());
        route::StaticSpf spf_proto(suite.routes());

        net::Network network(g);
        net::Simulator simulator;
        net::FlapDamper damper(simulator, network, /*hold_down=*/0.5);
        graph::Rng& rng = ctx.rng();  // split_seed(seed, unit) stream

        // Storm: every 200 ms a random link fails; restore requested 300 ms
        // later.  The damper holds restores back and failures cancel them.
        const double kStormEnd = 10.0;
        for (double t = 0.5; t < kStormEnd; t += 0.2) {
          const auto e = static_cast<graph::EdgeId>(rng.below(g.edge_count()));
          simulator.at(t, [&damper, e] { damper.fail(e); });
          simulator.at(t + 0.3, [&damper, e] { damper.request_restore(e); });
        }

        // Traffic: 40 packets per second between random distinct pairs, under
        // both protocols simultaneously (separate tallies, same timeline).
        // Accumulate into a worker-local result and publish once at the end:
        // adjacent results[] slots share cache lines, and the delivery
        // callbacks fire on every packet.
        StormResult out;
        for (double t = 0.0; t < kStormEnd; t += 0.025) {
          const auto s = static_cast<graph::NodeId>(rng.below(g.node_count()));
          auto d = static_cast<graph::NodeId>(rng.below(g.node_count() - 1));
          if (d >= s) ++d;
          const auto count = [](Tally& tally) {
            return [&tally](const net::PathTrace& trace) {
              if (trace.delivered()) {
                ++tally.delivered;
                tally.cost += trace.cost;
              } else {
                ++tally.dropped;
              }
            };
          };
          net::launch_packet(simulator, network, pr_proto, s, d, t, count(out.pr));
          net::launch_packet(simulator, network, spf_proto, s, d, t, count(out.spf));
        }

        simulator.run();
        out.events = simulator.events_processed();
        out.residual_failures = network.failure_count();
        results[unit] = out;
      },
      seed);

  // Canonical-order merge across replicas.
  Tally pr_tally;
  Tally spf_tally;
  std::size_t events = 0;
  for (const StormResult& r : results) {
    pr_tally.merge(r.pr);
    spf_tally.merge(r.spf);
    events += r.events;
  }

  const auto report = [](const char* name, const Tally& tally) {
    const std::size_t total = tally.delivered + tally.dropped;
    std::cout << name << ": " << tally.delivered << "/" << total << " delivered ("
              << 100.0 * static_cast<double>(tally.delivered) /
                     static_cast<double>(total)
              << "%), mean delivered-path cost "
              << (tally.delivered ? tally.cost / static_cast<double>(tally.delivered)
                                  : 0.0)
              << "\n";
  };
  std::cout << "GEANT failure storm, base seed " << seed << ", " << replicas
            << " replica(s) on " << executor.thread_count() << " thread(s), "
            << events << " events total\n";
  report("packet-recycling", pr_tally);
  report("plain-spf       ", spf_tally);
  for (std::size_t r = 0; r < results.size(); ++r) {
    std::cout << "  replica " << r << " (seed " << sim::split_seed(seed, r)
              << "): pr " << results[r].pr.delivered << "/"
              << results[r].pr.delivered + results[r].pr.dropped << ", spf "
              << results[r].spf.delivered << "/"
              << results[r].spf.delivered + results[r].spf.dropped
              << ", residual failed links " << results[r].residual_failures << "\n";
  }
  return 0;
}
