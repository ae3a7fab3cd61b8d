// Reproduces the six panels of the paper's Figure 2.
//
// `bench_figure2 <a|b|c|d|e|f> [threads]` picks a topology and a failure
// count from the panel table, samples (or enumerates) connectivity-preserving
// failure scenarios, routes every affected ordered pair under
// Re-convergence / FCP / Packet Re-cycling, and prints the CCDF series
// P(Stretch > x | affected path) on the paper's axis x = 1..15, followed by
// delivery statistics.  `threads` falls back to PR_SWEEP_THREADS; 0 = one
// per hardware thread.
#include <cstdint>
#include <cstring>
#include <iostream>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

namespace {

using namespace pr;

struct Panel {
  const char* letter;
  const char* topology;  ///< display name
  graph::Graph (*make)();
  std::size_t failures;
};

constexpr Panel kPanels[] = {
    {"a", "Abilene", topo::abilene, 1},    {"b", "Teleglobe", topo::teleglobe, 1},
    {"c", "Geant", topo::geant, 1},        {"d", "Abilene", topo::abilene, 4},
    {"e", "Teleglobe", topo::teleglobe, 10}, {"f", "Geant", topo::geant, 16},
};

constexpr std::size_t kSampledScenarios = 300;  // when enumeration is too big
constexpr std::uint64_t kSeed = 0xF16;

int run_panel(const Panel& panel, std::size_t threads) {
  const graph::Graph g = panel.make();
  const std::size_t failures = panel.failures;
  std::cout << "Figure 2(" << panel.letter << "): " << panel.topology << " with "
            << failures << (failures == 1 ? " failure" : " simultaneous failures")
            << "\n";
  std::cout << "topology: " << g.node_count() << " nodes, " << g.edge_count()
            << " links\n";

  const analysis::ProtocolSuite suite(g);
  std::cout << "embedding: genus " << suite.embedding().genus << ", "
            << suite.embedding().faces.face_count() << " cycles, PR-safe "
            << (suite.embedding().supports_pr() ? "yes" : "no") << "\n";

  std::vector<graph::EdgeSet> scenarios;
  double combos = 1.0;
  for (std::size_t i = 0; i < failures; ++i) {
    combos *= static_cast<double>(g.edge_count() - i) / static_cast<double>(i + 1);
  }
  if (failures == 1) {
    scenarios = net::all_single_failures(g);
    std::cout << "scenarios: all " << scenarios.size() << " single link failures\n";
  } else if (combos <= 50000.0) {
    // The subset space is small enough to enumerate: take EVERY
    // connectivity-preserving failure combination (exhaustive, like the
    // single-failure panels).
    for (auto& candidate : net::enumerate_failures(g, failures)) {
      if (graph::is_connected(g, &candidate)) scenarios.push_back(std::move(candidate));
    }
    std::cout << "scenarios: all " << scenarios.size()
              << " connectivity-preserving failure sets (exhaustive over "
              << static_cast<std::size_t>(combos) << " combinations)\n";
  } else {
    graph::Rng rng(kSeed);
    scenarios = net::sample_connected_failures(g, failures, kSampledScenarios, rng);
    std::cout << "scenarios: " << scenarios.size()
              << " sampled connectivity-preserving failure sets (seed " << kSeed
              << ")\n";
  }
  std::cout << "\n";

  // The scenario enumeration above is the work list; shard it across the
  // sweep executor (per-scenario units, canonical-order fold, so the output
  // matches a 1-thread sweep bit for bit at any thread count).
  sim::SweepExecutor executor(threads);
  std::cout << "sweep: " << executor.thread_count() << " thread(s)\n\n";
  const auto result =
      analysis::run_stretch_experiment(g, scenarios, suite.paper_trio(), executor);
  std::cout << analysis::format_stretch_report(result, analysis::paper_stretch_axis());

  for (const auto& p : result.protocols) {
    if (p.name == "Packet Re-cycling" && p.dropped_reachable > 0) {
      std::cout << "\nnote: " << p.dropped_reachable
                << " PR packets livelocked although their"
                << " destinations stayed reachable.\n"
                << "      " << panel.topology << " is non-planar (genus "
                << suite.embedding().genus << " embedding); on a handle a"
                << " joined-region boundary\n"
                << "      need not separate the surface, so the decreasing-distance"
                << " exit can be\n"
                << "      unreachable (reproduction finding F2, DESIGN.md section 7)."
                << "  The CCDF\n"
                << "      counts these as infinite stretch; FCP delivers them.\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    for (const Panel& panel : kPanels) {
      if (std::strcmp(argv[1], panel.letter) == 0) {
        return run_panel(panel, sim::threads_from_arg(argc, argv, 2));
      }
    }
  }
  std::cerr << "usage: bench_figure2 <a|b|c|d|e|f> [threads]\n";
  return 1;
}
