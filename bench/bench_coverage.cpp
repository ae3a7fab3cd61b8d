// Ablation A2: repair coverage -- what fraction of recoverable packets does
// each scheme deliver as the number of simultaneous failures grows?
//
// Compares PR (full DD protocol), PR's 1-bit variant (Section 4.2), LFA
// (RFC 5286), FCP, and plain SPF on Abilene and GEANT.  Scenarios are
// sampled WITHOUT a connectivity filter: "dropped-partitioned" packets had
// no possible route; "dropped-reachable" are genuine protocol coverage gaps.
// PR's guarantee says its dropped-reachable column must be zero on these
// planar topologies.
#include <iostream>

#include "analysis/protocols.hpp"
#include "analysis/report.hpp"
#include "net/failure_model.hpp"
#include "sim/parallel_sweep.hpp"
#include "topo/topologies.hpp"

int main(int argc, char** argv) {
  using namespace pr;
  const std::uint64_t seed = 0xC0FE;
  const std::size_t scenarios_per_k = 150;
  const std::size_t threads = sim::threads_from_arg(argc, argv, 1);
  sim::SweepExecutor executor(threads);

  for (const auto& [name, g] :
       {std::pair{"abilene", topo::abilene()}, {"geant", topo::geant()}}) {
    const analysis::ProtocolSuite suite(g);
    const std::vector<analysis::NamedFactory> protocols = {
        suite.pr(), suite.pr_single_bit(), suite.lfa(), suite.fcp(), suite.spf()};

    std::cout << "== " << name << " (" << g.node_count() << " nodes, "
              << g.edge_count() << " links), " << scenarios_per_k
              << " scenarios per failure count, seed " << std::hex << seed << std::dec
              << " ==\n";
    for (std::size_t k : {1U, 2U, 4U, 8U}) {
      if (k >= g.edge_count() / 2) continue;
      graph::Rng rng(seed + k);
      const auto scenarios = net::sample_any_failures(g, k, scenarios_per_k, rng);
      const auto result =
          analysis::run_stretch_experiment(g, scenarios, protocols, executor);
      std::cout << "\n-- " << k << " simultaneous failure(s) --\n"
                << analysis::format_coverage_report(result);
    }
    std::cout << "\n";
  }
  return 0;
}
