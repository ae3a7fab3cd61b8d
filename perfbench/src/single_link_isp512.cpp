// single-link-isp512: every single-link failure of a 512-node hierarchical
// ISP, under a full 512 x 511 gravity matrix (1M pps) whose node masses come
// from the seed, PR / LFA / re-convergence, 1 thread.  Few flows cross any one link, so most
// of the cell time is charging the pristine paths of unaffected flows.
#include <numeric>
#include <optional>

#include "analysis/traffic.hpp"
#include "driver.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "traffic/congestion.hpp"
#include "traffic/incidence.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pr;

constexpr double kTotalDemandPps = 1e6;
constexpr std::size_t kThreads = 1;
/// The topology is fixed: cost and memory differ more between generated
/// ISPs (PR's loops depend on the embedding) than any bound could absorb.
constexpr std::uint64_t kTopologySeed = 512;

/// Gravity matrix over every ordered pair, with node masses
/// degree * U[0.5, 1.5) drawn from `seed`.
traffic::TrafficMatrix seeded_gravity(const graph::Graph& g, std::uint64_t seed) {
  graph::Rng rng(seed);
  std::vector<double> mass(g.node_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    mass[v] = static_cast<double>(g.degree(v)) * (0.5 + rng.unit());
  }
  traffic::TrafficMatrix demand(g.node_count());
  for (graph::NodeId s = 0; s < g.node_count(); ++s) {
    for (graph::NodeId t = 0; t < g.node_count(); ++t) {
      if (s != t) demand.set_demand(s, t, mass[s] * mass[t]);
    }
  }
  demand.scale_to_total(kTotalDemandPps);
  return demand;
}

class SingleLinkIsp512 {
 public:
  struct Setup {
    explicit Setup(const Options& o) {
      graph::Rng rng(kTopologySeed);
      isp = graph::hierarchical_isp(graph::sized_isp_params(o.tiny ? 48 : 512), rng);
      const graph::Graph& g = isp.graph;
      const auto t0 = Clock::now();
      suite = std::make_unique<analysis::ProtocolSuite>(g);
      suite_ms = seconds_since(t0) * 1e3;
      protocols = {suite->pr(), suite->lfa(), suite->reconvergence()};
      demand = seeded_gravity(g, o.seed);
      plan = size_plan(g, *suite, demand);
      scenarios.reserve(g.edge_count());
      for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
        scenarios.emplace_back(g.edge_count());
        scenarios.back().insert(e);
      }
      executor = std::make_unique<sim::SweepExecutor>(kThreads);
    }
    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    graph::IspTopology isp;
    std::unique_ptr<analysis::ProtocolSuite> suite;
    double suite_ms = 0.0;
    std::vector<analysis::NamedFactory> protocols;
    traffic::TrafficMatrix demand;
    traffic::CapacityPlan plan;
    std::vector<graph::EdgeSet> scenarios;
    std::unique_ptr<sim::SweepExecutor> executor;
  };

  explicit SingleLinkIsp512(const Options& o) : options_(o) {}

  static std::unique_ptr<Setup> make_setup(const Options& o) {
    return std::make_unique<Setup>(o);
  }

  SweepTiming sweep(Setup& s) {
    const sim::RunControl control;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    analysis::TrafficRunResult run = analysis::run_traffic_experiment_resilient(
        s.isp.graph, s.demand, s.plan, s.scenarios, s.protocols, *s.executor, control);
    const SweepTiming t{seconds_since(t0), process_cpu_seconds() - cpu0, s.scenarios.size(),
                        run.outcome.completed_units};
    if (!first_) {
      first_ = std::move(run.result);
    } else {
      if (!repeat_) repeat_.emplace("sweep.repeatable", options_.corrupt);
      for (std::size_t i = 0; i < first_->protocols.size(); ++i) {
        compare_rows(*repeat_, run.result.protocols[i].per_scenario,
                     first_->protocols[i].per_scenario, first_->protocols[i].name);
      }
    }
    return t;
  }

  /// Re-prices a seeded sample of scenarios through the full re-route
  /// oracle; every CongestionMetrics field must equal the sweep's.
  void check(Setup& s, Report& report) {
    if (repeat_) report.checks.push_back(std::make_unique<Check>(*repeat_));
    Check& c = report.check("isp512.sample_full_reroute");
    const std::size_t samples = options_.tiny ? 2 : 3;
    for (const std::size_t id :
         seeded_sample(options_.seed, 0xC4EC4ull, samples, s.scenarios.size())) {
      const analysis::TrafficExperimentResult oracle = analysis::run_traffic_experiment(
          s.isp.graph, s.demand, s.plan, std::span<const graph::EdgeSet>(&s.scenarios[id], 1),
          s.protocols, analysis::TrafficSweepMode::kFullReroute);
      for (std::size_t i = 0; i < s.protocols.size(); ++i) {
        compare_metrics(c, oracle.protocols[i].per_scenario[0],
                        first_->protocols[i].per_scenario.at(id),
                        s.protocols[i].name + " scenario " + std::to_string(id));
      }
    }

    // Known defect, reported and not gated: PR's single-failure guarantee
    // needs an embedding in which every link separates two faces.
    double lost = 0.0;
    std::size_t lossy = 0;
    for (const traffic::CongestionMetrics& m : first_->protocols[0].per_scenario) {
      lost += m.lost_pps;
      if (m.lost_pps > 0.0) ++lossy;
    }
    report.output("supports_pr", s.suite->embedding().supports_pr() ? "true" : "false");
    report.output("pr_lost_pps", std::to_string(lost));
    report.output("pr_lossy_scenarios", std::to_string(lossy));
    report.output("scenarios", std::to_string(s.scenarios.size()));
  }

  /// Replays every scenario: the few in which PR loops carry most of its
  /// forwarding, so a sample would make the sim metrics depend on the seed.
  void trace(Setup& s, Report& report) {
    std::vector<std::size_t> ids(s.scenarios.size());
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    // Untraced passes on both sides of the traced one, so drift and warm-up
    // do not read as tracing overhead.
    const Replay before = replay(s, ids, false);
    const Replay traced = replay(s, ids, true);
    const Replay after = replay(s, ids, false);

    Check& c = report.check("trace.per_scenario_bitwise");
    for (std::size_t i = 0; i < s.protocols.size(); ++i) {
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const std::string at = s.protocols[i].name + " scenario " + std::to_string(ids[k]);
        compare_metrics(c, traced.rows[i][k], first_->protocols[i].per_scenario.at(ids[k]), at);
      }
      compare_rows(c, before.rows[i], traced.rows[i], s.protocols[i].name + " untraced");
      compare_rows(c, after.rows[i], traced.rows[i], s.protocols[i].name + " untraced");
    }

    const TraceSummary summary = summarize(traced.tracer);
    replay_metrics(summary, traced.fwd, traced.traffic, ids.size(),
                   (before.seconds + after.seconds) / 2.0, traced.seconds, report);
    report.metric("traffic.index_build_ms", traced.index_build_ms);
    report.metric("route.pristine_build_ms", traced.pristine_build_ms);
    report.metric("route.table_mb", traced.table_mb);
    const std::string path = options_.scratch + "/trace-single-link-isp512-seed" +
                             std::to_string(options_.seed) + ".json";
    write_chrome_trace(traced.tracer, path);
    report.output("trace_file", "\"" + path + "\"");
  }

 private:
  struct Replay {
    explicit Replay(bool traced) : tracer(traced) {}
    Tracer tracer;
    std::vector<std::vector<traffic::CongestionMetrics>> rows;  // [protocol][sample]
    std::vector<ForwardCounters> fwd;
    TrafficCounters traffic;
    double seconds = 0.0;
    double index_build_ms = 0.0;
    double pristine_build_ms = 0.0;
    double table_mb = 0.0;
  };

  static void compare_metrics(Check& c, const traffic::CongestionMetrics& got,
                              const traffic::CongestionMetrics& want, const std::string& at) {
    c.same(got.max_utilization, want.max_utilization, at + " max_utilization");
    c.same(std::uint64_t{got.overloaded_links}, std::uint64_t{want.overloaded_links},
           at + " overloaded_links");
    c.same(got.offered_pps, want.offered_pps, at + " offered_pps");
    c.same(got.delivered_pps, want.delivered_pps, at + " delivered_pps");
    c.same(got.lost_pps, want.lost_pps, at + " lost_pps");
    c.same(got.stranded_pps, want.stranded_pps, at + " stranded_pps");
  }

  static void compare_rows(Check& c, const std::vector<traffic::CongestionMetrics>& got,
                           const std::vector<traffic::CongestionMetrics>& want,
                           const std::string& what) {
    c.same(std::uint64_t{got.size()}, std::uint64_t{want.size()}, what + " rows");
    for (std::size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
      compare_metrics(c, got[k], want[k], what + " row " + std::to_string(k));
    }
  }

  /// Single-threaded replay of the given scenarios through the layers'
  /// public functions, in the order and floating-point sequence of the
  /// library's incremental cell.
  Replay replay(const Setup& s, const std::vector<std::size_t>& ids, bool traced) const {
    Replay r(traced);
    const graph::Graph& g = s.isp.graph;
    const std::size_t np = s.protocols.size();
    std::vector<sim::FlowSpec> flows;
    std::vector<double> demands;
    analysis::collect_demand_flows(s.demand, flows, demands);
    double offered = 0.0;
    for (const double d : demands) offered += d;

    const auto t_index = Clock::now();
    std::vector<traffic::FlowIncidenceIndex> indexes(np);
    {
      route::ScenarioRoutingCache pristine_cache;
      const net::Network pristine(g);
      for (std::size_t i = 0; i < np; ++i) {
        const auto instance = analysis::make_protocol(s.protocols[i], pristine, pristine_cache);
        indexes[i].build(pristine, *instance, flows, demands);
      }
    }
    r.index_build_ms = seconds_since(t_index) * 1e3;

    route::ScenarioRoutingCache cache;
    const graph::EdgeSet no_failures(g.edge_count());
    const auto t_pristine = Clock::now();
    (void)cache.tables(g, no_failures);
    r.pristine_build_ms = seconds_since(t_pristine) * 1e3;

    r.rows.assign(np, {});
    r.fwd.assign(np, ForwardCounters{});
    std::vector<traffic::LoadMapReduction> totals(np);
    sim::BatchResult batch;
    traffic::LoadMap load;
    traffic::IncidenceScratch scratch;
    const auto t_loop = Clock::now();
    for (const std::size_t id : ids) {
      r.tracer.set_scenario(id);
      Tracer::Scope scenario_span(r.tracer, Span::kScenario);
      const graph::EdgeSet& failures = s.scenarios[id];
      std::optional<net::Network> network;
      {
        Tracer::Scope span(r.tracer, Span::kNetFailRestore);
        network.emplace(g);
        for (const graph::EdgeId e : failures.elements()) network->fail_link(e);
      }
      std::vector<std::uint32_t> component;
      {
        Tracer::Scope span(r.tracer, Span::kGraphComponents);
        component = graph::connected_components(g, &failures);
      }
      for (std::size_t i = 0; i < np; ++i) {
        {
          Tracer::Scope span(r.tracer, Span::kTrafficProbe);
          indexes[i].affected_flows(network->failed_links(), scratch.affected_mark,
                                    scratch.affected);
        }
        batch.clear();
        if (!scratch.affected.empty()) {
          std::unique_ptr<net::ForwardingProtocol> instance;
          {
            Tracer::Scope span(r.tracer, Span::kRouteTables);
            scratch.flows.clear();
            for (const std::uint32_t f : scratch.affected) scratch.flows.push_back(flows[f]);
            instance = analysis::make_protocol(s.protocols[i], *network, cache);
          }
          Tracer::Scope span(r.tracer, static_cast<Span>(
                                           static_cast<std::size_t>(Span::kForwardPr) + i));
          sim::route_batch(*network, *instance, scratch.flows, sim::TraceMode::kFullTrace,
                           batch);
        }
        traffic::CongestionMetrics m;
        m.offered_pps = offered;
        std::uint64_t darts = 0;
        {
          Tracer::Scope span(r.tracer, Span::kTrafficCharge);
          load.reset(g.dart_count());
          std::size_t a = 0;
          for (std::size_t f = 0; f < flows.size(); ++f) {
            const double rate = demands[f];
            bool delivered;
            if (scratch.affected_mark[f] != 0) {
              const auto path = batch.darts(a);
              for (const graph::DartId d : path) load.add(d, rate);
              darts += path.size();
              delivered = batch[a].delivered();
              ++a;
            } else {
              const auto path = indexes[i].flow_darts(f);
              for (const graph::DartId d : path) load.add(d, rate);
              darts += path.size();
              delivered = indexes[i].pristine_delivered(f);
            }
            if (delivered) {
              m.delivered_pps += rate;
            } else if (component[flows[f].source] == component[flows[f].destination]) {
              m.lost_pps += rate;
            } else {
              m.stranded_pps += rate;
            }
          }
        }
        {
          Tracer::Scope span(r.tracer, Span::kTrafficPrice);
          traffic::apply_utilization(m, g, load, s.plan);
        }
        {
          Tracer::Scope span(r.tracer, Span::kAnalysisReduce);
          traffic::LoadMapReduction cell;
          cell.add(load);
          totals[i].merge(cell);
          r.rows[i].push_back(m);
        }
        count_cell(batch, scratch.affected.size(), indexes[i].flow_count(), darts, r.fwd[i],
                   r.traffic);
      }
    }
    r.seconds = seconds_since(t_loop);
    r.table_mb = static_cast<double>(cache.tables(g, no_failures).bytes()) / (1024.0 * 1024.0);
    return r;
  }

  const Options& options_;
  std::optional<analysis::TrafficExperimentResult> first_;
  std::optional<Check> repeat_;  ///< later repetitions against the first, bitwise
};

}  // namespace

void run_single_link_isp512(const Options& options, Report& report) {
  run_workload<SingleLinkIsp512>(options, report);
}

}  // namespace perfbench
