// storm-geant: sampled independent outages (p = 0.02) over geographic risk
// groups (radius 2) on GEANT, degree-gravity demand of 1M pps, PR / LFA /
// re-convergence, 2 threads, with the crash-safe runner's durability set-up:
// a RunControl and a unit-count auto-checkpoint cadence into a
// CheckpointStore.  About half the scenarios partition the graph, so most of
// the cell time is packets looping until TTL expiry.
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>

#include "analysis/checkpoint_store.hpp"
#include "analysis/storm.hpp"
#include "analysis/traffic.hpp"
#include "driver.hpp"
#include "graph/connectivity.hpp"
#include "net/storm_model.hpp"
#include "topo/topologies.hpp"
#include "traffic/congestion.hpp"
#include "traffic/incidence.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pr;

constexpr double kTotalDemandPps = 1e6;
constexpr double kOutageProbability = 0.02;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kTopK = 10;

std::size_t scenario_count(const Options& o) { return o.tiny ? 120 : 2000; }

/// One (scenario, protocol) cell, as the storm sweep computes it.
struct CellOutcome {
  traffic::CongestionMetrics metrics;
  double max_stretch = 1.0;
  std::size_t rerouted = 0;
};

/// Per-protocol pristine products the sweep builds before its scenarios.
struct ProtocolIndex {
  traffic::FlowIncidenceIndex flows;
  traffic::GroupIncidence groups;
  std::vector<double> pristine_costs;
};

struct CheckpointStats {
  std::size_t count = 0;
  std::size_t bytes = 0;
  double persist_s = 0.0;
};

class StormGeant {
 public:
  struct Setup {
    explicit Setup(const Options& o) : g(topo::geant()) {
      const auto t0 = Clock::now();
      suite = std::make_unique<analysis::ProtocolSuite>(g);
      suite_ms = seconds_since(t0) * 1e3;
      protocols = {suite->pr(), suite->lfa(), suite->reconvergence()};
      demand = traffic::gravity_demand(g, kTotalDemandPps, traffic::GravityMass::kDegree);
      plan = size_plan(g, *suite, demand);
      catalog = std::make_unique<net::SrlgCatalog>(net::geographic_srlgs(g, 2));
      model = std::make_unique<net::IndependentOutages>(
          net::IndependentOutages::uniform(*catalog, kOutageProbability));
      executor = std::make_unique<sim::SweepExecutor>(kThreads);
      static std::atomic<unsigned> instances{0};
      store_dir = o.scratch + "/ckpt-" + std::to_string(::getpid()) + "-" +
                  std::to_string(instances++);
      store = std::make_unique<analysis::CheckpointStore>(
          store_dir, analysis::CheckpointStoreOptions{.keep_generations = 4});
    }
    ~Setup() {
      std::error_code ignored;
      std::filesystem::remove_all(store_dir, ignored);
    }
    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    graph::Graph g;
    std::unique_ptr<analysis::ProtocolSuite> suite;
    double suite_ms = 0.0;
    std::vector<analysis::NamedFactory> protocols;
    traffic::TrafficMatrix demand;
    traffic::CapacityPlan plan;
    std::unique_ptr<net::SrlgCatalog> catalog;
    std::unique_ptr<net::IndependentOutages> model;
    std::unique_ptr<sim::SweepExecutor> executor;
    std::string store_dir;
    std::unique_ptr<analysis::CheckpointStore> store;
  };

  explicit StormGeant(const Options& o) : options_(o), scenarios_(scenario_count(o)) {}

  static std::unique_ptr<Setup> make_setup(const Options& o) {
    return std::make_unique<Setup>(o);
  }

  SweepTiming sweep(Setup& s) {
    sim::RunControl control;
    analysis::StormRunOptions run_options;
    run_options.control = &control;
    run_options.checkpoint_cadence.units = scenarios_ / 4;
    CheckpointStats stats;
    run_options.persist_checkpoint = [&](std::size_t, std::string&& blob) {
      const auto t0 = Clock::now();
      s.store->persist(blob);
      stats.persist_s += seconds_since(t0);
      stats.bytes += blob.size();
      ++stats.count;
    };
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    analysis::StormRunResult run = analysis::run_storm_experiment_resilient(
        s.g, s.demand, s.plan, *s.model, s.protocols, config(kTopK), *s.executor,
        run_options);
    const SweepTiming t{seconds_since(t0), process_cpu_seconds() - cpu0, scenarios_,
                        run.outcome.completed_units};
    checkpoint_failures_ += run.outcome.checkpoint_failures;
    stats_ = stats;
    if (!first_) {
      first_ = run.result;
    } else {
      if (!repeat_) repeat_.emplace("sweep.repeatable", options_.corrupt);
      compare(*repeat_, run.result, *first_);
    }
    last_ = std::move(run);
    return t;
  }

  /// Re-prices every top-K scenario of the last sweep through the full
  /// re-route oracle, regenerating it from split_seed(seed, id).
  void check(Setup& s, Report& report) {
    if (repeat_) report.checks.push_back(std::make_unique<Check>(*repeat_));
    Check& c = report.check("storm.topk_full_reroute");
    for (std::size_t i = 0; i < s.protocols.size(); ++i) {
      for (const auto& entry : last_->result.protocols[i].worst) {
        graph::Rng rng(sim::split_seed(options_.seed, entry.id));
        net::StormSample sample;
        s.model->sample(rng, sample);
        const analysis::TrafficExperimentResult oracle = analysis::run_traffic_experiment(
            s.g, s.demand, s.plan, std::span<const graph::EdgeSet>(&sample.failures, 1),
            {s.protocols[i]}, analysis::TrafficSweepMode::kFullReroute);
        const traffic::CongestionMetrics& m = oracle.protocols[0].per_scenario[0];
        const std::string at = s.protocols[i].name + " scenario " + std::to_string(entry.id);
        c.same(std::uint64_t{sample.groups == entry.value.failed_groups}, std::uint64_t{1},
               at + " regenerated groups");
        c.same(m.max_utilization, entry.value.max_utilization, at + " max_utilization");
        c.same(m.lost_pps, entry.value.lost_pps, at + " lost_pps");
        c.same(m.stranded_pps, entry.value.stranded_pps, at + " stranded_pps");
      }
    }
    Check& ckpt = report.check("storm.checkpoints");
    ckpt.same(std::uint64_t{checkpoint_failures_}, std::uint64_t{0}, "auto-checkpoint failures");
    ckpt.same(std::uint64_t{last_->checkpoint.empty()}, std::uint64_t{0}, "final checkpoint blob");

    const auto& pr = last_->result.protocols[0];
    report.output("supports_pr", s.suite->embedding().supports_pr() ? "true" : "false");
    report.output("pr_lost_pps", std::to_string(pr.lost_pps));
    report.output("pr_lossy_scenarios", std::to_string(pr.lossy_scenarios));
    report.output("disconnected_scenarios",
                  std::to_string(last_->result.disconnected_scenarios));
  }

  void trace(Setup& s, Report& report) {
    // Untraced passes on both sides of the traced one, so drift and warm-up
    // do not read as tracing overhead.
    const Replay before = replay(s, false);
    const Replay traced = replay(s, true);
    const Replay after = replay(s, false);

    Check& sweep_match = report.check("trace.matches_sweep");
    compare(sweep_match, traced.result, last_->result);
    compare(sweep_match, before.result, traced.result);
    compare(sweep_match, after.result, traced.result);

    // Every scenario's record: the same library sweep over the same scenarios
    // with a top-K as large as the sweep keeps all of them.
    const analysis::StormExperimentResult all = analysis::run_storm_experiment(
        s.g, s.demand, s.plan, *s.model, s.protocols, config(scenarios_), *s.executor);
    Check& per_scenario = report.check("trace.per_scenario_bitwise");
    for (std::size_t i = 0; i < s.protocols.size(); ++i) {
      per_scenario.same(std::uint64_t{all.protocols[i].worst.size()},
                        std::uint64_t{scenarios_}, "records of " + s.protocols[i].name);
      for (const auto& entry : all.protocols[i].worst) {
        const analysis::StormScenarioRecord& got = traced.records[i].at(entry.id);
        const std::string at = s.protocols[i].name + " scenario " + std::to_string(entry.id);
        per_scenario.same(got.max_utilization, entry.value.max_utilization, at + " max_utilization");
        per_scenario.same(got.max_stretch, entry.value.max_stretch, at + " max_stretch");
        per_scenario.same(got.lost_pps, entry.value.lost_pps, at + " lost_pps");
        per_scenario.same(got.stranded_pps, entry.value.stranded_pps, at + " stranded_pps");
        per_scenario.same(std::uint64_t{got.failed_edges}, std::uint64_t{entry.value.failed_edges},
                          at + " failed_edges");
      }
    }

    const TraceSummary summary = summarize(traced.tracer);
    replay_metrics(summary, traced.fwd, traced.traffic, scenarios_,
                   (before.seconds + after.seconds) / 2.0, traced.seconds, report);
    report.metric("traffic.index_build_ms", traced.index_build_ms);
    report.metric("route.pristine_build_ms", traced.pristine_build_ms);
    report.metric("route.table_mb", traced.table_mb);
    report.metric("analysis.checkpoints", static_cast<double>(stats_.count));
    report.metric("analysis.checkpoint_bytes",
                  ratio(static_cast<double>(stats_.bytes), static_cast<double>(stats_.count)));
    report.metric("analysis.checkpoint_persist_ms",
                  ratio(stats_.persist_s * 1e3, static_cast<double>(stats_.count)));
    const std::string path = options_.scratch + "/trace-storm-geant-seed" +
                             std::to_string(options_.seed) + ".json";
    write_chrome_trace(traced.tracer, path);
    report.output("trace_file", "\"" + path + "\"");
  }

 private:
  struct Replay {
    explicit Replay(bool traced) : tracer(traced) {}
    Tracer tracer;
    analysis::StormExperimentResult result;
    std::vector<std::vector<analysis::StormScenarioRecord>> records;  // [protocol][scenario]
    std::vector<ForwardCounters> fwd;
    TrafficCounters traffic;
    double seconds = 0.0;
    double index_build_ms = 0.0;
    double pristine_build_ms = 0.0;
    double table_mb = 0.0;
  };

  [[nodiscard]] analysis::StormSweepConfig config(std::size_t top_k) const {
    analysis::StormSweepConfig c;
    c.scenarios = scenarios_;
    c.seed = options_.seed;
    c.top_k = top_k;
    return c;
  }

  /// The storm cell, step by step through the layers' public functions, in
  /// the order and with the floating-point sequence of the library sweep.
  static CellOutcome cell(const Setup& s, std::size_t protocol, const net::Network& network,
                          std::span<const std::uint32_t> component,
                          route::ScenarioRoutingCache& cache, const ProtocolIndex& index,
                          std::span<const std::size_t> groups,
                          std::span<const sim::FlowSpec> flows, std::span<const double> demands,
                          double offered, sim::BatchResult& batch, traffic::LoadMap& load,
                          traffic::IncidenceScratch& scratch, Tracer& tracer,
                          ForwardCounters* fwd, TrafficCounters* tc) {
    // fwd and tc are null for the pristine cells, which no scenario counts.
    {
      Tracer::Scope span(tracer, Span::kTrafficProbe);
      index.groups.affected_flows(groups, scratch.affected_mark, scratch.affected);
    }
    batch.clear();
    if (!scratch.affected.empty()) {
      std::unique_ptr<net::ForwardingProtocol> instance;
      {
        Tracer::Scope span(tracer, Span::kRouteTables);
        scratch.flows.clear();
        for (const std::uint32_t f : scratch.affected) scratch.flows.push_back(flows[f]);
        instance = analysis::make_protocol(s.protocols[protocol], network, cache);
      }
      Tracer::Scope span(tracer, static_cast<Span>(static_cast<std::size_t>(Span::kForwardPr) +
                                                   protocol));
      sim::route_batch(network, *instance, scratch.flows, sim::TraceMode::kFullTrace, batch);
    }

    CellOutcome out;
    out.rerouted = scratch.affected.size();
    traffic::CongestionMetrics& m = out.metrics;
    m.offered_pps = offered;
    std::uint64_t darts = 0;
    {
      Tracer::Scope span(tracer, Span::kTrafficCharge);
      load.reset(s.g.dart_count());
      std::size_t a = 0;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        const double rate = demands[f];
        bool delivered;
        if (scratch.affected_mark[f] != 0) {
          const auto path = batch.darts(a);
          for (const graph::DartId d : path) load.add(d, rate);
          darts += path.size();
          delivered = batch[a].delivered();
          if (delivered && index.pristine_costs[f] > 0.0) {
            out.max_stretch = std::max(out.max_stretch, batch[a].cost / index.pristine_costs[f]);
          }
          ++a;
        } else {
          const auto path = index.flows.flow_darts(f);
          for (const graph::DartId d : path) load.add(d, rate);
          darts += path.size();
          delivered = index.flows.pristine_delivered(f);
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
      Tracer::Scope span(tracer, Span::kTrafficPrice);
      traffic::apply_utilization(m, s.g, load, s.plan);
    }
    if (fwd != nullptr) {
      count_cell(batch, scratch.affected.size(), index.groups.flow_count(), darts, *fwd, *tc);
    }
    return out;
  }

  /// Single-threaded replay of the sweep's scenarios with one span per layer
  /// call; `traced` false gives the untraced baseline of the same work.
  Replay replay(const Setup& s, bool traced) const {
    Replay r(traced);
    const std::size_t np = s.protocols.size();
    std::vector<sim::FlowSpec> flows;
    std::vector<double> demands;
    analysis::collect_demand_flows(s.demand, flows, demands);
    double offered = 0.0;
    for (const double d : demands) offered += d;

    // Pristine pass: incidence indexes, pristine costs and calm cells.
    const auto t_index = Clock::now();
    route::ScenarioRoutingCache pristine_cache;
    std::vector<ProtocolIndex> indexes(np);
    const net::Network pristine(s.g);
    sim::BatchResult batch;
    for (std::size_t i = 0; i < np; ++i) {
      const auto instance = analysis::make_protocol(s.protocols[i], pristine, pristine_cache);
      indexes[i].flows.build(pristine, *instance, flows, demands);
      indexes[i].groups.build(indexes[i].flows, *s.catalog);
      sim::route_batch(pristine, *instance, flows, sim::TraceMode::kStats, batch);
      indexes[i].pristine_costs.resize(flows.size());
      for (std::size_t f = 0; f < flows.size(); ++f) indexes[i].pristine_costs[f] = batch[f].cost;
    }
    r.index_build_ms = seconds_since(t_index) * 1e3;
    traffic::LoadMap load;
    traffic::IncidenceScratch scratch;
    Tracer untraced(false);
    const auto pristine_component = graph::connected_components(s.g);
    std::vector<CellOutcome> pristine_cells(np);
    for (std::size_t i = 0; i < np; ++i) {
      pristine_cells[i] = cell(s, i, pristine, pristine_component, pristine_cache, indexes[i],
                               {}, flows, demands, offered, batch, load, scratch, untraced,
                               nullptr, nullptr);
    }

    route::ScenarioRoutingCache cache;
    const graph::EdgeSet no_failures(s.g.edge_count());
    const auto t_pristine = Clock::now();
    (void)cache.tables(s.g, no_failures);
    r.pristine_build_ms = seconds_since(t_pristine) * 1e3;

    analysis::StormExperimentResult& result = r.result;
    result.flows_per_scenario = flows.size();
    result.offered_pps = offered;
    result.protocols.resize(np);
    const std::vector<double> quantiles = config(kTopK).quantiles;
    std::vector<analysis::P2QuantileSet> util_q(np, analysis::P2QuantileSet(quantiles));
    std::vector<analysis::P2QuantileSet> stretch_q(np, analysis::P2QuantileSet(quantiles));
    std::vector<analysis::TopK<analysis::StormScenarioRecord>> worst(
        np, analysis::TopK<analysis::StormScenarioRecord>(kTopK));
    for (std::size_t i = 0; i < np; ++i) {
      result.protocols[i].name = s.protocols[i].name;
      result.protocols[i].quantiles = quantiles;
    }
    r.records.assign(np, std::vector<analysis::StormScenarioRecord>(scenarios_));
    r.fwd.assign(np, ForwardCounters{});

    net::Network network(s.g);
    net::StormSample sample;
    graph::ComponentScratch components;
    std::vector<CellOutcome> cells(np);
    const auto t_loop = Clock::now();
    for (std::size_t id = 0; id < scenarios_; ++id) {
      r.tracer.set_scenario(id);
      Tracer::Scope scenario_span(r.tracer, Span::kScenario);
      {
        Tracer::Scope span(r.tracer, Span::kNetSample);
        graph::Rng rng(sim::split_seed(options_.seed, id));
        s.model->sample(rng, sample);
      }
      const std::span<const std::size_t> groups = sample.groups;
      const bool calm = groups.empty();
      bool disconnected = false;
      if (calm) {
        cells = pristine_cells;
      } else {
        {
          Tracer::Scope span(r.tracer, Span::kNetFailRestore);
          for (const graph::EdgeId e : sample.failures.elements()) network.fail_link(e);
        }
        {
          Tracer::Scope span(r.tracer, Span::kGraphComponents);
          disconnected =
              graph::connected_components_into(s.g, &sample.failures, components) > 1;
        }
        for (std::size_t i = 0; i < np; ++i) {
          cells[i] = cell(s, i, network, components.component, cache, indexes[i], groups,
                          flows, demands, offered, batch, load, scratch, r.tracer, &r.fwd[i],
                          &r.traffic);
        }
        Tracer::Scope span(r.tracer, Span::kNetFailRestore);
        for (const graph::EdgeId e : sample.failures.elements()) network.restore_link(e);
      }
      {
        Tracer::Scope span(r.tracer, Span::kAnalysisReduce);
        result.failed_groups.add(static_cast<double>(groups.size()));
        result.failed_edges.add(static_cast<double>(sample.failures.size()));
        if (calm) ++result.calm_scenarios;
        if (disconnected) ++result.disconnected_scenarios;
        for (std::size_t i = 0; i < np; ++i) {
          const traffic::CongestionMetrics& m = cells[i].metrics;
          analysis::StormProtocolResult& p = result.protocols[i];
          p.utilization.add(m.max_utilization);
          p.stretch.add(cells[i].max_stretch);
          util_q[i].add(m.max_utilization);
          stretch_q[i].add(cells[i].max_stretch);
          p.delivered_pps += m.delivered_pps;
          p.lost_pps += m.lost_pps;
          p.stranded_pps += m.stranded_pps;
          p.overloaded_links += m.overloaded_links;
          if (m.overloaded_links > 0) ++p.overloaded_scenarios;
          if (m.lost_pps > 0.0) ++p.lossy_scenarios;
          p.rerouted_flows += cells[i].rerouted;
          worst[i].add(m.max_utilization, id,
                       analysis::StormScenarioRecord{
                           m.max_utilization, cells[i].max_stretch, m.lost_pps,
                           m.stranded_pps, {groups.begin(), groups.end()},
                           sample.failures.size()});
        }
      }
      for (std::size_t i = 0; i < np; ++i) {
        r.records[i][id] = analysis::StormScenarioRecord{
            cells[i].metrics.max_utilization, cells[i].max_stretch, cells[i].metrics.lost_pps,
            cells[i].metrics.stranded_pps, {}, sample.failures.size()};
      }
    }
    r.seconds = seconds_since(t_loop);
    result.scenarios = scenarios_;
    for (std::size_t i = 0; i < np; ++i) {
      result.protocols[i].utilization_quantiles = util_q[i].estimates();
      result.protocols[i].stretch_quantiles = stretch_q[i].estimates();
      result.protocols[i].worst = worst[i].sorted();
    }
    r.table_mb = static_cast<double>(cache.tables(s.g, no_failures).bytes()) / (1024.0 * 1024.0);
    return r;
  }

  /// Every reducer output, bitwise.
  static void compare(Check& c, const analysis::StormExperimentResult& got,
                      const analysis::StormExperimentResult& want) {
    const auto summary = [&c](const analysis::RunningSummary& a,
                              const analysis::RunningSummary& b, const std::string& what) {
      c.same(std::uint64_t{a.count}, std::uint64_t{b.count}, what + ".count");
      c.same(a.sum, b.sum, what + ".sum");
      c.same(a.min, b.min, what + ".min");
      c.same(a.max, b.max, what + ".max");
    };
    c.same(std::uint64_t{got.scenarios}, std::uint64_t{want.scenarios}, "scenarios");
    c.same(std::uint64_t{got.calm_scenarios}, std::uint64_t{want.calm_scenarios}, "calm");
    c.same(std::uint64_t{got.disconnected_scenarios}, std::uint64_t{want.disconnected_scenarios},
           "disconnected");
    summary(got.failed_groups, want.failed_groups, "failed_groups");
    summary(got.failed_edges, want.failed_edges, "failed_edges");
    c.same(std::uint64_t{got.protocols.size()}, std::uint64_t{want.protocols.size()},
           "protocols");
    for (std::size_t i = 0; i < std::min(got.protocols.size(), want.protocols.size()); ++i) {
      const analysis::StormProtocolResult& a = got.protocols[i];
      const analysis::StormProtocolResult& b = want.protocols[i];
      summary(a.utilization, b.utilization, a.name + " utilization");
      summary(a.stretch, b.stretch, a.name + " stretch");
      for (std::size_t q = 0; q < b.quantiles.size(); ++q) {
        c.same(a.utilization_quantiles.at(q), b.utilization_quantiles.at(q),
               a.name + " utilization quantile");
        c.same(a.stretch_quantiles.at(q), b.stretch_quantiles.at(q), a.name + " stretch quantile");
      }
      c.same(a.delivered_pps, b.delivered_pps, a.name + " delivered_pps");
      c.same(a.lost_pps, b.lost_pps, a.name + " lost_pps");
      c.same(a.stranded_pps, b.stranded_pps, a.name + " stranded_pps");
      c.same(std::uint64_t{a.overloaded_links}, std::uint64_t{b.overloaded_links},
             a.name + " overloaded_links");
      c.same(std::uint64_t{a.overloaded_scenarios}, std::uint64_t{b.overloaded_scenarios},
             a.name + " overloaded_scenarios");
      c.same(std::uint64_t{a.lossy_scenarios}, std::uint64_t{b.lossy_scenarios},
             a.name + " lossy_scenarios");
      c.same(std::uint64_t{a.rerouted_flows}, std::uint64_t{b.rerouted_flows},
             a.name + " rerouted_flows");
      c.same(std::uint64_t{a.worst.size()}, std::uint64_t{b.worst.size()}, a.name + " top-K size");
      for (std::size_t k = 0; k < std::min(a.worst.size(), b.worst.size()); ++k) {
        const std::string at = a.name + " top-K " + std::to_string(k);
        c.same(a.worst[k].key, b.worst[k].key, at + " key");
        c.same(std::uint64_t{a.worst[k].id}, std::uint64_t{b.worst[k].id}, at + " id");
        c.same(a.worst[k].value.lost_pps, b.worst[k].value.lost_pps, at + " lost_pps");
        c.same(a.worst[k].value.max_stretch, b.worst[k].value.max_stretch, at + " max_stretch");
        c.same(std::uint64_t{a.worst[k].value.failed_groups == b.worst[k].value.failed_groups},
               std::uint64_t{1}, at + " failed_groups");
      }
    }
  }

  const Options& options_;
  std::size_t scenarios_;
  std::optional<analysis::StormExperimentResult> first_;
  std::optional<analysis::StormRunResult> last_;
  std::optional<Check> repeat_;  ///< later repetitions against the first, bitwise
  std::size_t checkpoint_failures_ = 0;
  CheckpointStats stats_;
};

}  // namespace

void run_storm_geant(const Options& options, Report& report) {
  run_workload<StormGeant>(options, report);
}

}  // namespace perfbench
