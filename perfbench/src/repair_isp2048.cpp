// repair-isp2048: post-failure routing tables for every single-link failure
// of a seeded 2048-node hierarchical ISP, through each sweep worker's
// ScenarioRoutingCache::tables(), 2 threads.  No forwarding and no load: the
// whole scenario is SPF tree repair, and each worker's pristine tables set
// the memory peak.
#include <optional>

#include "driver.hpp"
#include "graph/generators.hpp"
#include "route/routing_db.hpp"
#include "route/scenario_cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pr;

constexpr std::size_t kThreads = 2;

/// What a sweep keeps per scenario: O(1)-to-read facts of the repaired
/// tables (the full tables are compared on a sample by check()).
struct TableRecord {
  std::uint64_t max_discriminator = 0;
  std::uint64_t dirty_destinations = 0;
  std::uint64_t dirty_digest = 0;  ///< FNV-1a over the dirty destination ids

  friend bool operator==(const TableRecord&, const TableRecord&) = default;
};

TableRecord record_of(const route::RoutingDb& db) {
  TableRecord r;
  r.max_discriminator = db.max_discriminator();
  const auto dirty = db.dirty_destinations();
  r.dirty_destinations = dirty.size();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const graph::NodeId d : dirty) h = (h ^ d) * 0x100000001b3ull;
  r.dirty_digest = h;
  return r;
}

void compare_record(Check& c, const TableRecord& got, const TableRecord& want,
                    const std::string& at) {
  c.same(got.max_discriminator, want.max_discriminator, at + " max_discriminator");
  c.same(got.dirty_destinations, want.dirty_destinations, at + " dirty_destinations");
  c.same(got.dirty_digest, want.dirty_digest, at + " dirty_digest");
}

class RepairIsp2048 {
 public:
  struct Setup {
    explicit Setup(const Options& o) {
      graph::Rng rng(o.seed);
      isp = graph::hierarchical_isp(graph::sized_isp_params(o.tiny ? 96 : 2048), rng);
      executor = std::make_unique<sim::SweepExecutor>(kThreads);
      failure_sets.assign(kThreads, graph::EdgeSet(isp.graph.edge_count()));
    }
    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    graph::IspTopology isp;
    double suite_ms = 0.0;  ///< no protocol suite in this workload
    std::unique_ptr<sim::SweepExecutor> executor;
    std::vector<graph::EdgeSet> failure_sets;  ///< one reusable scenario set per worker
  };

  explicit RepairIsp2048(const Options& o) : options_(o) {}

  static std::unique_ptr<Setup> make_setup(const Options& o) {
    return std::make_unique<Setup>(o);
  }

  SweepTiming sweep(Setup& s) {
    const graph::Graph& g = s.isp.graph;
    std::vector<TableRecord> records(g.edge_count());
    const sim::RunControl control;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    const sim::SweepOutcome outcome = s.executor->run(
        g.edge_count(),
        [&](std::size_t unit, sim::WorkerContext& ctx) {
          graph::EdgeSet& failures = s.failure_sets[ctx.worker()];
          failures.clear();
          failures.insert(static_cast<graph::EdgeId>(unit));
          records[unit] = record_of(ctx.routes.tables(g, failures));
        },
        control);
    const SweepTiming t{seconds_since(t0), process_cpu_seconds() - cpu0, g.edge_count(),
                        outcome.completed_units};
    if (!first_) {
      first_ = std::move(records);
    } else {
      if (!repeat_) repeat_.emplace("sweep.repeatable", options_.corrupt);
      for (std::size_t e = 0; e < records.size(); ++e) {
        compare_record(*repeat_, records[e], first_->at(e), "scenario " + std::to_string(e));
      }
    }
    return t;
  }

  /// A seeded sample of tables() results must equal a from-scratch RoutingDb
  /// on every next_dart, cost and hop entry, and on max_discriminator.
  void check(Setup& s, Report& report) {
    if (repeat_) report.checks.push_back(std::make_unique<Check>(*repeat_));
    const graph::Graph& g = s.isp.graph;
    Check& c = report.check("repair.sample_scratch_tables");
    route::ScenarioRoutingCache cache;
    graph::EdgeSet failures(g.edge_count());
    const std::size_t samples = options_.tiny ? 2 : 3;
    for (const std::size_t e : seeded_sample(options_.seed, 0x5C2A7Cull, samples, g.edge_count())) {
      failures.clear();
      failures.insert(static_cast<graph::EdgeId>(e));
      const route::RoutingDb& repaired = cache.tables(g, failures);
      const route::RoutingDb scratch(g, &failures);
      const std::string at = "scenario " + std::to_string(e);
      c.same(std::uint64_t{repaired.max_discriminator()},
             std::uint64_t{scratch.max_discriminator()}, at + " max_discriminator");
      std::uint64_t differing = 0;
      for (graph::NodeId dest = 0; dest < g.node_count(); ++dest) {
        for (graph::NodeId at_node = 0; at_node < g.node_count(); ++at_node) {
          differing += repaired.next_dart(at_node, dest) != scratch.next_dart(at_node, dest) ||
                       repaired.cost(at_node, dest) != scratch.cost(at_node, dest) ||
                       repaired.hops(at_node, dest) != scratch.hops(at_node, dest);
        }
      }
      c.same(differing, std::uint64_t{0}, at + " table entries differing from scratch");
      compare_record(c, record_of(repaired), first_->at(e), at + " sweep record");
    }
    report.output("scenarios", std::to_string(g.edge_count()));
    report.output("nodes", std::to_string(g.node_count()));
  }

  void trace(Setup& s, Report& report) {
    const graph::Graph& g = s.isp.graph;
    const std::size_t subset = options_.tiny ? g.edge_count() : 2048;
    const std::vector<std::size_t> ids =
        seeded_sample(options_.seed, 0x7EACEull, subset, g.edge_count());
    // Untraced passes on both sides of the traced one, so drift and warm-up
    // do not read as tracing overhead.
    const Replay before = replay(s, ids, false);
    const Replay traced = replay(s, ids, true);
    const Replay after = replay(s, ids, false);

    Check& c = report.check("trace.per_scenario_bitwise");
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::string at = "scenario " + std::to_string(ids[k]);
      compare_record(c, traced.records[k], first_->at(ids[k]), at);
      compare_record(c, before.records[k], traced.records[k], at + " untraced");
      compare_record(c, after.records[k], traced.records[k], at + " untraced");
    }

    const TraceSummary summary = summarize(traced.tracer);
    replay_metrics(summary, {}, TrafficCounters{}, ids.size(),
                   (before.seconds + after.seconds) / 2.0, traced.seconds, report);
    report.metric("route.pristine_build_ms", traced.pristine_build_ms);
    report.metric("route.table_mb", traced.table_mb);
    const std::string path = options_.scratch + "/trace-repair-isp2048-seed" +
                             std::to_string(options_.seed) + ".json";
    write_chrome_trace(traced.tracer, path);
    report.output("trace_file", "\"" + path + "\"");
  }

 private:
  struct Replay {
    explicit Replay(bool traced) : tracer(traced) {}
    Tracer tracer;
    std::vector<TableRecord> records;  // per sampled scenario
    double seconds = 0.0;
    double pristine_build_ms = 0.0;
    double table_mb = 0.0;
  };

  /// Single-threaded replay of the sampled scenarios: one fresh cache, the
  /// pristine build timed on its own, then one tables() call per scenario.
  Replay replay(const Setup& s, const std::vector<std::size_t>& ids, bool traced) const {
    Replay r(traced);
    const graph::Graph& g = s.isp.graph;
    route::ScenarioRoutingCache cache;
    graph::EdgeSet failures(g.edge_count());
    const auto t_pristine = Clock::now();
    (void)cache.tables(g, failures);
    r.pristine_build_ms = seconds_since(t_pristine) * 1e3;
    r.records.reserve(ids.size());
    const auto t_loop = Clock::now();
    for (const std::size_t id : ids) {
      r.tracer.set_scenario(id);
      Tracer::Scope scenario_span(r.tracer, Span::kScenario);
      failures.clear();
      failures.insert(static_cast<graph::EdgeId>(id));
      const route::RoutingDb* db = nullptr;
      {
        Tracer::Scope span(r.tracer, Span::kRouteTables);
        db = &cache.tables(g, failures);
      }
      Tracer::Scope span(r.tracer, Span::kAnalysisReduce);
      r.records.push_back(record_of(*db));
    }
    r.seconds = seconds_since(t_loop);
    r.table_mb = static_cast<double>(cache.tables(g, failures).bytes()) / (1024.0 * 1024.0);
    return r;
  }

  const Options& options_;
  std::optional<std::vector<TableRecord>> first_;
  std::optional<Check> repeat_;  ///< later repetitions against the first, bitwise
};

}  // namespace

void run_repair_isp2048(const Options& options, Report& report) {
  run_workload<RepairIsp2048>(options, report);
}

}  // namespace perfbench
