#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "analysis/traffic.hpp"
#include "net/network.hpp"

namespace perfbench {

using namespace pr;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::vector<std::size_t> seeded_sample(std::uint64_t seed, std::uint64_t salt,
                                       std::size_t count, std::size_t universe) {
  count = std::min(count, universe);
  std::vector<std::size_t> out;
  std::unordered_set<std::size_t> seen;
  for (std::uint64_t i = 0; out.size() < count; ++i) {
    const std::size_t pick = sim::split_seed(seed ^ salt, i) % universe;
    if (seen.insert(pick).second) out.push_back(pick);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const char* to_string(Span s) noexcept {
  switch (s) {
    case Span::kScenario: return "scenario";
    case Span::kNetSample: return "net.sample";
    case Span::kNetFailRestore: return "net.fail_restore";
    case Span::kGraphComponents: return "graph.components";
    case Span::kTrafficProbe: return "traffic.probe";
    case Span::kRouteTables: return "route.tables";
    case Span::kForwardPr: return "sim.forward.pr";
    case Span::kForwardLfa: return "sim.forward.lfa";
    case Span::kForwardReconvergence: return "sim.forward.reconvergence";
    case Span::kTrafficCharge: return "traffic.charge";
    case Span::kTrafficPrice: return "traffic.price";
    case Span::kAnalysisReduce: return "analysis.reduce";
    case Span::kCount: break;
  }
  return "unknown";
}

TraceSummary summarize(const Tracer& tracer) {
  TraceSummary out;
  const auto& records = tracer.records();
  double scenario_ns = 0.0;
  double child_ns = 0.0;
  for (const Tracer::Record& r : records) {
    const double ns = static_cast<double>(r.end_ns - r.start_ns);
    const auto k = static_cast<std::size_t>(r.kind);
    out.total_ns[k] += ns;
    ++out.calls[k];
    if (r.kind == Span::kScenario) {
      scenario_ns += ns;
      out.scenario_us.push_back(ns / 1e3);
    } else if (r.parent >= 0 &&
               records[static_cast<std::size_t>(r.parent)].kind == Span::kScenario) {
      child_ns += ns;
    }
  }
  out.attributed_share = ratio(child_ns, scenario_ns);
  return out;
}

void write_chrome_trace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const auto& records = tracer.records();
  const std::uint64_t origin = records.empty() ? 0 : records.front().start_ns;
  out << "{\"traceEvents\": [\n";
  char line[256];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Tracer::Record& r = records[i];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"scenario\": %u}}%s\n",
                  to_string(r.kind), static_cast<double>(r.start_ns - origin) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, r.scenario,
                  i + 1 < records.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

traffic::CapacityPlan size_plan(const graph::Graph& g,
                                const analysis::ProtocolSuite& suite,
                                const traffic::TrafficMatrix& demand) {
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);
  const net::Network network(g);
  const auto spf = suite.spf().make(network);
  traffic::LoadMap load;
  sim::BatchResult batch;
  sim::route_batch(network, *spf, flows, demands, load, sim::TraceMode::kStats, batch);
  double peak = 0.0;
  for (const double v : load.darts()) peak = std::max(peak, v);
  return traffic::CapacityPlan::uniform(g, peak / 0.6);
}

void registry_metrics(const obs::Registry& registry, double wall_s,
                      std::size_t scenarios, Report& report) {
  const double wall_ns = wall_s * 1e9;
  double min_share = 0.0;
  double sum_share = 0.0;
  for (std::size_t w = 0; w < registry.worker_count(); ++w) {
    const double share =
        ratio(static_cast<double>(registry.worker(w).phase_nanos(obs::Phase::kUnit)),
              wall_ns);
    min_share = w == 0 ? share : std::min(min_share, share);
    sum_share += share;
  }
  const obs::Counters total = registry.aggregate();
  const auto get = [&](obs::Counter c) { return static_cast<double>(total.get(c)); };
  const double n = static_cast<double>(scenarios);
  report.metric("sim.executor.busy_share_min", min_share);
  report.metric("sim.executor.busy_share_mean",
                ratio(sum_share, static_cast<double>(registry.worker_count())));
  report.metric("sim.executor.reduce_share",
                ratio(static_cast<double>(total.phase_nanos(obs::Phase::kReduce)), wall_ns));
  report.metric("route.tree_repairs_per_scenario", ratio(get(obs::Counter::kSpfTreeRepairs), n));
  report.metric("route.orphan_nodes_per_scenario", ratio(get(obs::Counter::kSpfOrphanNodes), n));
  const double hits = get(obs::Counter::kRouteCacheHits);
  report.metric("route.cache_hit_rate",
                ratio(hits, hits + get(obs::Counter::kRouteCacheRebuilds) +
                                get(obs::Counter::kRouteCachePristineBuilds)));
}

void count_cell(const sim::BatchResult& batch, std::size_t affected, std::size_t universe,
                std::uint64_t darts, ForwardCounters& fwd, TrafficCounters& traffic) {
  ++fwd.cells;
  fwd.rerouted += affected;
  for (const sim::FlowStats& st : batch.stats()) {
    fwd.hops += st.hops;
    if (st.delivered()) fwd.delivered_hops += st.hops;
  }
  ++traffic.cells;
  traffic.affected += affected;
  traffic.universe += universe;
  traffic.darts_charged += darts;
}

void replay_metrics(const TraceSummary& t, const std::vector<ForwardCounters>& fwd,
                    const TrafficCounters& traffic, std::size_t scenarios,
                    double untraced_s, double traced_s, Report& report) {
  static const char* const kProtocols[] = {"pr", "lfa", "reconvergence"};
  for (std::size_t i = 0; i < fwd.size() && i < 3; ++i) {
    const ForwardCounters& f = fwd[i];
    const auto span = static_cast<Span>(static_cast<std::size_t>(Span::kForwardPr) + i);
    const std::string p = kProtocols[i];
    const auto cells = static_cast<double>(f.cells);
    report.metric("sim.forward_ns_per_hop." + p, ratio(t.ns(span), static_cast<double>(f.hops)));
    report.metric("sim.hops_per_cell." + p, ratio(static_cast<double>(f.hops), cells));
    report.metric("sim.delivered_hop_share." + p,
                  ratio(static_cast<double>(f.delivered_hops), static_cast<double>(f.hops)));
    report.metric("sim.flows_rerouted_per_cell." + p,
                  ratio(static_cast<double>(f.rerouted), cells));
  }
  if (traffic.cells > 0) {
    report.metric("traffic.charge_ns_per_dart",
                  ratio(t.ns(Span::kTrafficCharge), static_cast<double>(traffic.darts_charged)));
    report.metric("traffic.darts_charged_per_cell",
                  ratio(static_cast<double>(traffic.darts_charged),
                        static_cast<double>(traffic.cells)));
    report.metric("traffic.probe_ns", t.mean_ns(Span::kTrafficProbe));
    report.metric("traffic.affected_flow_share",
                  ratio(static_cast<double>(traffic.affected),
                        static_cast<double>(traffic.universe)));
    report.metric("traffic.price_ns", t.mean_ns(Span::kTrafficPrice));
  }
  report.metric("route.tables_us",
                ratio(t.ns(Span::kRouteTables), static_cast<double>(scenarios)) / 1e3);
  report.metric("net.sample_ns", t.mean_ns(Span::kNetSample));
  report.metric("net.fail_restore_ns", t.mean_ns(Span::kNetFailRestore));
  report.metric("graph.components_ns", t.mean_ns(Span::kGraphComponents));
  report.metric("analysis.reduce_ns", t.mean_ns(Span::kAnalysisReduce));
  report.metric("scenario_us_p50", percentile(t.scenario_us, 0.50));
  report.metric("scenario_us_p99", percentile(t.scenario_us, 0.99));
  report.metric("trace.attributed_share", t.attributed_share);
  report.metric("trace.overhead", ratio(traced_s, untraced_s) - 1.0);
  report.output("trace_scenarios", std::to_string(t.scenario_us.size()));

  // Share of scenario time per layer, from the spans directly under scenarios.
  const double total = ratio(1.0, std::accumulate(t.scenario_us.begin(), t.scenario_us.end(),
                                                   0.0) * 1e3);
  const auto share = [&](std::initializer_list<Span> spans) {
    double ns = 0.0;
    for (const Span s : spans) ns += t.ns(s);
    return std::to_string(ns * total);
  };
  report.output("layer_share",
                "{\"net\": " + share({Span::kNetSample, Span::kNetFailRestore}) +
                    ", \"graph\": " + share({Span::kGraphComponents}) +
                    ", \"traffic\": " +
                    share({Span::kTrafficProbe, Span::kTrafficCharge, Span::kTrafficPrice}) +
                    ", \"route\": " + share({Span::kRouteTables}) +
                    ", \"sim.pr\": " + share({Span::kForwardPr}) +
                    ", \"sim.lfa\": " + share({Span::kForwardLfa}) +
                    ", \"sim.reconvergence\": " + share({Span::kForwardReconvergence}) +
                    ", \"analysis\": " + share({Span::kAnalysisReduce}) + "}");
}

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"scenarios_per_s", "1/s"},
      {"cpu_ms_per_scenario", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"completed_scenario_share", "share"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"sim.forward_ns_per_hop.pr", "ns"},
      {"sim.forward_ns_per_hop.lfa", "ns"},
      {"sim.forward_ns_per_hop.reconvergence", "ns"},
      {"sim.hops_per_cell.pr", "count"},
      {"sim.hops_per_cell.lfa", "count"},
      {"sim.hops_per_cell.reconvergence", "count"},
      {"sim.delivered_hop_share.pr", "share"},
      {"sim.delivered_hop_share.lfa", "share"},
      {"sim.delivered_hop_share.reconvergence", "share"},
      {"sim.flows_rerouted_per_cell.pr", "count"},
      {"sim.flows_rerouted_per_cell.lfa", "count"},
      {"sim.flows_rerouted_per_cell.reconvergence", "count"},
      {"sim.executor.busy_share_min", "share"},
      {"sim.executor.busy_share_mean", "share"},
      {"sim.executor.reduce_share", "share"},
      {"traffic.charge_ns_per_dart", "ns"},
      {"traffic.darts_charged_per_cell", "count"},
      {"traffic.probe_ns", "ns"},
      {"traffic.affected_flow_share", "share"},
      {"traffic.price_ns", "ns"},
      {"traffic.index_build_ms", "ms"},
      {"route.tables_us", "us"},
      {"route.tree_repairs_per_scenario", "count"},
      {"route.orphan_nodes_per_scenario", "count"},
      {"route.cache_hit_rate", "share"},
      {"route.pristine_build_ms", "ms"},
      {"route.table_mb", "MB"},
      {"net.sample_ns", "ns"},
      {"net.fail_restore_ns", "ns"},
      {"graph.components_ns", "ns"},
      {"analysis.reduce_ns", "ns"},
      {"analysis.checkpoints", "count"},
      {"analysis.checkpoint_bytes", "bytes"},
      {"analysis.checkpoint_persist_ms", "ms"},
      {"embed.protocol_suite_ms", "ms"},
      {"scenario_us_p50", "us"},
      {"scenario_us_p99", "us"},
      {"trace.attributed_share", "share"},
      {"trace.overhead", "share"},
  };
  return specs;
}

}  // namespace perfbench
