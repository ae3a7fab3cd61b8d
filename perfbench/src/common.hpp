// Shared plumbing of the failure-sweep benchmark driver: options, the
// metric/check report, span tracing around library calls, and small
// measurement helpers.  Everything here lives outside the library: layers are
// timed from the benchmark's side, around calls to their public functions.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/protocols.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel_sweep.hpp"
#include "traffic/capacity.hpp"
#include "traffic/demand.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     ///< self-test size: same code paths, small inputs
  bool corrupt = false;  ///< self-test: perturb the first expected value of every check
  std::string scratch = ".bench_build/perfbench/scratch";
  std::string commit = "unknown";
  std::string source_sha256 = "unknown";
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] inline double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

[[nodiscard]] inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Seeded sample of `count` distinct indices from [0, universe), ascending.
/// Depends only on (seed, salt, count, universe) -- never on thread count.
[[nodiscard]] std::vector<std::size_t> seeded_sample(std::uint64_t seed,
                                                     std::uint64_t salt,
                                                     std::size_t count,
                                                     std::size_t universe);

/// One output check: how many values it compared, and the first mismatch.
/// Comparisons are bitwise.  In corrupt mode the first comparison of every
/// check is made against a perturbed expectation, so a working check fails.
class Check {
 public:
  Check(std::string name, bool corrupt) : name_(std::move(name)), corrupt_(corrupt) {}

  bool same(double got, double want, const std::string& what) {
    if (corrupt_ && executed_ == 0) want = want == 0.0 ? 1.0 : want * 2.0;
    return record(std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want),
                  what);
  }
  bool same(std::uint64_t got, std::uint64_t want, const std::string& what) {
    if (corrupt_ && executed_ == 0) ++want;
    return record(got == want, what);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t executed() const noexcept { return executed_; }
  [[nodiscard]] std::size_t mismatches() const noexcept { return mismatches_; }
  [[nodiscard]] const std::string& first_mismatch() const noexcept { return first_; }
  [[nodiscard]] bool passed() const noexcept { return executed_ > 0 && mismatches_ == 0; }

 private:
  bool record(bool equal, const std::string& what) {
    ++executed_;
    if (!equal && mismatches_++ == 0) first_ = what;
    return equal;
  }

  std::string name_;
  bool corrupt_;
  std::size_t executed_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_;
};

/// Everything one run prints: metrics, checks, ungated outputs and the
/// scenario accounting.
struct Report {
  explicit Report(const Options& o) : options(o) {}

  void metric(const std::string& name, double value) { values.emplace_back(name, value); }
  Check& check(const std::string& name) {
    checks.push_back(std::make_unique<Check>(name, options.corrupt));
    return *checks.back();
  }
  /// An output that is printed and checked for presence, but not gated.
  void output(const std::string& name, const std::string& json_value) {
    outputs.emplace_back(name, json_value);
  }

  const Options& options;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::unique_ptr<Check>> checks;
  std::vector<std::pair<std::string, std::string>> outputs;
  std::size_t attempted = 0;  ///< scenarios handed to timed sweep calls
  std::size_t failed = 0;     ///< of those, scenarios the sweep did not complete
};

/// Span kinds recorded by the traced replay, one per layer boundary.  The
/// forward spans are per protocol, in suite order (pr, lfa, reconvergence).
enum class Span : std::uint8_t {
  kScenario,
  kNetSample,
  kNetFailRestore,
  kGraphComponents,
  kTrafficProbe,
  kRouteTables,
  kForwardPr,
  kForwardLfa,
  kForwardReconvergence,
  kTrafficCharge,
  kTrafficPrice,
  kAnalysisReduce,
  kCount
};
[[nodiscard]] const char* to_string(Span s) noexcept;
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(Span::kCount);

/// In-memory span recorder.  Disabled, a scope reads no clock, so the same
/// replay code runs once untraced (the overhead baseline) and once traced.
class Tracer {
 public:
  struct Record {
    Span kind;
    std::int32_t parent;  ///< index of the enclosing span, -1 for roots
    std::uint32_t scenario;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& t, Span kind) : tracer_(t.enabled_ ? &t : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(kind);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  void set_scenario(std::size_t id) noexcept { scenario_ = static_cast<std::uint32_t>(id); }
  [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }

 private:
  std::int32_t open(Span kind) {
    records_.push_back(Record{kind, open_, scenario_, pr::obs::now_ns(), 0});
    open_ = static_cast<std::int32_t>(records_.size() - 1);
    return open_;
  }
  void close(std::int32_t index) {
    Record& r = records_[static_cast<std::size_t>(index)];
    r.end_ns = pr::obs::now_ns();
    open_ = r.parent;
  }

  bool enabled_;
  std::vector<Record> records_;
  std::int32_t open_ = -1;
  std::uint32_t scenario_ = 0;
};

/// What the span records add up to.
struct TraceSummary {
  std::array<double, kSpanKinds> total_ns{};
  std::array<std::size_t, kSpanKinds> calls{};
  std::vector<double> scenario_us;  ///< one per scenario span
  double attributed_share = 0.0;    ///< direct children of scenarios / scenario time

  [[nodiscard]] double ns(Span s) const { return total_ns[static_cast<std::size_t>(s)]; }
  [[nodiscard]] std::size_t count(Span s) const { return calls[static_cast<std::size_t>(s)]; }
  [[nodiscard]] double mean_ns(Span s) const {
    return ratio(ns(s), static_cast<double>(count(s)));
  }
};
[[nodiscard]] TraceSummary summarize(const Tracer& tracer);

/// Writes the spans as a chrome://tracing file (complete events, in us).
void write_chrome_trace(const Tracer& tracer, const std::string& path);

/// Capacity plan sized so the busiest pristine SPF interface runs at 60%
/// utilization -- the sizing rule the repository's benches use.
[[nodiscard]] pr::traffic::CapacityPlan size_plan(const pr::graph::Graph& g,
                                                  const pr::analysis::ProtocolSuite& suite,
                                                  const pr::traffic::TrafficMatrix& demand);

/// Sweep-call measurement of one repetition.
struct SweepTiming {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t attempted = 0;
  std::size_t completed = 0;
};

/// Reads executor shares and route-layer counters from a registry attached
/// to one library sweep of `scenarios` scenarios that took `wall_s`.
void registry_metrics(const pr::obs::Registry& registry, double wall_s,
                      std::size_t scenarios, Report& report);

/// Per-protocol forwarding counters gathered by a replay, in suite order.
struct ForwardCounters {
  std::size_t cells = 0;
  std::uint64_t hops = 0;
  std::uint64_t delivered_hops = 0;
  std::uint64_t rerouted = 0;
};

/// Replay-side counters of the traffic layer.
struct TrafficCounters {
  std::uint64_t affected = 0;
  std::uint64_t universe = 0;
  std::uint64_t darts_charged = 0;
  std::uint64_t cells = 0;
};

/// Adds one replayed (scenario, protocol) cell to the counters: the batch of
/// re-routed flows, the probe's affected and universe sizes, darts charged.
void count_cell(const pr::sim::BatchResult& batch, std::size_t affected,
                std::size_t universe, std::uint64_t darts, ForwardCounters& fwd,
                TrafficCounters& traffic);

/// Emits the sim/traffic/net/graph/analysis/scenario/trace metrics a replay
/// measured.  `untraced_s` / `traced_s` time the same replay without and with
/// spans (trace.overhead); `scenarios` counts replayed scenarios.
void replay_metrics(const TraceSummary& t, const std::vector<ForwardCounters>& fwd,
                    const TrafficCounters& traffic, std::size_t scenarios,
                    double untraced_s, double traced_s, Report& report);

/// Names and units of the per-layer metrics, in output order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& per_layer_specs();
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_specs();

}  // namespace perfbench
