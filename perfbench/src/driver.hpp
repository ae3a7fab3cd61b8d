// The measurement loop every workload shares.
//
// A workload type W provides
//   struct Setup { std::unique_ptr<pr::sim::SweepExecutor> executor;
//                  double suite_ms; ... };
//   static std::unique_ptr<Setup> make_setup(const Options&);
//   SweepTiming sweep(Setup&);          // one timed library sweep call
//   void check(Setup&, Report&);        // untimed output checks
//   void trace(Setup&, Report&);        // traced replay, per-layer metrics
//
// Untraced runs repeat (set-up, sweep) until --seconds have passed, at least
// twice, and report medians; traced runs make one repetition with an
// obs::Registry attached to the executor, then the traced replay.  Output
// checks run in both.
#pragma once

#include <numeric>

#include "common.hpp"

namespace perfbench {

inline constexpr std::size_t kMinRepetitions = 2;

template <typename W>
void run_workload(const Options& options, Report& report) {
  W workload(options);
  const auto account = [&](const SweepTiming& t) {
    report.attempted += t.attempted;
    report.failed += t.attempted - t.completed;
  };

  if (options.trace) {
    auto setup = W::make_setup(options);
    pr::obs::Registry registry;
    setup->executor->set_telemetry(pr::sim::SweepTelemetry{&registry});
    const SweepTiming t = workload.sweep(*setup);
    setup->executor->set_telemetry(pr::sim::SweepTelemetry{});
    account(t);
    registry_metrics(registry, t.wall_s, t.completed, report);
    report.metric("embed.protocol_suite_ms", setup->suite_ms);
    workload.trace(*setup, report);
    workload.check(*setup, report);
    return;
  }

  std::vector<double> setup_s;
  std::vector<double> rate;
  std::vector<double> cpu_ms;
  std::size_t completed = 0;
  std::unique_ptr<typename W::Setup> setup;
  const auto start = Clock::now();
  do {
    setup.reset();
    const auto t0 = Clock::now();
    setup = W::make_setup(options);
    setup_s.push_back(seconds_since(t0));
    const SweepTiming t = workload.sweep(*setup);
    account(t);
    completed += t.completed;
    rate.push_back(ratio(static_cast<double>(t.completed), t.wall_s));
    cpu_ms.push_back(ratio(t.cpu_s * 1e3, static_cast<double>(t.completed)));
  } while (seconds_since(start) < options.seconds || rate.size() < kMinRepetitions);
  const double rss = peak_rss_mb();

  // Set-up is also sampled on its own until the samples add up to a second
  // (sub-millisecond set-ups are noisy); these set-ups are built after the
  // peak RSS was read.
  const auto setup_total = [&] {
    return std::accumulate(setup_s.begin(), setup_s.end(), 0.0);
  };
  while (setup_total() < 1.0 && setup_s.size() < 1000) {
    const auto t0 = Clock::now();
    const auto extra = W::make_setup(options);
    setup_s.push_back(seconds_since(t0));
  }

  workload.check(*setup, report);

  report.metric("scenarios_per_s", median(rate));
  report.metric("cpu_ms_per_scenario", median(cpu_ms));
  report.metric("setup_s", median(setup_s));
  report.metric("peak_rss_mb", rss);
  report.metric("completed_scenario_share",
                ratio(static_cast<double>(completed), static_cast<double>(report.attempted)));
  std::string rates = "[";
  for (const double r : rate) rates += (rates.size() > 1 ? ", " : "") + std::to_string(r);
  report.output("repetition_rates", rates + "]");
  report.output("setup_samples", std::to_string(setup_s.size()));
}

}  // namespace perfbench
