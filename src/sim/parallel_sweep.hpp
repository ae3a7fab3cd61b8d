// Parallel sharded sweep execution on top of the batched forwarding engine.
//
// The paper's guarantee -- zero loss for any failure combination the cycle
// table covers -- is only demonstrable by enumerating large
// (scenario x ordered-pair x protocol) spaces.  PR 1 made one sweep
// allocation-free (sim::route_batch); this layer shards a sweep's work units
// (a failure scenario plus its affected flow list) across a persistent worker
// pool so enumeration scales with the hardware.
//
// Determinism contract: results are bit-identical for every thread count,
// including 1.  Every experiment driver in analysis/ has exactly one sweep
// body, written on run_ordered; its serial signature is that body on a
// 1-thread executor.  Three rules make the contract hold:
//   1. a work unit is the atom of scheduling -- all flows of a scenario are
//      routed by one worker, in the caller's flow order, against protocol
//      instances built fresh for that unit;
//   2. randomness comes from per-unit streams split off the caller's seed
//      (split_seed), never from a per-thread or shared generator, so a unit
//      draws the same numbers no matter which worker runs it;
//   3. units hand their results to run_ordered's reduce hook through a ring
//      of `window` slots, and the hook folds them in canonical unit order --
//      never in completion order.  Integer counters are order-insensitive
//      anyway; floating-point accumulators (costs, stretch sums, loads) are
//      not, which is why the fold order is part of the contract.
//
// Robustness contract: the entry points taking a RunControl return a
// SweepOutcome instead of throwing, stop cooperatively at unit boundaries on
// cancel/deadline/budget, contain per-unit exceptions, and guarantee the
// surviving results form the canonical prefix [0, k) -- see
// sim/run_control.hpp for the truncation contract.  The one throwing entry
// point, run(n, fn, seed), is the controlled run() under a default control
// that rethrows the lowest failing unit as SweepUnitError.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/rng.hpp"
#include "route/scenario_cache.hpp"
#include "sim/forwarding_engine.hpp"
#include "sim/run_control.hpp"
#include "traffic/incidence.hpp"
#include "traffic/load_map.hpp"

namespace pr::obs {
class Registry;
class TraceLog;
class SweepProgress;
}  // namespace pr::obs

namespace pr::sim {

/// Optional observability attachments for an executor (see src/obs/).  All
/// three are borrowed pointers the caller keeps alive across runs; any subset
/// may be null.  Telemetry is purely observational -- attaching it must not
/// (and, by obs_test, does not) change a single result bit.
///   * registry -- per-worker obs::Counters cells; the executor installs
///     worker w's cell as the thread-local sink while w runs units, so every
///     instrumented subsystem (SPF repair, routing caches, incidence probes,
///     forwarding) attributes to the right worker without plumbing.
///   * trace    -- obs::TraceLog receiving unit/reduce/fault/stall/truncate
///     spans for chrome://tracing export.
///   * progress -- obs::SweepProgress fed per-unit start/finish events; when
///     attached, run()/run_ordered() drive a monitor thread that calls
///     progress->tick() on its configured interval (snapshot callbacks,
///     stall detection).
struct SweepTelemetry {
  obs::Registry* registry = nullptr;
  obs::TraceLog* trace = nullptr;
  obs::SweepProgress* progress = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return registry != nullptr || trace != nullptr || progress != nullptr;
  }
};

/// Hard ceiling on pool size -- far above any real machine, so it only ever
/// trips on caller bugs ("-1" parsed through strtoull, uninitialised config)
/// before they reach the OS as thousands of thread spawns.
inline constexpr std::size_t kMaxSweepThreads = 4096;

/// Periodic durability hook for controlled ordered sweeps.  When attached,
/// the executor's monitor thread persists mid-run checkpoints on `cadence`
/// without ever pausing the sweep:
///
///   * serialize(k) runs on the monitor thread UNDER the executor's internal
///     lock.  reduce() is serialised by that same lock, so the watermark k is
///     frozen and the caller's streaming reducer state is EXACTLY the
///     canonical prefix [0, k) -- the blob it returns is bit-identical to the
///     checkpoint a deadline-stopped run at k would have written.  Keep it to
///     in-memory encoding (KBs of reducer state); every worker that reaches
///     its reduce step blocks while it runs.
///   * persist(k, blob) runs OFF the lock, so fsync/rename latency never
///     stalls a worker.  By the time it runs the sweep has typically moved
///     past k; that is fine -- the blob was sealed under the lock.
///
/// Either hook throwing counts a checkpoint_failure on the outcome and the
/// sweep keeps going (a missed checkpoint loses durability, never results).
/// The driver still owns the FINAL checkpoint after the run returns; this
/// hook is what bounds the re-execution window when the process dies without
/// warning (SIGKILL, std::abort) between final checkpoints.
struct AutoCheckpoint {
  std::function<std::string(std::size_t completed_units)> serialize;
  std::function<void(std::size_t completed_units, std::string&& blob)> persist;
  CheckpointCadence cadence;

  [[nodiscard]] bool active() const noexcept {
    return serialize != nullptr && persist != nullptr && cadence.any();
  }
};

/// Thrown by SweepExecutor::run(n, fn, seed) when a unit function throws:
/// carries the failing unit index and the worker that ran it, with the
/// original exception attached via std::throw_with_nested.  When several
/// in-flight units fail before the pool drains, the LOWEST unit is the one
/// rethrown, so the surfaced error is deterministic across thread counts
/// whenever the failure itself is.
class SweepUnitError : public std::runtime_error {
 public:
  SweepUnitError(std::size_t unit, std::size_t worker, const std::string& what)
      : std::runtime_error("sweep unit " + std::to_string(unit) +
                           " failed on worker " + std::to_string(worker) +
                           ": " + what),
        unit_(unit),
        worker_(worker) {}

  [[nodiscard]] std::size_t unit() const noexcept { return unit_; }
  [[nodiscard]] std::size_t worker() const noexcept { return worker_; }

 private:
  std::size_t unit_;
  std::size_t worker_;
};

/// All-or-nothing adapter for runs under a default RunControl, where only a
/// failed unit stops a sweep early: when `outcome` did not complete, throws
/// SweepUnitError for its lowest failed unit with the original exception
/// nested.  run(n, fn, seed) and the executor-taking analysis drivers that
/// take no RunControl are built on it.
void throw_if_incomplete(const SweepOutcome& outcome);

/// Deterministic stream splitting (splitmix64 over seed ^ f(stream)): the
/// RNG stream for work unit `stream` of a sweep seeded with `seed`.
/// Adjacent units get statistically independent streams; the mapping depends
/// only on (seed, stream), never on thread placement.
[[nodiscard]] std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream);

/// Per-worker scratch owned by the pool: one context lives as long as its
/// worker thread, so the reusable route_batch buffer set keeps the hot loop
/// allocation-free across every unit the worker executes, across run() calls.
class WorkerContext {
 public:
  /// Reusable sweep buffers (cleared by the unit function, capacity kept).
  std::vector<FlowSpec> flows;
  std::vector<double> base_costs;
  std::vector<char> flags;
  BatchResult batch;

  /// Reusable per-dart load accumulator for demand-weighted cells whose load
  /// map does not outlive the unit (storm sweeps): it is reset per cell, so
  /// once warm a sweep adds no per-scenario heap traffic.
  traffic::LoadMap load;

  /// Per-worker scratch for incremental traffic sweeps: affected-flow marks
  /// and the compacted re-route list a scenario cell probes out of the shared
  /// FlowIncidenceIndex.  Reused across units like the buffers above.
  traffic::IncidenceScratch incidence;

  /// Per-worker scenario routing cache: protocols that reconverge borrow
  /// delta-repaired tables from here instead of building a fresh RoutingDb
  /// per scenario.  Served tables are bit-identical to from-scratch builds,
  /// so results stay independent of worker placement.
  route::ScenarioRoutingCache routes;

  /// Per-unit RNG: reseeded to split_seed(run seed, unit) before every unit
  /// function invocation, so draws depend on the unit, not the worker.
  [[nodiscard]] graph::Rng& rng() noexcept { return rng_; }

  /// Index of the owning worker in [0, thread_count()); for diagnostics
  /// only -- results must never depend on it.
  [[nodiscard]] std::size_t worker() const noexcept { return worker_; }

 private:
  friend class SweepExecutor;
  graph::Rng rng_{0};
  std::size_t worker_ = 0;
};

/// Persistent worker pool that shards [0, unit_count) across threads.
/// Construction spawns the workers once; run() reuses them, so repeated
/// sweeps (a bench's repetitions, a multi-k enumeration) pay no per-call
/// thread churn.  run() is synchronous and admits ONE caller at a time: it
/// must not be called reentrantly from inside a unit function, nor
/// concurrently from two threads sharing the executor (enforced -- the
/// second caller gets std::logic_error instead of silently corrupted
/// sharding).  Give each driving thread its own executor instead.
class SweepExecutor {
 public:
  /// Function applied to each work unit.  Runs on a worker thread; touching
  /// anything other than per-unit slots and the passed context requires the
  /// caller's own synchronisation.
  using UnitFn = std::function<void(std::size_t unit, WorkerContext& ctx)>;

  /// Streaming reduction hook for run_ordered(): called exactly once per
  /// unit, in canonical unit order (0, 1, 2, ...), never concurrently with
  /// itself or with another reduce call.  It runs on whichever worker thread
  /// happened to close the gap, under the executor's internal lock: keep it
  /// light -- fold the unit's slot into reducer state -- and leave the heavy
  /// work to the unit function.
  using ReduceFn = std::function<void(std::size_t unit)>;

  /// `threads` == 0 selects std::thread::hardware_concurrency() (minimum 1).
  /// Throws std::invalid_argument when threads > kMaxSweepThreads.
  explicit SweepExecutor(std::size_t threads = 0);
  ~SweepExecutor();

  SweepExecutor(const SweepExecutor&) = delete;
  SweepExecutor& operator=(const SweepExecutor&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept;

  /// Attaches (or, with a default-constructed SweepTelemetry, detaches)
  /// observability sinks for subsequent runs; sizes `telemetry.registry` to
  /// the pool.  Must not be called while a job is running (throws
  /// std::logic_error).  See SweepTelemetry for the determinism guarantee.
  void set_telemetry(const SweepTelemetry& telemetry);

  /// Controlled sweep: applies `fn` to every unit in [0, unit_count),
  /// dynamically sharded across the pool.  `seed` roots the per-unit RNG
  /// streams.  Stop signals (cancel, deadline, unit budget -- checked
  /// cooperatively before each claim), fault injection and the error policy
  /// come from `control`, and instead of throwing the call returns a
  /// SweepOutcome whose completed_units is the canonical prefix length k:
  /// units [0, k) all executed (contained failures listed in errors under
  /// kContinue), results of any unit >= k must be discarded.  `control` is
  /// read-only here and may be shared with a canceller thread.
  SweepOutcome run(std::size_t unit_count, const UnitFn& fn,
                   const RunControl& control, std::uint64_t seed = 0);

  /// The throwing convenience: run() under a default RunControl.  If any
  /// invocation throws, no new units are claimed, in-flight units finish,
  /// and the lowest failing unit's exception is rethrown here wrapped in
  /// SweepUnitError (original attached via std::throw_with_nested).
  void run(std::size_t unit_count, const UnitFn& fn, std::uint64_t seed = 0);

  /// The controlled run() plus a canonical-order streaming reduction: after
  /// unit u's function returns, `reduce(u)` fires once the reductions of
  /// every unit below u have fired -- so the reduce sequence is 0, 1, ...,
  /// completed_units-1 for every thread count and however the sweep stops,
  /// which makes order-sensitive streaming state (P^2 quantile markers, top-K
  /// heaps, floating-point accumulators) bit-identical to a 1-thread sweep
  /// without any per-unit result vector, and always a clean canonical prefix
  /// -- the property checkpoint/resume builds on.  Under
  /// UnitErrorPolicy::kContinue a failed unit's reduce is skipped (the
  /// watermark steps over it) and the unit still counts toward the prefix;
  /// reduce() itself throwing always truncates (streaming state is
  /// potentially half-folded past that point).
  ///
  /// `window` bounds the in-flight span: unit u is not started before
  /// reduce(u - window) has returned, so the caller can hand results from
  /// unit fn to reduce fn through a ring of exactly `window` slots (index
  /// unit % window) and memory stays flat no matter how many units run.
  /// window == 0 selects default_ordered_window(); an explicit window may be
  /// as small as 1 (fully serialised pipeline).
  ///
  /// A non-null, active `checkpoint` makes the monitor thread persist mid-run
  /// checkpoints on its cadence (see AutoCheckpoint for the exact
  /// locking/prefix guarantees); it must outlive the call.  Checkpointing is
  /// durability only: results are bit-identical with it on, off, or failing.
  SweepOutcome run_ordered(std::size_t unit_count, const UnitFn& fn,
                           const ReduceFn& reduce, const RunControl& control,
                           const AutoCheckpoint* checkpoint = nullptr,
                           std::uint64_t seed = 0, std::size_t window = 0);

  /// The window run_ordered(..., window = 0) selects: wide enough to keep
  /// every worker busy across reduction stalls (4 * thread_count(), floor 16).
  /// Callers sizing slot rings should use this.
  [[nodiscard]] std::size_t default_ordered_window() const noexcept;

 private:
  SweepOutcome run_job(std::size_t unit_count, const UnitFn& fn,
                       const ReduceFn* reduce, const RunControl& control,
                       const AutoCheckpoint* auto_checkpoint, std::uint64_t seed,
                       std::size_t window);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Thread count requested via the PR_SWEEP_THREADS environment variable, or
/// `fallback` when unset, unparsable or above kMaxSweepThreads.  0 means
/// "one per hardware thread"; the benches and examples all honour this so CI
/// can pin their parallelism.
[[nodiscard]] std::size_t threads_from_env(std::size_t fallback = 0);

/// Shared CLI handling for every sweep binary: the thread count from
/// argv[index] when present, else threads_from_env(fallback).  An explicit
/// argument must be a plain decimal <= kMaxSweepThreads (0 = hardware);
/// anything else throws std::invalid_argument rather than silently spawning
/// a surprise pool size.
[[nodiscard]] std::size_t threads_from_arg(int argc, char** argv, int index,
                                           std::size_t fallback = 0);

/// Strict decimal parse for CLI counts that size allocations or loops:
/// rejects signs, suffixes ("x4", "4x"), empty strings, overflow and values
/// above `max_value`.  Returns false instead of throwing so callers can
/// print their own usage line.  The thread-count helpers above use the same
/// rules.
[[nodiscard]] bool parse_count_arg(const char* raw, std::size_t max_value,
                                   std::size_t& out);

}  // namespace pr::sim
