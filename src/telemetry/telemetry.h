// Runtime telemetry: the *performance* layer beneath the observe library.
//
// The observe library (src/observe) records *semantic* events — snapshots,
// output changes, stop reasons.  This library answers a different question:
// where does the wall time of a run actually go?  Per-phase timers over the
// run-loop kernel and the collapsed super-step pipeline, per-shard
// busy/barrier-wait accounting for the fork-merge thread pool, geometric
// null-skip accounting for the count-batch engine, and a live interaction
// counter that external threads (e.g. a progress reporter) may poll while
// the run executes.  Two exporters consume the result: a Chrome trace-event
// JSON writer (chrome_trace.h, loads in chrome://tracing and Perfetto) and
// a Prometheus-style text exposition (prometheus.h).
//
// Cost contract (mirrors core/observer.h):
//
//  * No collector attached (RunOptions::telemetry == nullptr, the default):
//    one predicted-not-taken branch per probe site — no clock reads, no
//    stores.  bench_observe's *TelemetryOff rows pin this at <= 2% against
//    the unobserved baselines.
//  * Collector attached: every probe records.
//  * Telemetry never touches the RNG stream or the configuration: a run
//    with a collector attached is bit-identical (same interactions, same
//    RunResult) to one without, on every engine — proven by
//    tests/telemetry_test.cpp.
//
// Threading: a RunTelemetryCollector instruments exactly ONE run at a time
// (reset() between runs; measure_trials rejects a shared collector).  The
// driving thread owns phase stats, counters and histograms; the thread
// pool's workers write only disjoint per-task slots whose reads happen after
// the round barrier; the live interaction counter is a relaxed atomic so a
// progress thread may poll it concurrently.

#ifndef POPPROTO_TELEMETRY_TELEMETRY_H
#define POPPROTO_TELEMETRY_TELEMETRY_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace popproto::telemetry {

// ---------------------------------------------------------------------------
// Phases

/// The instrumented phases of a run.  kStepping is *derived* for
/// per-interaction engines (wall time minus every other top-level phase —
/// clocking each O(ns) interaction individually would dwarf the work);
/// super-step engines measure their stepping as kSuperStepApply directly.
/// The sub-phases of a collapsed super-step nest inside kSuperStepApply and
/// are excluded from the top-level accounting (phase_is_nested).
enum class Phase : std::uint8_t {
    kStepping = 0,      ///< derived: interaction sampling + application
    kSnapshotDispatch,  ///< observer snapshot emission (run_loop)
    kRunLengthDraw,     ///< fresh-fresh run lengths and the events between them (nested)
    kSuperStepApply,    ///< one whole collapsed super-step
    kShardCarve,        ///< parent-stream hypergeometric pool carves (nested)
    kShardTasks,        ///< the parallel fan-out section, fork to merge (nested)
    kPairCascade,       ///< deferred pairs: pool, initiator split, row matching (nested)
    kDeltaMerge,        ///< aggregate count-delta application (nested)
    kWRecompute,        ///< effective-pair (W) recount (nested)
    kShardTask,         ///< one shard's task body (worker thread, span only)
    kEngineSwitch,      ///< adaptive engine: a change of step kind
    kCount
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

/// Stable lowercase identifier ("stepping", "snapshot_dispatch", ...).
const char* phase_name(Phase phase);

/// Nested phases run inside another timed phase and are excluded from the
/// derived kStepping top-level accounting.
bool phase_is_nested(Phase phase);

// ---------------------------------------------------------------------------
// Plain aggregates

/// Accumulated timing of one phase.
struct PhaseStat {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
};

/// Per-shard (== per thread-pool task slot) utilization.  `wait_ns` is the
/// barrier imbalance: round wall time minus this shard's busy time, summed
/// over rounds — the time the round spent waiting on *other* shards after
/// this one finished (plus fork/merge overhead).
struct ShardStat {
    std::uint64_t tasks = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t wait_ns = 0;
};

/// One timed interval, in nanoseconds since the collector epoch.  tid 0 is
/// the driving thread; tid k >= 1 is shard k-1 of the thread pool.
struct TraceSpan {
    Phase phase = Phase::kStepping;
    std::uint32_t tid = 0;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
};

/// A log2-bucketed histogram of nonnegative values: bucket b counts samples
/// in [2^b, 2^(b+1)) (bucket 0 additionally holds the zeros).
struct Log2Histogram {
    static constexpr std::size_t kNumBuckets = 64;

    void record(std::uint64_t value);

    std::array<std::uint64_t, kNumBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
};

// ---------------------------------------------------------------------------
// RunTelemetry: the structured result attached to RunResult

/// Everything the collector measured about one run.  Attached to
/// RunResult::telemetry as a shared_ptr when RunOptions::telemetry was set;
/// the exporters (chrome_trace.h, prometheus.h) consume it as-is.
struct RunTelemetry {
    /// Schema version of the exported forms (chrome trace metadata,
    /// prometheus HELP text, JsonlTraceWriter's "telemetry" event).
    static constexpr int kSchemaVersion = 1;

    std::string engine;  ///< observed_engine_name of the executing engine
    std::uint64_t population = 0;
    unsigned threads = 1;

    std::uint64_t wall_ns = 0;
    std::uint64_t interactions = 0;
    std::uint64_t effective_interactions = 0;

    /// Indexed by Phase.  kStepping is derived (see Phase).
    std::array<PhaseStat, kNumPhases> phases{};

    /// One slot per thread-pool task (== shard); empty for serial engines.
    std::vector<ShardStat> shards;
    std::uint64_t pool_rounds = 0;     ///< super-steps dispatched via the pool
    std::uint64_t inline_rounds = 0;   ///< sub-threshold rounds run inline

    // Super-step engine accounting.
    std::uint64_t super_steps = 0;
    std::uint64_t clamped_super_steps = 0;  ///< cut short of T at a boundary
    std::uint64_t super_step_pairs = 0;     ///< interactions executed in super-steps

    // Count-batch geometric-skip accounting, copied from the run's tallies
    // (RunResult::tallies' null runs) when it finishes.
    std::uint64_t geometric_skips = 0;
    std::uint64_t null_interactions_skipped = 0;

    /// Phase-adaptive accounting: one entry per stretch of one step kind
    /// (an engine segment), in execution order, attributing the run's
    /// interactions and wall time to the engine whose steps executed them.
    /// Empty for static engines.
    struct EngineSegment {
        std::string engine;  ///< observed_engine_name of the segment engine
        std::uint64_t interactions = 0;
        std::uint64_t wall_ns = 0;
    };
    std::vector<EngineSegment> engine_segments;
    std::uint64_t engine_switches = 0;

    /// Bounded span log for the Chrome trace exporter; spans beyond the
    /// collector's capacity are counted in spans_dropped, never silently
    /// lost.  Durations in the phase stats are exact regardless.
    std::vector<TraceSpan> spans;
    std::uint64_t spans_dropped = 0;

    /// Length distributions of the geometric null skips and of the
    /// super-steps (interactions each).
    Log2Histogram null_skip_length_log2;
    Log2Histogram super_step_pairs_log2;

    /// Human-readable multi-line summary (phase table + shard table).
    std::string to_string() const;
};

// ---------------------------------------------------------------------------
// PoolTelemetry: what the ThreadPool records

/// Shared state between a ThreadPool and the collector that owns it.  The
/// pool's drain loop stamps per-task begin/end times into the round scratch
/// (disjoint slots, one writer each); ThreadPool::run folds them into
/// `shards` and the span log after the round barrier, on the caller thread,
/// so no synchronization beyond the barrier is needed.
class PoolTelemetry {
public:
    /// Sizes the per-task slots; call before the first instrumented round.
    void configure(std::size_t tasks, std::chrono::steady_clock::time_point epoch,
                   std::size_t max_spans);

    std::uint64_t now_ns() const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    std::size_t tasks() const { return shards.size(); }

    /// Called by the task executor (worker or caller thread) around task i.
    void stamp_begin(std::size_t task) { round_begin_[task] = now_ns(); }
    void stamp_end(std::size_t task) { round_end_[task] = now_ns(); }

    /// Folds the finished round into the aggregates (caller thread, after
    /// the barrier).  `executed` is the number of tasks of the round.
    void fold_round(std::uint64_t round_begin_ns, std::uint64_t round_end_ns,
                    std::size_t executed);

    std::vector<ShardStat> shards;
    std::uint64_t rounds = 0;
    std::uint64_t rounds_ns = 0;
    std::vector<TraceSpan> spans;
    std::uint64_t spans_dropped = 0;

private:
    std::chrono::steady_clock::time_point epoch_{};
    std::size_t max_spans_ = 0;
    std::vector<std::uint64_t> round_begin_;
    std::vector<std::uint64_t> round_end_;
};

// ---------------------------------------------------------------------------
// The collector

/// Accumulates one run's telemetry.  Attach via RunOptions::telemetry; the
/// run-loop kernel and the engine steppers drive the probes; after the run,
/// RunResult::telemetry points at the finished RunTelemetry (also available
/// here via telemetry()).  Reusable across runs after reset().
class RunTelemetryCollector {
public:
    /// `max_spans` bounds the Chrome-trace span log (drops are counted in
    /// RunTelemetry::spans_dropped).
    explicit RunTelemetryCollector(std::size_t max_spans = std::size_t{1} << 15);

    /// Nanoseconds since the collector epoch (set by begin_run).
    std::uint64_t now_ns() const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    // --- probes ------------------------------------------------------------

    void begin_run(const char* engine, std::uint64_t population, unsigned threads);

    /// Ends the run.  The null-run figures are the kernel's tallies of the
    /// count-batch steps' geometric skips (RunTallies' null_runs,
    /// null_interactions and null_run_length_log2), which fill
    /// geometric_skips, null_interactions_skipped and null_skip_length_log2.
    void finish_run(std::uint64_t interactions, std::uint64_t effective_interactions,
                    std::uint64_t null_runs, std::uint64_t null_interactions,
                    const std::array<std::uint64_t, Log2Histogram::kNumBuckets>&
                        null_run_length_log2);

    /// One engine segment of a phase-adaptive run, begun at `begin_ns` (a
    /// now_ns() stamp) and ending now.  The run-loop kernel closes one
    /// segment per stretch of one step kind between begin_run and
    /// finish_run; finish_run counts the switches as segments - 1.
    void record_engine_segment(const char* engine, std::uint64_t interactions,
                               std::uint64_t begin_ns);

    void record_phase(Phase phase, std::uint64_t begin_ns, std::uint64_t end_ns,
                      std::uint32_t tid = 0);

    /// One super-step of `pairs` interactions; `clamped` when the kernel cut
    /// it short of T at a boundary.
    void record_super_step(std::uint64_t pairs, bool clamped);

    /// One sub-threshold parallel-stepper round executed inline (no pool
    /// dispatch; see ParallelCollapsedStepper::kMinPairsPerWorker).
    void record_inline_round() { ++data_->inline_rounds; }

    /// Publishes the loop's interaction counter for concurrent polling.
    void publish_interactions(std::uint64_t interactions) {
        live_interactions_.store(interactions, std::memory_order_relaxed);
    }

    // --- concurrent-read API ----------------------------------------------

    /// The most recently published interaction index (any thread).
    std::uint64_t live_interactions() const {
        return live_interactions_.load(std::memory_order_relaxed);
    }

    // --- post-run API ------------------------------------------------------

    /// The pool telemetry handed to a ThreadPool (shards sized on demand by
    /// the parallel stepper).
    PoolTelemetry& pool() { return pool_; }

    /// Epoch for external span stampers (the ThreadPool via PoolTelemetry).
    std::chrono::steady_clock::time_point epoch() const { return epoch_; }
    std::size_t max_spans() const { return max_spans_; }

    /// The finished telemetry (valid after finish_run; begin_run resets it).
    const RunTelemetry& telemetry() const { return *data_; }

    /// Shares the finished telemetry (what run_loop attaches to RunResult).
    std::shared_ptr<const RunTelemetry> share() const { return data_; }

    /// Clears everything for the next run (begin_run also does this).
    void reset();

private:
    const std::size_t max_spans_;
    std::chrono::steady_clock::time_point epoch_{};
    std::shared_ptr<RunTelemetry> data_;
    std::atomic<std::uint64_t> live_interactions_{0};
    PoolTelemetry pool_;
};

/// RAII phase timer: records one record_phase interval on destruction.
/// With a null collector (telemetry detached) it performs no clock reads.
class ScopedTimer {
public:
    ScopedTimer(RunTelemetryCollector* collector, Phase phase, std::uint32_t tid = 0)
        : collector_(collector), phase_(phase), tid_(tid) {
        if (collector_ != nullptr) begin_ns_ = collector_->now_ns();
    }
    ~ScopedTimer() {
        if (collector_ != nullptr)
            collector_->record_phase(phase_, begin_ns_, collector_->now_ns(), tid_);
    }
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    RunTelemetryCollector* const collector_;
    const Phase phase_;
    const std::uint32_t tid_;
    std::uint64_t begin_ns_ = 0;
};

}  // namespace popproto::telemetry

#endif  // POPPROTO_TELEMETRY_TELEMETRY_H
