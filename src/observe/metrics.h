// Cross-run metric aggregation.
//
// A MetricsAccumulator tallies counters and histograms over every run it
// observes: total vs effective interactions, per-stop-reason counts,
// output-change and snapshot events, null-skip run lengths (log2
// histogram), and wall-clock per run.  The event counts come from the
// tallies the run-loop kernel keeps for every run (RunResult::tallies), so
// the accumulator takes two calls per run, on_start and on_stop, and none
// per event.  It takes no lock, so it belongs to one thread at a time.
// MetricsCollector is the same bookkeeping behind a mutex, for one
// collector shared by several threads (the measure_trials workers sharing
// one through TrialOptions::base.observer).  Code that holds RunResults
// without observing the runs — the service registry, once per work quantum
// — builds the same report with MetricsReport::add_finished_run and
// combines reports with MetricsReport::merge.

#ifndef POPPROTO_OBSERVE_METRICS_H
#define POPPROTO_OBSERVE_METRICS_H

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/observer.h"
#include "core/simulator.h"

namespace popproto {

/// Everything a MetricsAccumulator or MetricsCollector has aggregated.
struct MetricsReport {
    /// Schema version of to_json (bumped on breaking shape changes; the
    /// full schema is documented in DESIGN.md "Observability").
    static constexpr int kSchemaVersion = 2;

    std::uint64_t runs_started = 0;
    std::uint64_t runs_finished = 0;

    // Summed over finished runs.
    std::uint64_t interactions = 0;
    std::uint64_t effective_interactions = 0;

    // Stop reasons of finished runs (silent + stable_outputs + budget +
    // paused == runs_finished).  A paused run (service work quantum,
    // cooperative stop) is counted as finished here — each resumed segment
    // is its own observed run.
    std::uint64_t stops_silent = 0;
    std::uint64_t stops_stable_outputs = 0;
    std::uint64_t stops_budget = 0;
    std::uint64_t stops_paused = 0;

    // Event counts.
    std::uint64_t output_changes = 0;
    std::uint64_t snapshots = 0;

    // Null-run statistics (batch engine; RunTallies).  Bucket b of the
    // histogram counts runs of length in [2^b, 2^(b+1));
    // `null_interactions_skipped` equals interactions -
    // effective_interactions over batch runs.
    std::uint64_t null_runs = 0;
    std::uint64_t null_interactions_skipped = 0;
    std::array<std::uint64_t, 64> null_run_length_log2{};

    // Wall-clock seconds of finished runs.
    double wall_seconds_total = 0.0;
    double wall_seconds_min = 0.0;
    double wall_seconds_max = 0.0;

    /// Multi-line human-readable dump (histogram buckets with zero counts
    /// are omitted).
    std::string to_string() const;

    /// Single-line JSON object with every counter plus the non-zero log2
    /// histogram buckets (keyed by bucket exponent), so cross-run
    /// aggregates can land next to JSONL traces without hand-rolled
    /// printing:
    /// {"schema_version":2,"runs_started":...,"null_run_length_log2":{"4":17,...}}.
    std::string to_json() const;

    /// Adds `other`'s runs to this report: counters and histogram buckets
    /// sum, the wall-clock minimum and maximum span both.  Observing two
    /// runs with one accumulator gives the same report as merging the
    /// reports of two accumulators that observed one run each.
    void merge(const MetricsReport& other);

    /// Adds one finished run: its counters, stop reason, event tallies and
    /// wall-clock seconds.  runs_started is left to the caller (on_start
    /// counts it for an observer).
    void add_finished_run(const RunResult& result, double wall_seconds);

    bool operator==(const MetricsReport&) const = default;
};

/// Unsynchronized aggregation: one thread at a time.
class MetricsAccumulator final : public RunObserver {
public:
    const MetricsReport& report() const { return data_; }

    /// Zeroes every counter.
    void reset() { data_ = MetricsReport(); }

    void on_start(const RunStartInfo& info) override;
    void on_stop(const RunResult& result, double wall_seconds) override;

private:
    MetricsReport data_;
};

/// A MetricsAccumulator behind a mutex: each run takes the lock twice.
class MetricsCollector final : public RunObserver {
public:
    /// Thread-safe consistent copy of the aggregates.
    MetricsReport report() const;

    /// Zeroes every counter.
    void reset();

    void on_start(const RunStartInfo& info) override;
    void on_stop(const RunResult& result, double wall_seconds) override;

private:
    mutable std::mutex mutex_;
    MetricsAccumulator accumulator_;
};

}  // namespace popproto

#endif  // POPPROTO_OBSERVE_METRICS_H
