// In-memory run-trace recording.
//
// A TraceRecorder attached to RunOptions::observer captures one run's
// trajectory as plain vectors: the initial counts, every scheduled
// state-count snapshot, the output-change indices, and the final result
// with wall-clock time.  It is the programmatic counterpart of
// JsonlTraceWriter — use it to regression-check trajectories (see
// tests/engine_parity_test.cpp) or to feed plots without touching disk.
//
// One recorder records one run at a time; reuse via clear().  It is NOT
// thread-safe — do not share a single recorder across measure_trials
// workers (use MetricsCollector for cross-run aggregates instead).

#ifndef POPPROTO_OBSERVE_TRACE_RECORDER_H
#define POPPROTO_OBSERVE_TRACE_RECORDER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/observer.h"
#include "core/simulator.h"

namespace popproto {

/// One scheduled snapshot: the state-count vector after exactly
/// `interaction_index` interactions.
struct TraceSnapshot {
    std::uint64_t interaction_index = 0;
    std::vector<std::uint64_t> counts;
};

class TraceRecorder final : public RunObserver {
public:
    /// Discards everything recorded so far, readying the recorder for a
    /// fresh run.
    void clear();

    bool started() const { return started_; }
    bool finished() const { return result_.has_value(); }

    ObservedEngine engine() const { return engine_; }
    std::uint64_t population() const { return population_; }
    std::uint64_t seed() const { return seed_; }

    /// State counts of the initial configuration (snapshot index 0).
    const std::vector<std::uint64_t>& initial_counts() const { return initial_counts_; }

    /// Scheduled snapshots in increasing interaction-index order.
    const std::vector<TraceSnapshot>& snapshots() const { return snapshots_; }

    /// Indices of interactions that changed the output multiset (batch
    /// engine) or some agent's output (per-agent engines).
    const std::vector<std::uint64_t>& output_changes() const { return output_changes_; }

    /// The run's final result; empty until on_stop.
    const std::optional<RunResult>& result() const { return result_; }

    double wall_seconds() const { return wall_seconds_; }

    /// The full recorded trajectory as one snapshot list: index 0 with the
    /// initial counts, every scheduled snapshot, and the run's stop index
    /// with the final configuration (omitted when it coincides with the
    /// last scheduled snapshot).  Requires a finished run.  This is the
    /// export consumed by the mean-field comparator
    /// (meanfield/comparator.h), which rescales the indices to fluid time
    /// t = i / n.
    std::vector<TraceSnapshot> trajectory() const;

    void on_start(const RunStartInfo& info) override;
    void on_snapshot(std::uint64_t interaction_index,
                     const CountConfiguration& configuration) override;
    void on_output_change(std::uint64_t interaction_index) override;
    void on_stop(const RunResult& result, double wall_seconds) override;

private:
    bool started_ = false;
    ObservedEngine engine_ = ObservedEngine::kAgentArray;
    std::uint64_t population_ = 0;
    std::uint64_t seed_ = 0;
    std::vector<std::uint64_t> initial_counts_;
    std::vector<TraceSnapshot> snapshots_;
    std::vector<std::uint64_t> output_changes_;
    std::optional<RunResult> result_;
    double wall_seconds_ = 0.0;
};

}  // namespace popproto

#endif  // POPPROTO_OBSERVE_TRACE_RECORDER_H
