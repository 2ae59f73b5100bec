// Run-trace instrumentation hooks for the simulation engines.
//
// Every experiment in the paper is a claim about a *trajectory* — the
// epidemic's infected count over time (Lemma 8), the Theta(n^2 log n)
// convergence tail of Presburger protocols (Theorem 8) — yet a RunResult
// only surfaces the endpoint.  A RunObserver attached to RunOptions
// receives the trajectory as it unfolds: a start event, configuration
// snapshots on a deterministic interaction-index schedule, output-change
// and engine-internal events, and a stop event carrying the final result
// plus wall-clock time.  Concrete observers (in-memory trace recording,
// metric aggregation, streaming JSONL export) live in src/observe; this
// header only defines the hook so that popproto_core stays dependency-free.
//
// Contract with the engines:
//
//  * observer == nullptr (the default) costs nothing per interaction: the
//    run-loop kernel (core/run_loop.h) compiles its observer calls in only
//    for a run that has an observer (or a telemetry collector) attached, and
//    steps an unwatched run with no call but the stepper's.  bench_observe
//    tracks this.
//  * The kernel counts every event it would deliver — output changes,
//    snapshots, and the count-batch engine's runs of skipped null
//    interactions — in RunResult::tallies, observed or not.  An observer
//    that only counts (MetricsAccumulator) reads them in on_stop instead of
//    taking a call per event.
//  * Observation never perturbs the run: engines consume the same RNG
//    stream with and without an observer, so the reported RunResult is
//    bit-identical either way.  Snapshot indices are kernel boundaries
//    whether or not an observer is attached: the batch engine's geometric
//    null-skip jumps are *clamped* at them without redrawing (a scheduled
//    index that falls inside a run of null interactions is emitted with the
//    unchanged current counts and stamped with its exact interaction
//    index), and the super-step engines end a super-step on them.
//  * A snapshot at index t reports the configuration after the first t
//    interactions of the schedule (index 0 is the initial configuration,
//    delivered via on_start).
//  * Engines call observers synchronously from the simulating thread.
//    measure_trials runs trials on a worker pool, so one observer shared
//    across trials sees concurrent callbacks and must be thread-safe
//    (MetricsCollector is; TraceRecorder is per-run).

#ifndef POPPROTO_CORE_OBSERVER_H
#define POPPROTO_CORE_OBSERVER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace popproto {

class CountConfiguration;
class TabulatedProtocol;
struct RunResult;

/// Deterministic interaction-index schedule for on_snapshot callbacks.
/// The scheduled set depends only on the schedule parameters — never on the
/// trajectory — so two engines given the same schedule and the same stop
/// index emit snapshots at identical indices.
class SnapshotSchedule {
public:
    /// No snapshots (the default).
    SnapshotSchedule() = default;

    /// Snapshots at period, 2*period, 3*period, ...  Requires period >= 1.
    static SnapshotSchedule every(std::uint64_t period);

    /// Log-spaced snapshots: first, then repeatedly the smallest strictly
    /// larger index >= previous * factor.  Requires factor > 1 and
    /// first >= 1.  Useful for Theta(n^2 log n) tails where fixed periods
    /// either miss the early epidemic or drown in the null-heavy end.
    static SnapshotSchedule log_spaced(double factor, std::uint64_t first = 1);

    bool enabled() const { return kind_ != Kind::kNone; }

    /// First scheduled index, or kNever when disabled.
    std::uint64_t first_index() const;

    /// Smallest scheduled index strictly greater than `index`, or kNever.
    std::uint64_t next_after(std::uint64_t index) const;

    /// Sentinel "no snapshot will ever be due" index; engines compare the
    /// interaction counter against it with one branch on the hot path.
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

private:
    enum class Kind { kNone, kFixed, kLog };

    Kind kind_ = Kind::kNone;
    std::uint64_t period_ = 0;   // kFixed
    double factor_ = 0.0;        // kLog
    std::uint64_t first_ = 1;    // kLog
};

/// Which execution path produced the events: the complete-graph engines
/// (agent array, count-batch, collapsed, parallel collapsed, adaptive), the
/// weighted and graph samplers, or a run_scenario pairing model.
enum class ObservedEngine {
    kAgentArray,
    kCountBatch,
    kCollapsed,
    /// The sharded collapsed engine (RunOptions::threads > 1).  Kept
    /// distinct from kCollapsed because the two consume different RNG
    /// streams: checkpoints of one must not resume as the other.
    kParallelCollapsed,
    kWeighted,
    kGraph,
    /// Scenario runs driven by a named InteractionModel (run_scenario:
    /// round-robin, sweep, adversarial, dynamic graph, grid mobility).  The
    /// checkpoint's interaction_model section disambiguates which model.
    kPairModel,
    /// The phase-adaptive engine (run_simulation with kAdaptive, or kAuto at
    /// kAutoCollapsedThreshold and beyond): one count stepper that takes a
    /// collapsed super-step or a count-batch step, whichever the live
    /// density favours.  Its checkpoints carry this tag; static engines
    /// reject them, and it resumes count_batch and collapsed checkpoints.
    kAdaptive,
};

/// Short stable identifier ("agent_array", "count_batch", ...) for logs.
const char* observed_engine_name(ObservedEngine engine);

/// Inverse of `observed_engine_name`, for parsing serialized checkpoints;
/// returns false for an unknown name.
bool observed_engine_from_name(const std::string& name, ObservedEngine& engine);

/// Everything an observer may want to know at the start of a run.  Pointer
/// members are borrowed and only valid for the duration of on_start.
struct RunStartInfo {
    ObservedEngine engine = ObservedEngine::kAgentArray;
    std::uint64_t population = 0;
    std::size_t num_states = 0;
    std::uint64_t seed = 0;
    std::uint64_t max_interactions = 0;
    const CountConfiguration* initial = nullptr;
    const TabulatedProtocol* protocol = nullptr;
};

/// One change of step kind in a phase-adaptive run (adaptive_simulator.h):
/// the loop top where the run went from count-batch steps to collapsed
/// super-steps or back.
struct EngineSwitchInfo {
    /// Interaction index of the loop top where the new kind starts.
    std::uint64_t interactions = 0;
    ObservedEngine from = ObservedEngine::kCountBatch;
    ObservedEngine to = ObservedEngine::kCollapsed;
    /// The density signal x = rho * T at that loop top, and the crossover
    /// x* it was compared against (both thresholds carry x*: one crossover
    /// serves both directions).
    double signal = 0.0;
    double enter_threshold = 0.0;
    double exit_threshold = 0.0;
    /// 1-based ordinal of this switch within one run_simulation call; a
    /// resumed call (a service quantum, say) counts from 1 again.
    std::uint64_t switch_index = 0;
};

/// Abstract run observer.  All callbacks default to no-ops so subclasses
/// override only what they consume.  The `configuration` arguments are
/// borrowed and only valid for the duration of the call.
class RunObserver {
public:
    virtual ~RunObserver() = default;

    /// The run is about to execute its first interaction.
    virtual void on_start(const RunStartInfo& info);

    /// The configuration after `interaction_index` interactions, emitted at
    /// every scheduled index <= the run's stop index.
    virtual void on_snapshot(std::uint64_t interaction_index,
                             const CountConfiguration& configuration);

    /// Interaction `interaction_index` changed the output multiset (batch
    /// engine) or some agent's output symbol (per-agent engines); see the
    /// bookkeeping note in batch_simulator.h for the distinction.
    virtual void on_output_change(std::uint64_t interaction_index);

    /// An adaptive run changed its step kind (kAdaptive runs only; static
    /// engines never call this).  Delivered between the last event of the
    /// old kind and the first of the new.
    virtual void on_engine_switch(const EngineSwitchInfo& info);

    /// The run is over; `result` is the exact RunResult the engine returns
    /// and `wall_seconds` the elapsed wall-clock time of the run.
    virtual void on_stop(const RunResult& result, double wall_seconds);
};

/// Fans every callback out to a list of observers, in order.  Borrowed
/// pointers; null entries are rejected at construction.
class TeeObserver final : public RunObserver {
public:
    explicit TeeObserver(std::vector<RunObserver*> observers);

    void on_start(const RunStartInfo& info) override;
    void on_snapshot(std::uint64_t interaction_index,
                     const CountConfiguration& configuration) override;
    void on_output_change(std::uint64_t interaction_index) override;
    void on_engine_switch(const EngineSwitchInfo& info) override;
    void on_stop(const RunResult& result, double wall_seconds) override;

private:
    std::vector<RunObserver*> observers_;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_OBSERVER_H
