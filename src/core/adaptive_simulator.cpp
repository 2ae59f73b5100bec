#include "core/adaptive_simulator.h"

#include <chrono>
#include <optional>
#include <utility>

#include "core/collapsed_simulator.h"
#include "core/effective_pairs.h"
#include "core/engine_monitor.h"
#include "core/require.h"
#include "core/run_loop.h"
#include "telemetry/telemetry.h"

namespace popproto {

namespace {

/// The driver's checkpoint sink around the user's: periodic / pause / stop
/// checkpoints pass through untouched, but the checkpoint the kernel takes
/// when the monitor fires is the *transfer* — it belongs to the driver, not
/// the user's checkpoint stream (the user-visible stream stays identical to
/// a manually spliced run's).
class SwitchCaptureSink final : public CheckpointSink {
public:
    SwitchCaptureSink(const EngineSwitchMonitor& monitor, CheckpointSink* user)
        : monitor_(monitor), user_(user) {}

    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        if (monitor_.pending_switch()) {
            fire_ = checkpoint;
            return;
        }
        if (user_ != nullptr) user_->on_checkpoint(checkpoint);
    }

    std::optional<RunCheckpoint> take_fire() { return std::exchange(fire_, std::nullopt); }

private:
    const EngineSwitchMonitor& monitor_;
    CheckpointSink* const user_;
    std::optional<RunCheckpoint> fire_;
};

/// The driver's observer around the user's: exactly one on_start (labelled
/// kAdaptive) for the whole run, per-segment trajectory events forwarded
/// as-is, and the per-segment on_stop suppressed — the driver emits the
/// single final on_stop itself, with the merged result and total wall time.
class SegmentObserver final : public RunObserver {
public:
    explicit SegmentObserver(RunObserver& user) : user_(user) {}

    void on_start(const RunStartInfo& info) override {
        if (started_) return;
        started_ = true;
        RunStartInfo adaptive_info = info;
        adaptive_info.engine = ObservedEngine::kAdaptive;
        user_.on_start(adaptive_info);
    }

    void on_snapshot(std::uint64_t interaction_index,
                     const CountConfiguration& configuration) override {
        user_.on_snapshot(interaction_index, configuration);
    }

    void on_output_change(std::uint64_t interaction_index) override {
        user_.on_output_change(interaction_index);
    }

    void on_null_run(std::uint64_t length) override { user_.on_null_run(length); }

    void on_silence_check(std::uint64_t interaction_index, bool silent) override {
        user_.on_silence_check(interaction_index, silent);
    }

    void on_stop(const RunResult&, double) override {}

private:
    RunObserver& user_;
    bool started_ = false;
};

}  // namespace

namespace engine_detail {

RunResult run_adaptive(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const RunOptions& options) {
    require(initial.num_states() == protocol.num_states(),
            "run_simulation: configuration does not match protocol");
    const std::uint64_t n = initial.population_size();
    require(n >= 2, "run_simulation: need at least two agents");
    require(n < (std::uint64_t{1} << 32), "run_simulation: population must fit 32 bits");
    require(options.threads <= 1,
            "run_simulation: the adaptive dispatcher is serial; threads > 1 pins the "
            "collapsed engine");

    // The working cursor: the checkpoint the next segment resumes from
    // (empty for the first segment of a fresh run), plus the monitor that
    // decides when to splice.
    std::optional<RunCheckpoint> cursor;
    std::optional<EngineSwitchMonitor> monitor;
    ObservedEngine current = ObservedEngine::kCountBatch;

    if (options.resume_from != nullptr) {
        cursor = *options.resume_from;
        require(cursor->engine == ObservedEngine::kCountBatch ||
                    cursor->engine == ObservedEngine::kCollapsed,
                std::string("run_simulation: cannot resume a ") +
                    observed_engine_name(cursor->engine) + " checkpoint");
        current = cursor->engine;
        monitor.emplace(n, current, options.adaptive);
        if (cursor->adaptive) {
            monitor->restore(cursor->adaptive_switches, cursor->adaptive_last_switch,
                             cursor->adaptive_next_eval);
        } else {
            // A static-engine checkpoint adopted mid-run: start monitoring
            // one period past the cut.
            monitor->restore(0, 0, cursor->interactions + monitor->eval_period());
        }
    } else {
        // Entry engine from the initial density: the same x = rho * E[L]
        // signal the monitor polls, evaluated on the initial counts — one
        // pass over the protocol's effective-transition list, no RNG draws,
        // no allocations (the probe is priced by bench_adaptive's sparse
        // control, whose whole run is microseconds).
        EngineSwitchMonitor probe(n, ObservedEngine::kCountBatch, options.adaptive);
        std::uint64_t initial_pairs = 0;
        for (const EffectiveTransition& t : protocol.effective_transitions())
            initial_pairs += initial.counts()[t.initiator] *
                             (initial.counts()[t.responder] -
                              (t.initiator == t.responder ? 1 : 0));
        current = probe.signal(initial_pairs) >= probe.enter_collapsed()
                      ? ObservedEngine::kCollapsed
                      : ObservedEngine::kCountBatch;
        monitor.emplace(n, current, options.adaptive);
    }

    telemetry::RunTelemetryCollector* const collector =
        telemetry::kCompiledIn ? options.telemetry : nullptr;
    if (collector)
        collector->begin_adaptive_run(n, 1, cursor.has_value() ? cursor->interactions : 0);

    SwitchCaptureSink sink(*monitor, options.checkpoint_sink);
    std::optional<SegmentObserver> segment_observer;
    if (options.observer != nullptr) segment_observer.emplace(*options.observer);
    const auto wall_start = std::chrono::steady_clock::now();

    RunResult result{CountConfiguration(protocol.num_states()), StopReason::kBudget, 0, 0, 0,
                     std::nullopt};
    while (true) {
        RunOptions segment = options;
        segment.threads = 1;
        segment.resume_from = cursor.has_value() ? &*cursor : nullptr;
        segment.checkpoint_sink = &sink;
        segment.observer = segment_observer.has_value() ? &*segment_observer : nullptr;

        result = current == ObservedEngine::kCollapsed
                     ? run_collapsed(protocol, initial, segment, &*monitor)
                     : run_count_batch(protocol, initial, segment, &*monitor);

        // No pending switch: the segment ended the run for real (silence,
        // budget, stable outputs, or a user pause/stop) — finalize.
        if (!monitor->pending_switch()) break;

        // The monitor fired: the kernel paused at a super-step / skip
        // boundary and the sink holds the transfer checkpoint.  Splice.
        std::optional<RunCheckpoint> fire = sink.take_fire();
        ensure(fire.has_value(),
               "run_simulation: monitor fired without a transfer checkpoint");
        const std::uint64_t switch_index = fire->interactions;
        EngineSwitchInfo info;
        info.interactions = switch_index;
        info.from = current;
        info.to = monitor->pending_target();
        info.signal = monitor->last_signal();
        info.enter_threshold = monitor->enter_collapsed();
        info.exit_threshold = monitor->exit_collapsed();
        monitor->commit_switch(switch_index);
        info.switch_index = monitor->switches();

        {
            const telemetry::ScopedTimer timer(collector,
                                               telemetry::Phase::kEngineSwitch);
            cursor = std::move(fire);
            transfer_checkpoint_engine(*cursor, monitor->current());
            // take_checkpoint stamped the pre-commit monitor state; refresh
            // the switch bookkeeping (next_eval is already post-poll).
            cursor->adaptive_switches = monitor->switches();
            cursor->adaptive_last_switch = monitor->last_switch();
        }
        if (options.observer != nullptr) options.observer->on_engine_switch(info);
        current = monitor->current();
    }

    result.engine = ObservedEngine::kAdaptive;
    if (collector) {
        collector->finish_adaptive_run(result.interactions, result.effective_interactions);
        result.telemetry = collector->share();
    }
    if (options.observer != nullptr)
        options.observer->on_stop(result, run_loop_detail::seconds_since(wall_start));
    return result;
}

}  // namespace engine_detail

}  // namespace popproto
