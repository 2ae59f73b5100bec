#include "core/adaptive_simulator.h"

#include <chrono>
#include <optional>
#include <utility>

#include "core/collapsed_simulator.h"
#include "core/engine_monitor.h"
#include "core/require.h"
#include "core/run_loop.h"
#include "telemetry/telemetry.h"

namespace popproto {

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
        if (cursor->engine != ObservedEngine::kCountBatch &&
            cursor->engine != ObservedEngine::kCollapsed)
            throw std::invalid_argument(std::string("run_simulation: cannot resume a ") +
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

    // The dispatcher brackets the run; each engine segment only steps it.
    // Exactly one on_start (labelled kAdaptive) and one on_stop reach the
    // observer, and one telemetry run spans every segment.
    telemetry::RunTelemetryCollector* const collector = options.telemetry;
    if (collector) collector->begin_run(observed_engine_name(ObservedEngine::kAdaptive), n, 1);
    RunObserver* const observer = options.observer;
    const auto wall_start = std::chrono::steady_clock::now();
    if (observer) {
        const CountConfiguration start =
            cursor ? CountConfiguration::from_state_counts(cursor->counts) : initial;
        RunStartInfo info;
        info.engine = ObservedEngine::kAdaptive;
        info.population = n;
        info.num_states = protocol.num_states();
        info.seed = options.seed;
        info.max_interactions = resolved_budget(options, n);
        info.initial = &start;
        info.protocol = &protocol;
        observer->on_start(info);
    }

    RunOptions segment = options;
    segment.threads = 1;
    RunResult result{CountConfiguration(protocol.num_states()), StopReason::kBudget, 0, 0, 0,
                     std::nullopt};
    while (true) {
        segment.resume_from = cursor.has_value() ? &*cursor : nullptr;
        const std::uint64_t segment_start = cursor.has_value() ? cursor->interactions : 0;
        const std::uint64_t segment_start_ns = collector ? collector->now_ns() : 0;
        std::optional<RunCheckpoint> transfer;
        result = current == ObservedEngine::kCollapsed
                     ? run_collapsed(protocol, initial, segment, &*monitor, &transfer)
                     : run_count_batch(protocol, initial, segment, &*monitor, &transfer);
        if (collector)
            collector->record_engine_segment(observed_engine_name(current),
                                             result.interactions - segment_start,
                                             segment_start_ns);

        // No transfer: the segment ended the run for real (silence, budget,
        // stable outputs, or a user pause/stop) — finalize.
        if (!transfer.has_value()) break;

        // The monitor booked a switch: the kernel paused at a super-step /
        // skip boundary and handed over the transfer checkpoint.  Splice.
        EngineSwitchInfo info;
        info.interactions = transfer->interactions;
        info.from = current;
        info.to = monitor->current();
        info.signal = monitor->last_signal();
        info.enter_threshold = monitor->enter_collapsed();
        info.exit_threshold = monitor->exit_collapsed();
        info.switch_index = monitor->switches();
        {
            const telemetry::ScopedTimer timer(collector, telemetry::Phase::kEngineSwitch);
            cursor = std::move(transfer);
            transfer_checkpoint_engine(*cursor, monitor->current());
        }
        if (observer) observer->on_engine_switch(info);
        current = monitor->current();
    }

    result.engine = ObservedEngine::kAdaptive;
    if (collector) {
        collector->finish_run(result.interactions, result.effective_interactions);
        result.telemetry = collector->share();
    }
    if (observer) observer->on_stop(result, run_loop_detail::seconds_since(wall_start));
    return result;
}

}  // namespace engine_detail

}  // namespace popproto
