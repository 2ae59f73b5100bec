#include "core/batch_simulator.h"

#include <cstdint>
#include <vector>

#include "core/adaptive_simulator.h"
#include "core/collapsed_simulator.h"
#include "core/effect_tables.h"
#include "core/effective_pairs.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/run_loop.h"

namespace popproto {

namespace {

/// The count-based multiset sampler (batch_simulator.h): pairs are drawn
/// from the count vector, runs of null interactions are proposed as exact
/// geometric jumps, and W == 0 detects silence exactly.
class CountBatchStepper {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kCountBatch;
    static constexpr bool kGeometricSkips = true;
    static constexpr bool kSuperSteps = false;

    CountBatchStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial)
        : protocol_(protocol),
          tracker_(protocol, initial.counts()),
          population_(initial.population_size()),
          total_pairs_(static_cast<double>(population_) *
                       static_cast<double>(population_ - 1)) {}

    std::uint64_t population() const { return population_; }

    bool is_silent() const { return tracker_.effective_pairs() == 0; }

    /// Exact W for the adaptive dispatcher's density monitor (run_loop.h).
    std::uint64_t effective_pairs() const { return tracker_.effective_pairs(); }

    std::uint64_t propose_skip(Rng& rng) {
        // Jump over the geometric run of null interactions preceding the
        // next effective one.
        return rng.geometric_skips(static_cast<double>(tracker_.effective_pairs()) /
                                   total_pairs_);
    }

    StepOutcome step(Rng& rng) {
        // Sample the effective ordered pair (p, q) with probability
        // proportional to c_p * (c_q - [p == q]) over effective pairs: an
        // O(|Q|) scan of the row weights, then of the chosen row.
        const EffectTables& eff = tracker_.tables();
        const std::vector<std::uint64_t>& counts = tracker_.counts();
        const std::size_t num_states = eff.num_states;
        std::uint64_t u = rng.below(tracker_.effective_pairs());
        State p = 0;
        State q = 0;
        bool found = false;
        for (State pi = 0; pi < num_states && !found; ++pi) {
            if (counts[pi] == 0) continue;
            const std::uint64_t rw = tracker_.row_weight(pi);
            if (u >= rw) {
                u -= rw;
                continue;
            }
            const std::uint8_t* row =
                eff.eff_row.data() + static_cast<std::size_t>(pi) * num_states;
            for (State qi = 0; qi < num_states; ++qi) {
                if (!row[qi]) continue;
                const std::uint64_t pair_weight =
                    counts[pi] * (counts[qi] - (pi == qi ? 1 : 0));
                if (u < pair_weight) {
                    p = pi;
                    q = qi;
                    found = true;
                    break;
                }
                u -= pair_weight;
            }
        }
        ensure(found, "count_batch: internal pair-sampling invariant violated");

        const StatePair next = protocol_.apply_fast(p, q);
        const Symbol out_p = protocol_.output_fast(p);
        const Symbol out_q = protocol_.output_fast(q);
        const Symbol out_pn = protocol_.output_fast(next.initiator);
        const Symbol out_qn = protocol_.output_fast(next.responder);

        StepOutcome outcome;
        outcome.changed = true;  // effective by construction of the sampler
        outcome.output_changed =
            !((out_pn == out_p && out_qn == out_q) || (out_pn == out_q && out_qn == out_p));

        // The tracker nets the four unit moves per state and keeps rowdot
        // and W consistent in O(column degree) per changed state.
        tracker_.apply_transition(p, q, next);
        return outcome;
    }

    CountConfiguration counts() const {
        return CountConfiguration::from_state_counts(tracker_.counts());
    }

    void save(RunCheckpoint& checkpoint) const { checkpoint.counts = tracker_.counts(); }

    void restore(const RunCheckpoint& checkpoint) {
        require_checkpoint_counts(checkpoint.counts, tracker_.counts().size(), population_,
                                  "count_batch");
        tracker_.reset_counts(checkpoint.counts);
    }

private:
    const TabulatedProtocol& protocol_;
    EffectivePairTracker tracker_;
    std::uint64_t population_;
    double total_pairs_;
};

}  // namespace

namespace engine_detail {

RunResult run_count_batch(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          const RunOptions& options, EngineSwitchMonitor* monitor,
                          std::optional<RunCheckpoint>* transfer) {
    require(initial.num_states() == protocol.num_states(),
            "run_simulation: configuration does not match protocol");
    const std::uint64_t n = initial.population_size();
    require(n >= 2, "run_simulation: need at least two agents");
    require(n < (std::uint64_t{1} << 32), "run_simulation: population must fit 32 bits");

    CountBatchStepper stepper(protocol, initial);
    return run_loop(stepper, protocol, options, "run_simulation", monitor, transfer);
}

}  // namespace engine_detail

RunResult run_simulation(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                         const RunOptions& options) {
    switch (options.engine) {
        case SimulationEngine::kCountBatch:
            return engine_detail::run_count_batch(protocol, initial, options);
        case SimulationEngine::kCollapsedBatch:
            return engine_detail::run_collapsed(protocol, initial, options);
        case SimulationEngine::kAgentArray:
            return simulate(protocol, initial, options);
        case SimulationEngine::kAdaptive:
            return engine_detail::run_adaptive(protocol, initial, options);
        case SimulationEngine::kAuto:
            break;
    }
    // A request for intra-run parallelism pins the collapsed engine: it is
    // the only one that honours threads > 1, and letting the size-based
    // choice route the request to a sequential engine would just trip the
    // kernel's never-ignore check.
    if (options.threads > 1) return engine_detail::run_collapsed(protocol, initial, options);
    // A checkpoint that carries an adaptive monitor section was written by
    // the adaptive dispatcher; kAuto resumes it there so the run keeps its
    // switching behaviour instead of silently pinning the segment engine.
    if (options.resume_from != nullptr && options.resume_from->adaptive)
        return engine_detail::run_adaptive(protocol, initial, options);
    // Size-based auto-selection (see the threshold constants in
    // simulator.h): the count engines need the multiset view anyway, so the
    // only inputs are the population and the documented crossover points.
    // At collapsed scale the within-run regime matters more than the size,
    // so those runs go to the phase-adaptive dispatcher.
    const std::uint64_t n = initial.population_size();
    if (n >= kAutoCollapsedThreshold)
        return engine_detail::run_adaptive(protocol, initial, options);
    if (n >= kAutoCountBatchThreshold)
        return engine_detail::run_count_batch(protocol, initial, options);
    return simulate(protocol, initial, options);
}

}  // namespace popproto
