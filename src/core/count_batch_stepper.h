// The count-batch stepper (batch_simulator.h): pairs are drawn from the
// count vector, runs of null interactions are proposed as exact geometric
// jumps, and W == 0 detects silence exactly.  Private to src/core: the
// count-batch engine runs it alone, and the adaptive stepper
// (collapsed_simulator.cpp) takes its count-batch steps with it.

#ifndef POPPROTO_CORE_COUNT_BATCH_STEPPER_H
#define POPPROTO_CORE_COUNT_BATCH_STEPPER_H

#include <cstdint>
#include <vector>

#include "core/configuration.h"
#include "core/effect_tables.h"
#include "core/effective_pairs.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/tabulated_protocol.h"

namespace popproto::engine_detail {

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

    /// Exact W, the adaptive stepper's density signal.
    std::uint64_t effective_pairs() const { return tracker_.effective_pairs(); }

    const std::vector<std::uint64_t>& count_vector() const { return tracker_.counts(); }

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
        adopt(checkpoint.counts);
    }

    /// Takes over a valid count vector of this population, rebuilding the
    /// row sums and W in O(|Q| + effective transitions).
    void adopt(const std::vector<std::uint64_t>& counts) { tracker_.reset_counts(counts); }

private:
    const TabulatedProtocol& protocol_;
    EffectivePairTracker tracker_;
    std::uint64_t population_;
    double total_pairs_;
};

}  // namespace popproto::engine_detail

#endif  // POPPROTO_CORE_COUNT_BATCH_STEPPER_H
