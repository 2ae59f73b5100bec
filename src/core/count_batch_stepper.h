// The count-batch stepper (batch_simulator.h): pairs are drawn from the
// count vector, runs of null interactions are proposed as exact geometric
// jumps, and W == 0 detects silence exactly.  Private to src/core: the
// count-batch engine runs it alone, the adaptive stepper
// (collapsed_simulator.cpp) is it plus the super-step sampler, and every
// count stepper shares its state base.

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

/// The one count state under every count stepper: the counts, the effect
/// tables and the exact W of an EffectivePairTracker, and the kernel's
/// accessors on them.  A count-batch step books its moves into the tracker
/// and a collapsed super-step hands its new counts back through
/// reset_counts, so both step kinds read and write the same configuration.
class CountStepperBase {
public:
    std::uint64_t population() const { return population_; }

    bool is_silent() const { return tracker_.effective_pairs() == 0; }

    /// Exact W, the adaptive stepper's density signal.
    std::uint64_t effective_pairs() const { return tracker_.effective_pairs(); }

    CountConfiguration counts() const {
        return CountConfiguration::from_state_counts(tracker_.counts());
    }

    void save(RunCheckpoint& checkpoint) const { checkpoint.counts = tracker_.counts(); }

    /// Rebuilds the row sums and W in O(|Q| + effective transitions).
    /// Errors name the engine that took the checkpoint.
    void restore(const RunCheckpoint& checkpoint) {
        require_checkpoint_counts(checkpoint.counts, tracker_.counts().size(), population_,
                                  observed_engine_name(checkpoint.engine));
        tracker_.reset_counts(checkpoint.counts);
    }

protected:
    CountStepperBase(const TabulatedProtocol& protocol, const CountConfiguration& initial)
        : protocol_(protocol),
          tracker_(protocol, initial.counts()),
          population_(initial.population_size()) {}

    const TabulatedProtocol& protocol_;
    EffectivePairTracker tracker_;
    std::uint64_t population_;
};

class CountBatchStepper : public CountStepperBase {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kCountBatch;
    static constexpr bool kGeometricSkips = true;
    static constexpr bool kSuperSteps = false;

    CountBatchStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial)
        : CountStepperBase(protocol, initial),
          total_pairs_(static_cast<double>(population_) *
                       static_cast<double>(population_ - 1)) {}

    std::uint64_t propose_skip(Rng& rng) {
        // Jump over the geometric run of null interactions preceding the
        // next effective one.
        return rng.geometric_skips(static_cast<double>(tracker_.effective_pairs()) /
                                   total_pairs_);
    }

    StepOutcome step(Rng& rng) {
        // Sample the effective ordered pair (p, q) with probability
        // proportional to c_p * (c_q - [p == q]) over effective pairs: an
        // O(|Q|) scan of the row weights, then of the chosen row's list,
        // whose entry carries the pair's netted moves and output flag.
        const EffectTables& eff = tracker_.tables();
        const std::vector<std::uint64_t>& counts = tracker_.counts();
        std::uint64_t u = rng.below(tracker_.effective_pairs());
        for (State p = 0; p < eff.num_states; ++p) {
            if (counts[p] == 0) continue;
            const std::uint64_t rw = tracker_.row_weight(p);
            if (u >= rw) {
                u -= rw;
                continue;
            }
            for (std::size_t e = eff.row_start[p]; e < eff.row_start[p + 1]; ++e) {
                const State q = eff.row_responders[e];
                const std::uint64_t pair_weight = counts[p] * (counts[q] - (p == q ? 1 : 0));
                if (u < pair_weight) {
                    // Effective by construction of the sampler.  The tracker
                    // keeps partners and W consistent in O(column degree)
                    // per state whose count moves.
                    const PairMoves moves = eff.row_moves[e];
                    tracker_.apply_moves(p, q, protocol_.apply_fast(p, q), moves);
                    return StepOutcome{true, moves.output_changed};
                }
                u -= pair_weight;
            }
            break;
        }
        ensure(false, "count_batch: internal pair-sampling invariant violated");
        return StepOutcome{};
    }

private:
    double total_pairs_;
};

}  // namespace popproto::engine_detail

#endif  // POPPROTO_CORE_COUNT_BATCH_STEPPER_H
