// Exact effective-ordered-pair bookkeeping over a state multiset.
//
// W = |{ ordered agent pairs (a, b) whose interaction changes the state
// multiset }| = sum_p c_p * (rowdot[p] - eff[p][p]), with rowdot[p] =
// sum_q eff[p][q] * c_q.  W == 0 is the exact silence predicate, W / n(n-1)
// the effective-interaction fraction that both the count-batch engine's
// geometric null skips and the phase-adaptive engine's signal consume.
//
// This tracker is the bookkeeping half of the count-batch stepper
// (batch_simulator.cpp).  The per-agent steppers need only W == 0 and keep
// the cheaper SupportSilenceTest (interaction_model.h) instead: this
// tracker does O(column degree) work on every effective step.
//
// Cost model: O(#effective transitions) to build or reset.  One
// interaction (p, q) -> (p', q') changes the counts of at most four distinct
// states, and apply_transition visits only the states whose *net* change is
// non-zero — an epidemic infection moves one agent from S to I, so two —
// each in O(column degree): the rows with an effective pair against that
// state (EffectTables' sparse columns).  Nothing allocates after
// construction.

#ifndef POPPROTO_CORE_EFFECTIVE_PAIRS_H
#define POPPROTO_CORE_EFFECTIVE_PAIRS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/effect_tables.h"
#include "core/tabulated_protocol.h"

namespace popproto {

class EffectivePairTracker {
public:
    EffectivePairTracker(const TabulatedProtocol& protocol, std::vector<std::uint64_t> counts)
        : eff_(protocol), counts_(std::move(counts)) {
        rebuild();
    }

    /// W: the number of effective ordered agent pairs (0 iff silent).
    std::uint64_t effective_pairs() const { return W_; }

    const std::vector<std::uint64_t>& counts() const { return counts_; }
    const EffectTables& tables() const { return eff_; }

    /// c_p * (rowdot[p] - eff[p][p]): state p's contribution to W.
    std::uint64_t row_weight(State p) const {
        return counts_[p] * static_cast<std::uint64_t>(rowdot_[p] - diag(p));
    }

    std::int64_t diag(State p) const { return eff_.effective(p, p); }

    /// Books one interaction: an agent in p and an agent in q (p == q needs
    /// two) leave for next.initiator and next.responder.  The four unit
    /// moves are netted per distinct state first, so a swap or an identity
    /// costs nothing and an epidemic infection updates two states.
    void apply_transition(State p, State q, StatePair next) {
        State states[4] = {p, q, next.initiator, next.responder};
        std::int64_t deltas[4] = {-1, -1, +1, +1};
        std::size_t distinct = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            std::size_t j = 0;
            while (j < distinct && states[j] != states[i]) ++j;
            if (j < distinct) {
                deltas[j] += deltas[i];
            } else {
                states[distinct] = states[i];
                deltas[distinct] = deltas[i];
                ++distinct;
            }
        }
        for (std::size_t j = 0; j < distinct; ++j)
            if (deltas[j] != 0) adjust_count(states[j], deltas[j]);
    }

    /// Replaces the count vector wholesale (checkpoint restore) and rebuilds
    /// rowdot and W from scratch.
    void reset_counts(const std::vector<std::uint64_t>& counts) {
        counts_.assign(counts.begin(), counts.end());
        rebuild();
    }

private:
    /// Applies `delta` to the count of state s and keeps rowdot *and W_*
    /// consistent.  W changes only through the rows of s's sparse column,
    /// so this is O(column degree).
    ///
    /// With c = counts_[s], R = rowdot_[s], e = eff[s][s] all read *before*
    /// the update, and colsum = sum_p counts_[p] * eff[p][s] (also pre-
    /// update), the exact integer delta is
    ///
    ///   dW = delta * (colsum - c * e)      (rows p != s: c_p * eff[p][s])
    ///      + delta * (R - e)              (row s: its weight gains delta
    ///      + delta * e * (c + delta)       copies of the old row sum, and
    ///                                      the diagonal term re-enters with
    ///                                      the new count)
    ///
    /// |delta| <= 2 and |dW| <= 6n + 4, so the int64 arithmetic is exact; W
    /// itself can exceed int64 (W <= n(n-1) with n < 2^32), so the signed
    /// delta is applied to the uint64 accumulator via two's-complement
    /// wraparound.
    void adjust_count(State s, std::int64_t delta) {
        const State* col = eff_.col_initiators.data() + eff_.col_start[s];
        const State* const col_end = eff_.col_initiators.data() + eff_.col_start[s + 1];
        const auto c = static_cast<std::int64_t>(counts_[s]);
        const std::int64_t rowsum = rowdot_[s];
        const std::int64_t e = diag(s);
        std::int64_t colsum = 0;
        for (; col != col_end; ++col) {
            colsum += static_cast<std::int64_t>(counts_[*col]);
            rowdot_[*col] += delta;
        }
        counts_[s] = static_cast<std::uint64_t>(c + delta);
        const std::int64_t dw =
            delta * (colsum - c * e) + delta * (rowsum - e) + delta * e * (c + delta);
        W_ += static_cast<std::uint64_t>(dw);
    }

    // rowdot[p] = sum_q eff[p][q] * counts[q]: the number of agents whose
    // state forms an effective ordered pair with an initiator in state p
    // (before the diagonal "needs two agents" correction), accumulated
    // column by column.
    void rebuild() {
        const std::size_t num_states = eff_.num_states;
        rowdot_.assign(num_states, 0);
        for (State s = 0; s < num_states; ++s) {
            const auto c = static_cast<std::int64_t>(counts_[s]);
            if (c == 0) continue;
            for (std::size_t i = eff_.col_start[s]; i < eff_.col_start[s + 1]; ++i)
                rowdot_[eff_.col_initiators[i]] += c;
        }
        // Partial sums are bounded by n^2 + n, so uint64 is exact.
        std::uint64_t w = 0;
        for (State p = 0; p < num_states; ++p)
            if (counts_[p] != 0) w += row_weight(p);
        W_ = w;
    }

    EffectTables eff_;
    std::vector<std::uint64_t> counts_;
    std::vector<std::int64_t> rowdot_;
    std::uint64_t W_ = 0;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_EFFECTIVE_PAIRS_H
