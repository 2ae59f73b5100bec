// Exact effective-ordered-pair bookkeeping over a state multiset.
//
// W = |{ ordered agent pairs (a, b) whose interaction changes the state
// multiset }| = sum_p c_p * partners[p], with partners[p] =
// sum_q eff[p][q] * c_q - eff[p][p] the agents an initiator in state p can
// meet effectively.  W == 0 is the exact silence predicate, W / n(n-1)
// the effective-interaction fraction that both the count-batch engine's
// geometric null skips and the phase-adaptive engine's signal consume.
//
// This tracker is the one count state of every count stepper
// (count_batch_stepper.h): a count-batch step books its moves into it, and a
// collapsed super-step hands its new counts back through reset_counts.  The
// per-agent steppers need only W == 0 and keep the cheaper
// SupportSilenceTest (interaction_model.h) instead: this tracker does
// O(column degree) work on every effective step.
//
// Cost model: O(#effective transitions) to build or reset.  One
// interaction (p, q) -> (p', q') is booked from its netted moves
// (EffectTables' PairMoves, computed once per pair when the tables are
// built): only the states whose net count changes are visited — an
// epidemic infection moves one agent from S to I, so two — each in
// O(column degree): the rows with an effective pair against that state
// (EffectTables' sparse columns).  Nothing allocates after construction.

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

    /// c_p * partners[p]: state p's contribution to W.  (partners[p] is -1
    /// for an absent p whose diagonal pair is effective; the product is 0.)
    std::uint64_t row_weight(State p) const {
        return counts_[p] * static_cast<std::uint64_t>(partners_[p]);
    }

    /// Books one interaction (p, q) -> next whose netted count moves are
    /// `moves` (net_moves(p, q, next); for an effective pair, its
    /// EffectTables entry).  A zero slot costs nothing, so a swap or an
    /// identity books nothing and an epidemic infection updates two states.
    void apply_moves(State p, State q, StatePair next, PairMoves moves) {
        if (moves.initiator != 0) adjust_count(p, moves.initiator);
        if (moves.responder != 0) adjust_count(q, moves.responder);
        if (moves.next_initiator != 0) adjust_count(next.initiator, moves.next_initiator);
        if (moves.next_responder != 0) adjust_count(next.responder, moves.next_responder);
    }

    /// Replaces the count vector wholesale (a checkpoint restore, or the new
    /// counts of a collapsed super-step) and rebuilds partners and W from
    /// scratch.  The counts it already holds (a super-step whose
    /// interactions were all null, the common case in a sparse phase) keep
    /// partners and W as they are, in O(|Q|).
    void reset_counts(const std::vector<std::uint64_t>& counts) {
        if (counts == counts_) return;
        counts_.assign(counts.begin(), counts.end());
        rebuild();
    }

private:
    /// Applies `delta` to the count of state s and keeps partners *and W_*
    /// consistent.  W changes only through the rows of s's sparse column,
    /// so this is O(column degree).
    ///
    /// Every row p in the column gains delta partners, s's own row too when
    /// e = eff[s][s] = 1 (s then lies in its own column).  With P =
    /// partners_[s] and colsum = sum_p counts_[p] * eff[p][s] read *before*
    /// the update, the exact integer delta is
    ///
    ///   dW = delta * colsum            (each row's weight c_p * partners)
    ///      + delta * P                 (s's own count times its partners)
    ///      + delta * delta * e         (both changes at once, diagonal)
    ///
    /// |delta| <= 2 and |dW| <= 4n + 8, so the int64 arithmetic is exact; W
    /// itself can exceed int64 (W <= n(n-1) with n < 2^32), so the signed
    /// delta is applied to the uint64 accumulator via two's-complement
    /// wraparound.
    void adjust_count(State s, std::int64_t delta) {
        const State* col = eff_.col_initiators.data() + eff_.col_start[s];
        const State* const col_end = eff_.col_initiators.data() + eff_.col_start[s + 1];
        const std::int64_t partners = partners_[s];
        std::int64_t colsum = 0;
        std::int64_t e = 0;
        for (; col != col_end; ++col) {
            colsum += static_cast<std::int64_t>(counts_[*col]);
            partners_[*col] += delta;
            e += *col == s ? 1 : 0;
        }
        counts_[s] = static_cast<std::uint64_t>(static_cast<std::int64_t>(counts_[s]) + delta);
        W_ += static_cast<std::uint64_t>(delta * (colsum + partners + delta * e));
    }

    // partners[p] = sum_q eff[p][q] * counts[q] - eff[p][p], accumulated
    // column by column: initiator p appears in column p iff eff[p][p].
    // Every column is walked, empty ones too, so that the diagonal term is
    // in place before the count that needs it arrives.
    void rebuild() {
        const std::size_t num_states = eff_.num_states;
        partners_.assign(num_states, 0);
        for (State s = 0; s < num_states; ++s) {
            const auto c = static_cast<std::int64_t>(counts_[s]);
            for (std::size_t i = eff_.col_start[s]; i < eff_.col_start[s + 1]; ++i) {
                const State p = eff_.col_initiators[i];
                partners_[p] += c - (p == s ? 1 : 0);
            }
        }
        // Partial sums are bounded by n^2, so uint64 is exact.
        std::uint64_t w = 0;
        for (State p = 0; p < num_states; ++p) w += row_weight(p);
        W_ = w;
    }

    EffectTables eff_;
    std::vector<std::uint64_t> counts_;
    std::vector<std::int64_t> partners_;
    std::uint64_t W_ = 0;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_EFFECTIVE_PAIRS_H
