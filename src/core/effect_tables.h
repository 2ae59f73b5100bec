// Precomputed per-protocol lists of the effective ordered state pairs, shared
// by the count-based engines (count_batch_stepper.h, collapsed_simulator.cpp).
//
// (p, q) is effective iff delta(p, q) changes the multiset {p, q}
// (identities and swaps are null).  Row p lists its effective pairs in
// ascending responder order, the order the count-batch pair search visits
// them: row_responders[row_start[p] .. row_start[p + 1]), and row_moves
// holds, entry for entry, the pair's net count moves and whether it changes
// the output multiset, so a step applies them with no netting and no output
// lookups.  The column view is the transpose: state s's effective
// initiators, ascending, in col_initiators[col_start[s] .. col_start[s + 1]).
// A count change at s touches exactly those rows' dot products, so
// EffectivePairTracker updates in O(column degree).
//
// Cost: two passes over the delta table to build (the first sizes every
// list, so nothing is reallocated or copied while the second fills them),
// five allocations; per effective pair 4 bytes of responder, 5 of moves and
// 4 of column, plus O(|Q|) row and column starts.

#ifndef POPPROTO_CORE_EFFECT_TABLES_H
#define POPPROTO_CORE_EFFECT_TABLES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tabulated_protocol.h"

namespace popproto {

/// The count-vector change of one interaction (p, q) -> (p', q'): the four
/// unit moves -1 at p, -1 at q, +1 at p' and +1 at q', netted per distinct
/// state into the slot of its first occurrence in (p, q, p', q'); a slot
/// whose state repeats an earlier one holds 0.  An epidemic infection
/// (I, S) -> (I, I) is {+1, -1, 0, 0}; a swap or an identity is all zero.
struct PairMoves {
    std::int8_t initiator = 0;       // net change at p
    std::int8_t responder = 0;       // at q
    std::int8_t next_initiator = 0;  // at p'
    std::int8_t next_responder = 0;  // at q'
    bool output_changed = false;     // {O(p'), O(q')} != {O(p), O(q)}
};

/// The netted moves of (p, q) -> next (output_changed left false): each of
/// q, p', q' joins the slot of the first earlier state it equals.
inline PairMoves net_moves(State p, State q, StatePair next) {
    PairMoves moves{-1, -1, +1, +1, false};
    const State a = next.initiator;
    const State b = next.responder;
    if (q == p) {
        moves.initiator = -2;
        moves.responder = 0;
    }
    if (a == p) {
        ++moves.initiator;
        moves.next_initiator = 0;
    } else if (a == q) {
        ++moves.responder;
        moves.next_initiator = 0;
    }
    if (b == p) {
        ++moves.initiator;
        moves.next_responder = 0;
    } else if (b == q) {
        ++moves.responder;
        moves.next_responder = 0;
    } else if (b == a) {
        ++moves.next_initiator;
        moves.next_responder = 0;
    }
    return moves;
}

/// True iff (p, q) -> next changes the multiset of outputs.
inline bool changes_outputs(const TabulatedProtocol& protocol, State p, State q,
                            StatePair next) {
    const Symbol out_p = protocol.output_fast(p);
    const Symbol out_q = protocol.output_fast(q);
    const Symbol out_pn = protocol.output_fast(next.initiator);
    const Symbol out_qn = protocol.output_fast(next.responder);
    return !((out_pn == out_p && out_qn == out_q) || (out_pn == out_q && out_qn == out_p));
}

struct EffectTables {
    std::vector<std::size_t> row_start;
    std::vector<State> row_responders;
    std::vector<PairMoves> row_moves;
    std::vector<std::size_t> col_start;
    std::vector<State> col_initiators;
    std::size_t num_states;

    explicit EffectTables(const TabulatedProtocol& protocol)
        : row_start(protocol.num_states() + 1, 0),
          col_start(protocol.num_states() + 1, 0),
          num_states(protocol.num_states()) {
        for (State p = 0; p < num_states; ++p) {
            for (State q = 0; q < num_states; ++q) {
                if (!changes_multiset(p, q, protocol.apply_fast(p, q))) continue;
                ++row_start[p + 1];
                ++col_start[q + 1];
            }
        }
        for (std::size_t s = 0; s < num_states; ++s) {
            row_start[s + 1] += row_start[s];
            col_start[s + 1] += col_start[s];
        }
        row_responders.resize(row_start[num_states]);
        row_moves.resize(row_start[num_states]);
        col_initiators.resize(col_start[num_states]);
        // Row-major, so each row fills in ascending responder order and each
        // column in ascending initiator order.  col_start[q] serves as
        // column q's fill cursor, so it ends one column ahead; the shift
        // below puts it back.
        std::size_t entry = 0;
        for (State p = 0; p < num_states; ++p) {
            for (State q = 0; q < num_states; ++q) {
                const StatePair next = protocol.apply_fast(p, q);
                if (!changes_multiset(p, q, next)) continue;
                PairMoves moves = net_moves(p, q, next);
                moves.output_changed = changes_outputs(protocol, p, q, next);
                row_responders[entry] = q;
                row_moves[entry] = moves;
                ++entry;
                col_initiators[col_start[q]++] = p;
            }
        }
        for (std::size_t s = num_states; s > 0; --s) col_start[s] = col_start[s - 1];
        col_start[0] = 0;
    }
};

}  // namespace popproto

#endif  // POPPROTO_CORE_EFFECT_TABLES_H
