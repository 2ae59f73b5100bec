// Precomputed per-protocol classification of ordered state pairs, shared by
// the count-based engines (batch_simulator.cpp, collapsed_simulator.cpp).
//
// eff_row[p * Q + q] is 1 iff delta(p, q) changes the multiset {p, q}
// (identities and swaps are null).  The column view is sparse: state s's
// effective initiators { p : eff_row[p * Q + s] } are listed, ascending, in
// col_initiators[col_start[s] .. col_start[s + 1]).  A count change at s
// touches exactly those rows' dot products, so EffectivePairTracker updates
// in O(column degree) instead of walking a dense |Q|-byte column.
//
// Cost: O(|Q|^2) to build (one pass over the delta table), |Q|^2 bytes for
// eff_row plus one State per effective transition for the columns.

#ifndef POPPROTO_CORE_EFFECT_TABLES_H
#define POPPROTO_CORE_EFFECT_TABLES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/tabulated_protocol.h"

namespace popproto {

struct EffectTables {
    std::vector<std::uint8_t> eff_row;
    std::vector<std::size_t> col_start;
    std::vector<State> col_initiators;
    std::size_t num_states;

    explicit EffectTables(const TabulatedProtocol& protocol)
        : eff_row(protocol.num_states() * protocol.num_states(), 0),
          col_start(protocol.num_states() + 1, 0),
          num_states(protocol.num_states()) {
        const std::vector<EffectiveTransition> transitions = protocol.effective_transitions();
        for (const EffectiveTransition& t : transitions) {
            eff_row[static_cast<std::size_t>(t.initiator) * num_states + t.responder] = 1;
            ++col_start[t.responder + 1];
        }
        for (std::size_t s = 0; s < num_states; ++s) col_start[s + 1] += col_start[s];
        // The list is row-major, so each column fills in ascending initiator
        // order.
        col_initiators.resize(transitions.size());
        std::vector<std::size_t> fill(col_start.begin(), col_start.end() - 1);
        for (const EffectiveTransition& t : transitions)
            col_initiators[fill[t.responder]++] = t.initiator;
    }

    /// 1 iff delta(p, q) changes the multiset {p, q}.
    std::uint8_t effective(State p, State q) const {
        return eff_row[static_cast<std::size_t>(p) * num_states + q];
    }
};

}  // namespace popproto

#endif  // POPPROTO_CORE_EFFECT_TABLES_H
