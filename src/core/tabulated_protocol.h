// Flat-table representation of a protocol.
//
// TabulatedProtocol stores I, O, and delta as dense arrays so that the hot
// simulation loops are single array lookups.  It can be built directly from
// explicit tables (the way most concrete protocols in this library are
// constructed) or by tabulating any other Protocol.

#ifndef POPPROTO_CORE_TABULATED_PROTOCOL_H
#define POPPROTO_CORE_TABULATED_PROTOCOL_H

#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"

namespace popproto {

/// True iff the interaction (p, q) -> next changes the multiset {p, q},
/// i.e. is neither an identity nor a swap.  These effective pairs are
/// exactly the ones that contribute to the count engines' effective-pair
/// count W, to the mean-field drift field (src/meanfield) and to the
/// silence tests: every other pair leaves the count vector unchanged.
inline bool changes_multiset(State p, State q, StatePair next) noexcept {
    return !((next.initiator == p && next.responder == q) ||
             (next.initiator == q && next.responder == p));
}

class TabulatedProtocol final : public Protocol {
public:
    /// Raw tables; see field comments for the required shapes.
    struct Tables {
        /// initial[x] = I(x); size |X|.
        std::vector<State> initial;
        /// output[q] = O(q); size |Q|.
        std::vector<Symbol> output;
        /// delta[p * |Q| + q] = delta(p, q); size |Q|^2.
        std::vector<StatePair> delta;
        /// Number of output symbols |Y| (outputs must lie in [0, |Y|)).
        std::size_t num_output_symbols = 0;
        /// Optional display names; empty vectors fall back to defaults.
        std::vector<std::string> state_names;
        std::vector<std::string> input_names;
        std::vector<std::string> output_names;
    };

    /// Validates and adopts `tables`.  Throws std::invalid_argument on
    /// malformed shapes or out-of-range entries.
    explicit TabulatedProtocol(Tables tables);

    /// Tabulates an arbitrary protocol into flat form.
    static std::unique_ptr<TabulatedProtocol> tabulate(const Protocol& protocol);

    std::size_t num_states() const override { return tables_.output.size(); }
    std::size_t num_input_symbols() const override { return tables_.initial.size(); }
    std::size_t num_output_symbols() const override { return tables_.num_output_symbols; }
    State initial_state(Symbol x) const override;
    Symbol output(State q) const override;
    StatePair apply(State initiator, State responder) const override;
    std::string state_name(State q) const override;
    std::string input_name(Symbol x) const override;
    std::string output_name(Symbol y) const override;

    /// Unchecked delta lookup for hot loops.  Precondition: both states are
    /// in range (guaranteed for states produced by this protocol).
    StatePair apply_fast(State initiator, State responder) const noexcept {
        return tables_.delta[static_cast<std::size_t>(initiator) * num_states_ + responder];
    }

    /// Unchecked output lookup for hot loops.
    Symbol output_fast(State q) const noexcept { return tables_.output[q]; }

private:
    Tables tables_;
    std::size_t num_states_ = 0;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_TABULATED_PROTOCOL_H
