#include "meanfield/drift.h"

#include <cmath>
#include <cstdint>

#include "core/effect_tables.h"
#include "core/require.h"

namespace popproto {

DriftField::DriftField(const TabulatedProtocol& protocol)
    : num_states_(protocol.num_states()) {
    for (State p = 0; p < num_states_; ++p) {
        for (State q = 0; q < num_states_; ++q) {
            const StatePair next = protocol.apply_fast(p, q);
            if (!changes_multiset(p, q, next)) continue;
            // The pair's netted count moves hold each state in one slot, and
            // an effective pair keeps at least two of them nonzero.
            const PairMoves moves = net_moves(p, q, next);
            const std::pair<State, std::int8_t> slots[] = {{p, moves.initiator},
                                                           {q, moves.responder},
                                                           {next.initiator, moves.next_initiator},
                                                           {next.responder, moves.next_responder}};
            Term term{p, q, {}};
            for (const auto& [s, change] : slots)
                if (change != 0) term.changes.emplace_back(s, change);
            terms_.push_back(std::move(term));
        }
    }
}

void DriftField::eval(const std::vector<double>& x, std::vector<double>& out) const {
    require(x.size() == num_states_, "DriftField::eval: wrong density dimension");
    out.assign(num_states_, 0.0);
    for (const Term& term : terms_) {
        const double weight = x[term.p] * x[term.q];
        for (const auto& [s, coefficient] : term.changes) out[s] += coefficient * weight;
    }
}

std::vector<double> DriftField::operator()(const std::vector<double>& x) const {
    std::vector<double> out;
    eval(x, out);
    return out;
}

double DriftField::sup_norm(const std::vector<double>& x) const {
    std::vector<double> drift;
    eval(x, drift);
    double norm = 0.0;
    for (double value : drift) norm = std::max(norm, std::abs(value));
    return norm;
}

}  // namespace popproto
