#include "core/tabulated_protocol.h"

#include <utility>

#include "core/require.h"

namespace popproto {

TabulatedProtocol::TabulatedProtocol(Tables tables)
    : tables_(std::move(tables)), num_states_(tables_.output.size()) {
    require(num_states_ > 0, "TabulatedProtocol: empty state set");
    require(!tables_.initial.empty(), "TabulatedProtocol: empty input alphabet");
    require(tables_.num_output_symbols > 0, "TabulatedProtocol: empty output alphabet");
    require(tables_.delta.size() == num_states_ * num_states_,
            "TabulatedProtocol: delta table must have |Q|^2 entries");
    for (State q0 : tables_.initial)
        require(q0 < num_states_, "TabulatedProtocol: initial state out of range");
    for (Symbol y : tables_.output)
        require(y < tables_.num_output_symbols, "TabulatedProtocol: output symbol out of range");
    for (const StatePair& result : tables_.delta) {
        require(result.initiator < num_states_ && result.responder < num_states_,
                "TabulatedProtocol: delta result out of range");
    }
    require(tables_.state_names.empty() || tables_.state_names.size() == num_states_,
            "TabulatedProtocol: wrong number of state names");
    require(tables_.input_names.empty() || tables_.input_names.size() == tables_.initial.size(),
            "TabulatedProtocol: wrong number of input names");
    require(tables_.output_names.empty() ||
                tables_.output_names.size() == tables_.num_output_symbols,
            "TabulatedProtocol: wrong number of output names");
}

std::unique_ptr<TabulatedProtocol> TabulatedProtocol::tabulate(const Protocol& protocol) {
    const auto num_states = protocol.num_states();
    Tables tables;
    tables.num_output_symbols = protocol.num_output_symbols();
    tables.initial.reserve(protocol.num_input_symbols());
    for (Symbol x = 0; x < protocol.num_input_symbols(); ++x) {
        tables.initial.push_back(protocol.initial_state(x));
        tables.input_names.push_back(protocol.input_name(x));
    }
    tables.output.reserve(num_states);
    for (State q = 0; q < num_states; ++q) {
        tables.output.push_back(protocol.output(q));
        tables.state_names.push_back(protocol.state_name(q));
    }
    for (Symbol y = 0; y < protocol.num_output_symbols(); ++y)
        tables.output_names.push_back(protocol.output_name(y));
    tables.delta.reserve(num_states * num_states);
    for (State p = 0; p < num_states; ++p)
        for (State q = 0; q < num_states; ++q) tables.delta.push_back(protocol.apply(p, q));
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

State TabulatedProtocol::initial_state(Symbol x) const {
    require(x < tables_.initial.size(), "TabulatedProtocol: input symbol out of range");
    return tables_.initial[x];
}

Symbol TabulatedProtocol::output(State q) const {
    require(q < num_states_, "TabulatedProtocol: state out of range");
    return tables_.output[q];
}

StatePair TabulatedProtocol::apply(State initiator, State responder) const {
    require(initiator < num_states_ && responder < num_states_,
            "TabulatedProtocol: state out of range");
    return apply_fast(initiator, responder);
}

std::string TabulatedProtocol::state_name(State q) const {
    if (q < tables_.state_names.size()) return tables_.state_names[q];
    return Protocol::state_name(q);
}

std::string TabulatedProtocol::input_name(Symbol x) const {
    if (x < tables_.input_names.size()) return tables_.input_names[x];
    return Protocol::input_name(x);
}

std::string TabulatedProtocol::output_name(Symbol y) const {
    if (y < tables_.output_names.size()) return tables_.output_names[y];
    return Protocol::output_name(y);
}

}  // namespace popproto
