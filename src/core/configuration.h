// Population configurations (Sect. 3.1).
//
// A configuration assigns a state to each agent.  Because protocols on the
// complete interaction graph depend only on the multiset of states (agents
// are anonymous; Sect. 3.5), the canonical representation is a vector of
// per-state counts (CountConfiguration).  AgentConfiguration keeps explicit
// per-agent states and is used by the random scheduler and by interaction
// graphs where agent identity matters.

#ifndef POPPROTO_CORE_CONFIGURATION_H
#define POPPROTO_CORE_CONFIGURATION_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/protocol.h"

namespace popproto {

/// Multiset configuration: counts_[q] agents are in state q.
class CountConfiguration {
public:
    /// Empty population over `num_states` states.
    explicit CountConfiguration(std::size_t num_states);

    /// Configuration I(x) for the input assignment listing each agent's
    /// input symbol (order is irrelevant).
    static CountConfiguration from_inputs(const Protocol& protocol,
                                          const std::vector<Symbol>& inputs);

    /// Configuration I(x) for the symbol-count input convention: agent counts
    /// per input symbol (Sect. 3.4, "Domain Z^k").  Throws
    /// std::invalid_argument if the counts sum past 2^64 - 1.
    static CountConfiguration from_input_counts(const Protocol& protocol,
                                                const std::vector<std::uint64_t>& symbol_counts);

    /// Configuration holding counts[q] agents in state q (a raw count vector
    /// adopted as-is, e.g. an engine's working vector at a snapshot).
    /// Throws std::invalid_argument if the counts sum past 2^64 - 1.
    static CountConfiguration from_state_counts(std::vector<std::uint64_t> counts);

    /// Total number of agents n.
    std::uint64_t population_size() const { return population_; }

    std::size_t num_states() const { return counts_.size(); }

    std::uint64_t count(State q) const;

    /// Adds `agents` agents in state `q`; throws std::invalid_argument if
    /// the population would pass 2^64 - 1.
    void add(State q, std::uint64_t agents = 1);

    /// Removes `agents` agents in state `q`; throws if fewer are present.
    void remove(State q, std::uint64_t agents = 1);

    /// Applies one interaction between an initiator in state `p` and a
    /// responder in state `q`.  Throws if the required agents are absent
    /// (including needing two agents when p == q).
    void apply_interaction(const Protocol& protocol, State p, State q);

    /// Number of agents per output symbol under O.
    std::vector<std::uint64_t> output_counts(const Protocol& protocol) const;

    /// Number of agents per output symbol, with `output(q)` giving state q's
    /// symbol: the one fold behind every protocol family's output signature
    /// (families without a Protocol base pass their own output map).
    template <class Output>
    std::vector<std::uint64_t> output_counts(std::size_t num_output_symbols,
                                             const Output& output) const {
        std::vector<std::uint64_t> outputs(num_output_symbols, 0);
        for (State q = 0; q < counts_.size(); ++q)
            if (counts_[q] > 0) outputs[output(q)] += counts_[q];
        return outputs;
    }

    /// The common output symbol if every agent agrees (all-agents output
    /// convention), otherwise nullopt.  Empty populations return nullopt.
    std::optional<Symbol> consensus_output(const Protocol& protocol) const;

    /// True iff no available interaction changes the *multiset* of states:
    /// for every ordered pair (p, q) of present states (p == q requiring
    /// count >= 2), delta(p, q) is (p, q) or (q, p).  Since agents are
    /// anonymous, a silent configuration can never evolve further and is in
    /// particular output-stable.
    bool is_silent(const Protocol& protocol) const;

    /// Raw counts, indexable by State.
    const std::vector<std::uint64_t>& counts() const { return counts_; }

    friend bool operator==(const CountConfiguration&, const CountConfiguration&) = default;

private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t population_ = 0;
};

/// The sum of `counts`, or nullopt when it wraps past 2^64: the one checked
/// total behind every count-vector constructor and checkpoint restore.
std::optional<std::uint64_t> checked_sum(const std::vector<std::uint64_t>& counts);

/// The one consensus fold, for every protocol family: the output symbol
/// `output(i)` shared by every index i with counts[i] > 0, or nullopt when
/// two symbols occur or every count is zero.  Over a state-count vector with
/// a protocol's output map this is the all-agents consensus; over an output
/// signature (agents per symbol) with the identity map, its one held symbol.
template <class Output>
std::optional<Symbol> consensus_of(const std::vector<std::uint64_t>& counts, const Output& output) {
    std::optional<Symbol> only;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        const Symbol y = output(static_cast<State>(i));
        if (only && *only != y) return std::nullopt;
        only = y;
    }
    return only;
}

/// FNV-1a hash over the count vector, for use in unordered containers during
/// reachability exploration.
struct CountConfigurationHash {
    std::size_t operator()(const CountConfiguration& config) const noexcept;
};

/// Explicit per-agent configuration.
class AgentConfiguration {
public:
    AgentConfiguration() = default;

    /// One agent per entry of `inputs`, in order (string input convention).
    static AgentConfiguration from_inputs(const Protocol& protocol,
                                          const std::vector<Symbol>& inputs);

    /// Expands a multiset configuration into an (arbitrary-order) agent list.
    static AgentConfiguration from_counts(const CountConfiguration& config);

    /// Adopts an explicit per-agent state vector (stepper/checkpoint
    /// interop); every state must be < num_states.
    static AgentConfiguration from_states(std::vector<State> states, std::size_t num_states);

    std::size_t size() const { return states_.size(); }

    State state(std::size_t agent) const;
    void set_state(std::size_t agent, State q);

    /// Applies delta to the ordered agent pair (initiator, responder).
    /// Returns true iff either agent's state changed.
    bool apply_interaction(const Protocol& protocol, std::size_t initiator,
                           std::size_t responder);

    /// Collapses to the multiset representation.
    CountConfiguration to_counts(std::size_t num_states) const;

    const std::vector<State>& states() const { return states_; }

private:
    std::vector<State> states_;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_CONFIGURATION_H
