#include "core/configuration.h"

#include "core/require.h"

namespace popproto {

CountConfiguration::CountConfiguration(std::size_t num_states) : counts_(num_states, 0) {
    require(num_states > 0, "CountConfiguration: empty state set");
}

CountConfiguration CountConfiguration::from_inputs(const Protocol& protocol,
                                                   const std::vector<Symbol>& inputs) {
    CountConfiguration config(protocol.num_states());
    for (Symbol x : inputs) {
        require(x < protocol.num_input_symbols(), "from_inputs: input symbol out of range");
        config.add(protocol.initial_state(x));
    }
    return config;
}

CountConfiguration CountConfiguration::from_input_counts(
    const Protocol& protocol, const std::vector<std::uint64_t>& symbol_counts) {
    require(symbol_counts.size() == protocol.num_input_symbols(),
            "from_input_counts: need one count per input symbol");
    require(checked_sum(symbol_counts).has_value(),
            "from_input_counts: counts sum past 2^64 - 1 agents");
    CountConfiguration config(protocol.num_states());
    for (Symbol x = 0; x < symbol_counts.size(); ++x)
        if (symbol_counts[x] > 0) config.add(protocol.initial_state(x), symbol_counts[x]);
    return config;
}

CountConfiguration CountConfiguration::from_state_counts(std::vector<std::uint64_t> counts) {
    const std::optional<std::uint64_t> population = checked_sum(counts);
    require(population.has_value(), "from_state_counts: counts sum past 2^64 - 1 agents");
    CountConfiguration config(counts.size());
    config.counts_ = std::move(counts);
    config.population_ = *population;
    return config;
}

std::uint64_t CountConfiguration::count(State q) const {
    require(q < counts_.size(), "CountConfiguration: state out of range");
    return counts_[q];
}

void CountConfiguration::add(State q, std::uint64_t agents) {
    require(q < counts_.size(), "CountConfiguration: state out of range");
    require(agents <= ~population_, "CountConfiguration: population past 2^64 - 1 agents");
    counts_[q] += agents;
    population_ += agents;
}

void CountConfiguration::remove(State q, std::uint64_t agents) {
    require(q < counts_.size(), "CountConfiguration: state out of range");
    require(counts_[q] >= agents, "CountConfiguration: removing absent agents");
    counts_[q] -= agents;
    population_ -= agents;
}

void CountConfiguration::apply_interaction(const Protocol& protocol, State p, State q) {
    require(p < counts_.size() && q < counts_.size(), "apply_interaction: state out of range");
    const std::uint64_t needed = (p == q) ? 2 : 1;
    require(counts_[p] >= needed && counts_[q] >= 1,
            "apply_interaction: interacting agents are not present");
    const StatePair result = protocol.apply(p, q);
    counts_[p] -= 1;
    counts_[q] -= 1;
    counts_[result.initiator] += 1;
    counts_[result.responder] += 1;
}

std::vector<std::uint64_t> CountConfiguration::output_counts(const Protocol& protocol) const {
    return output_counts(protocol.num_output_symbols(),
                         [&protocol](State q) { return protocol.output(q); });
}

std::optional<Symbol> CountConfiguration::consensus_output(const Protocol& protocol) const {
    return consensus_of(counts_, [&protocol](State q) { return protocol.output(q); });
}

bool CountConfiguration::is_silent(const Protocol& protocol) const {
    for (State p = 0; p < counts_.size(); ++p) {
        if (counts_[p] == 0) continue;
        for (State q = 0; q < counts_.size(); ++q) {
            if (counts_[q] == 0) continue;
            if (p == q && counts_[p] < 2) continue;
            const StatePair result = protocol.apply(p, q);
            const bool multiset_preserved =
                (result.initiator == p && result.responder == q) ||
                (result.initiator == q && result.responder == p);
            if (!multiset_preserved) return false;
        }
    }
    return true;
}

std::optional<std::uint64_t> checked_sum(const std::vector<std::uint64_t>& counts) {
    std::uint64_t total = 0;
    for (const std::uint64_t count : counts)
        if (__builtin_add_overflow(total, count, &total)) return std::nullopt;
    return total;
}

std::size_t CountConfigurationHash::operator()(const CountConfiguration& config) const noexcept {
    std::size_t hash = 1469598103934665603ULL;  // FNV offset basis
    for (std::uint64_t count : config.counts()) {
        hash ^= static_cast<std::size_t>(count + 0x9e3779b97f4a7c15ULL);
        hash *= 1099511628211ULL;  // FNV prime
    }
    return hash;
}

AgentConfiguration AgentConfiguration::from_inputs(const Protocol& protocol,
                                                   const std::vector<Symbol>& inputs) {
    AgentConfiguration config;
    config.states_.reserve(inputs.size());
    for (Symbol x : inputs) {
        require(x < protocol.num_input_symbols(), "from_inputs: input symbol out of range");
        config.states_.push_back(protocol.initial_state(x));
    }
    return config;
}

AgentConfiguration AgentConfiguration::from_counts(const CountConfiguration& counts) {
    AgentConfiguration config;
    config.states_.reserve(counts.population_size());
    for (State q = 0; q < counts.num_states(); ++q)
        config.states_.insert(config.states_.end(), counts.count(q), q);
    return config;
}

AgentConfiguration AgentConfiguration::from_states(std::vector<State> states,
                                                   std::size_t num_states) {
    for (const State q : states)
        require(q < num_states, "from_states: state out of range");
    AgentConfiguration config;
    config.states_ = std::move(states);
    return config;
}

State AgentConfiguration::state(std::size_t agent) const {
    require(agent < states_.size(), "AgentConfiguration: agent out of range");
    return states_[agent];
}

void AgentConfiguration::set_state(std::size_t agent, State q) {
    require(agent < states_.size(), "AgentConfiguration: agent out of range");
    states_[agent] = q;
}

bool AgentConfiguration::apply_interaction(const Protocol& protocol, std::size_t initiator,
                                           std::size_t responder) {
    require(initiator < states_.size() && responder < states_.size(),
            "apply_interaction: agent out of range");
    require(initiator != responder, "apply_interaction: an agent cannot meet itself");
    const StatePair result = protocol.apply(states_[initiator], states_[responder]);
    const bool changed =
        result.initiator != states_[initiator] || result.responder != states_[responder];
    states_[initiator] = result.initiator;
    states_[responder] = result.responder;
    return changed;
}

CountConfiguration AgentConfiguration::to_counts(std::size_t num_states) const {
    CountConfiguration config(num_states);
    for (State q : states_) config.add(q);
    return config;
}

}  // namespace popproto
