#include "extensions/birth_death.h"

#include <algorithm>
#include <stdexcept>

#include "core/require.h"

namespace popproto {

BirthDeathRunResult simulate_birth_death(const BirthDeathProtocol& protocol,
                                         const CountConfiguration& initial,
                                         const BirthDeathRunOptions& options) {
    require(initial.num_states() == protocol.num_states(),
            "simulate_birth_death: configuration does not match protocol");
    require(options.max_interactions > 0,
            "simulate_birth_death: max_interactions must be positive");

    Rng rng(options.seed);
    std::vector<State> states;
    states.reserve(initial.population_size());
    for (State q = 0; q < initial.num_states(); ++q)
        states.insert(states.end(), initial.count(q), q);

    BirthDeathRunResult result{CountConfiguration(protocol.num_states()), 0, 0, 0, 0, 0,
                               false, std::nullopt};

    while (result.interactions < options.max_interactions) {
        if (states.size() < 2) {
            result.extinct = true;
            break;
        }
        const std::size_t i = rng.below(states.size());
        std::size_t j = rng.below(states.size() - 1);
        if (j >= i) ++j;
        ++result.interactions;

        const State p = states[i];
        const State q = states[j];
        const std::vector<State> offspring = protocol.apply(p, q);
        ensure(offspring.size() <= protocol.max_offspring(),
               "simulate_birth_death: apply exceeded max_offspring");
        for (State s : offspring)
            ensure(s < protocol.num_states(), "simulate_birth_death: offspring state invalid");

        // Null interaction (same multiset) fast path.
        const bool unchanged =
            offspring.size() == 2 &&
            ((offspring[0] == p && offspring[1] == q) ||
             (offspring[0] == q && offspring[1] == p));
        if (unchanged) continue;

        ++result.effective_interactions;
        if (offspring.size() > 2) result.births += offspring.size() - 2;
        if (offspring.size() < 2) result.deaths += 2 - offspring.size();

        // Output-multiset change detection.
        std::vector<std::int64_t> deltas(protocol.num_output_symbols(), 0);
        --deltas[protocol.output(p)];
        --deltas[protocol.output(q)];
        for (State s : offspring) ++deltas[protocol.output(s)];
        if (std::any_of(deltas.begin(), deltas.end(), [](std::int64_t d) { return d != 0; }))
            result.last_output_change = result.interactions;

        // Remove the pair (largest index first so the swap does not move the
        // other member), then append offspring.
        const std::size_t high = std::max(i, j);
        const std::size_t low = std::min(i, j);
        states[high] = states.back();
        states.pop_back();
        states[low] = states.back();
        states.pop_back();
        states.insert(states.end(), offspring.begin(), offspring.end());
        if (states.size() > options.max_population)
            throw std::runtime_error("simulate_birth_death: population exploded");

        if (options.stop_after_stable_outputs != 0 && result.last_output_change != 0 &&
            result.interactions - result.last_output_change >=
                options.stop_after_stable_outputs) {
            break;
        }
    }
    if (states.size() < 2) result.extinct = true;

    CountConfiguration final_config(protocol.num_states());
    for (State q : states) final_config.add(q);
    result.consensus =
        consensus_of(final_config.counts(), [&](State q) { return protocol.output(q); });
    result.final_configuration = std::move(final_config);
    return result;
}

StableComputationResult analyze_birth_death_stable_computation(
    const BirthDeathProtocol& protocol, const CountConfiguration& initial,
    std::size_t max_configs, std::uint64_t max_population) {
    require(initial.num_states() == protocol.num_states(),
            "analyze_birth_death_stable_computation: configuration mismatch");

    // Successor rule: the pairwise pairs, each replaced by its offspring
    // multiset.  Configurations with fewer than two agents are terminal.
    const ConfigurationGraph graph = explore<CountConfiguration, CountConfigurationHash>(
        initial, max_configs,
        [&](const CountConfiguration& config, std::vector<CountConfiguration>& listed) {
            if (config.population_size() < 2) return;
            const std::vector<std::uint64_t>& counts = config.counts();
            for (State p = 0; p < counts.size(); ++p) {
                if (counts[p] == 0) continue;
                for (State q = 0; q < counts.size(); ++q) {
                    if (counts[q] == 0 || (p == q && counts[p] < 2)) continue;
                    CountConfiguration successor = config;
                    successor.remove(p);
                    successor.remove(q);
                    for (State s : protocol.apply(p, q)) successor.add(s);
                    // A null interaction is no growth, even from an initial
                    // configuration already past the cap.
                    if (successor.population_size() > max_population && !(successor == config))
                        throw std::runtime_error(
                            "analyze_birth_death_stable_computation: population exploded");
                    listed.push_back(std::move(successor));
                }
            }
        });
    require_complete(graph, "analyze_birth_death_stable_computation");
    return summarize_stable_computation(graph, [&](const CountConfiguration& config) {
        return config.output_counts(protocol.num_output_symbols(),
                                    [&](State q) { return protocol.output(q); });
    });
}

namespace {

class AnnihilatingMajority final : public BirthDeathProtocol {
public:
    std::size_t num_states() const override { return 2; }
    std::size_t num_input_symbols() const override { return 2; }
    std::size_t num_output_symbols() const override { return 2; }
    State initial_state(Symbol x) const override {
        require(x < 2, "AnnihilatingMajority: input out of range");
        return x;
    }
    Symbol output(State q) const override {
        require(q < 2, "AnnihilatingMajority: state out of range");
        return q == 1 ? kOutputTrue : kOutputFalse;
    }
    std::vector<State> apply(State initiator, State responder) const override {
        if (initiator != responder) return {};  // opposite camps annihilate
        return {initiator, responder};
    }
};

/// States: 0 = worker; k in [1, factor] = seed with k buds remaining.
class SpawningCounter final : public BirthDeathProtocol {
public:
    explicit SpawningCounter(std::uint32_t factor) : factor_(factor) {
        require(factor >= 1, "make_spawning_counter_protocol: factor must be positive");
    }
    std::size_t num_states() const override { return factor_ + 1; }
    std::size_t num_input_symbols() const override { return 2; }
    std::size_t num_output_symbols() const override { return 2; }
    State initial_state(Symbol x) const override {
        require(x < 2, "SpawningCounter: input out of range");
        return x == 0 ? 0 : factor_;
    }
    Symbol output(State q) const override {
        require(q <= factor_, "SpawningCounter: state out of range");
        return q == 0 ? 0 : 1;  // 1 while still a seed
    }
    std::vector<State> apply(State initiator, State responder) const override {
        if (initiator >= 1) {
            // A seed buds one worker per encounter, with any partner.
            return {initiator - 1, responder, 0};
        }
        return {initiator, responder};
    }
    std::size_t max_offspring() const override { return 3; }

private:
    std::uint32_t factor_;
};

}  // namespace

std::unique_ptr<BirthDeathProtocol> make_annihilating_majority_protocol() {
    return std::make_unique<AnnihilatingMajority>();
}

std::unique_ptr<BirthDeathProtocol> make_spawning_counter_protocol(std::uint32_t factor) {
    return std::make_unique<SpawningCounter>(factor);
}

}  // namespace popproto
