#include "extensions/multiway.h"

#include <algorithm>
#include <functional>

#include "core/require.h"

namespace popproto {

MultiwayRunResult simulate_multiway(const MultiwayProtocol& protocol,
                                    const CountConfiguration& initial,
                                    const MultiwayRunOptions& options) {
    const std::size_t g = protocol.group_size();
    require(g >= 2, "simulate_multiway: group size must be at least 2");
    require(initial.num_states() == protocol.num_states(),
            "simulate_multiway: configuration does not match protocol");
    const std::uint64_t n = initial.population_size();
    require(n >= g, "simulate_multiway: population smaller than one group");
    require(options.max_interactions > 0, "simulate_multiway: max_interactions must be positive");

    Rng rng(options.seed);
    AgentConfiguration agents = AgentConfiguration::from_counts(initial);
    std::vector<State> states = agents.states();

    MultiwayRunResult result{CountConfiguration(protocol.num_states()), 0, 0, 0, std::nullopt};
    std::vector<std::size_t> members(g);
    std::vector<State> group(g);

    while (result.interactions < options.max_interactions) {
        // Sample g distinct agents by rejection (g << n in practice).
        for (std::size_t slot = 0; slot < g; ++slot) {
            for (;;) {
                const std::size_t candidate = rng.below(n);
                bool duplicate = false;
                for (std::size_t other = 0; other < slot; ++other)
                    if (members[other] == candidate) duplicate = true;
                if (!duplicate) {
                    members[slot] = candidate;
                    break;
                }
            }
        }
        ++result.interactions;

        for (std::size_t slot = 0; slot < g; ++slot) group[slot] = states[members[slot]];
        std::vector<State> next = group;
        protocol.apply(next);
        ensure(next.size() == g, "simulate_multiway: delta changed the group size");

        bool changed = false;
        bool output_changed = false;
        for (std::size_t slot = 0; slot < g; ++slot) {
            if (next[slot] != group[slot]) {
                changed = true;
                if (protocol.output(next[slot]) != protocol.output(group[slot]))
                    output_changed = true;
                states[members[slot]] = next[slot];
            }
        }
        if (changed) ++result.effective_interactions;
        if (output_changed) result.last_output_change = result.interactions;

        if (options.stop_after_stable_outputs != 0 && result.last_output_change != 0 &&
            result.interactions - result.last_output_change >=
                options.stop_after_stable_outputs) {
            break;
        }
    }

    CountConfiguration final_config(protocol.num_states());
    for (State q : states) final_config.add(q);
    result.consensus =
        consensus_of(final_config.counts(), [&](State q) { return protocol.output(q); });
    result.final_configuration = std::move(final_config);
    return result;
}

namespace {

/// Calls visit(group) for every multiset of g agents' states that `config`
/// can supply, as a non-decreasing state vector, in lexicographic order.
void for_each_group(const CountConfiguration& config, std::size_t g, std::vector<State>& group,
                    const std::function<void(const std::vector<State>&)>& visit,
                    State from = 0) {
    if (group.size() == g) {
        visit(group);
        return;
    }
    for (State q = from; q < config.num_states(); ++q) {
        if (config.count(q) <= static_cast<std::uint64_t>(
                                   std::count(group.begin(), group.end(), q)))
            continue;
        group.push_back(q);
        for_each_group(config, g, group, visit, q);
        group.pop_back();
    }
}

}  // namespace

StableComputationResult analyze_multiway_stable_computation(const MultiwayProtocol& protocol,
                                                            const CountConfiguration& initial,
                                                            std::size_t max_configs) {
    const std::size_t g = protocol.group_size();
    require(initial.num_states() == protocol.num_states(),
            "analyze_multiway_stable_computation: configuration mismatch");
    require(initial.population_size() >= g,
            "analyze_multiway_stable_computation: population smaller than one group");

    // Successor rule: every multiset of g agents, then every distinct
    // ordered arrangement of it (delta may be order-sensitive), in
    // lexicographic order.
    const ConfigurationGraph graph = explore<CountConfiguration, CountConfigurationHash>(
        initial, max_configs,
        [&](const CountConfiguration& config, std::vector<CountConfiguration>& listed) {
            std::vector<State> group;
            for_each_group(config, g, group, [&](const std::vector<State>& multiset) {
                std::vector<State> arrangement = multiset;
                do {
                    std::vector<State> next = arrangement;
                    protocol.apply(next);
                    CountConfiguration successor = config;
                    for (State q : arrangement) successor.remove(q);
                    for (State q : next) successor.add(q);
                    listed.push_back(std::move(successor));
                } while (std::next_permutation(arrangement.begin(), arrangement.end()));
            });
        });
    require_complete(graph, "analyze_multiway_stable_computation");
    return summarize_stable_computation(graph, [&](const CountConfiguration& config) {
        return config.output_counts(protocol.num_output_symbols(),
                                    [&](State q) { return protocol.output(q); });
    });
}

namespace {

/// Strict-majority canceller.  States: 0 = A, 1 = B, 2 = Ta (undecided,
/// leaning A), 3 = Tb.  Groups holding both camps cancel one A against one
/// B; groups holding survivors of only one camp convert every undecided
/// member to that camp's lean.
class MultiwayMajority final : public MultiwayProtocol {
public:
    explicit MultiwayMajority(std::size_t group_size) : group_size_(group_size) {
        require(group_size >= 2, "make_multiway_majority_protocol: group size >= 2");
    }

    std::size_t group_size() const override { return group_size_; }
    std::size_t num_states() const override { return 4; }
    std::size_t num_input_symbols() const override { return 2; }
    std::size_t num_output_symbols() const override { return 2; }
    State initial_state(Symbol x) const override {
        require(x < 2, "MultiwayMajority: input out of range");
        return x;  // 0 -> A, 1 -> B
    }
    Symbol output(State q) const override {
        require(q < 4, "MultiwayMajority: state out of range");
        return (q == 1 || q == 3) ? kOutputTrue : kOutputFalse;  // B side says true
    }

    void apply(std::vector<State>& group) const override {
        std::size_t camp_a = 0;
        std::size_t camp_b = 0;
        for (State q : group) {
            if (q == 0) ++camp_a;
            if (q == 1) ++camp_b;
        }
        if (camp_a >= 1 && camp_b >= 1) {
            bool cancelled_a = false;
            bool cancelled_b = false;
            for (State& q : group) {
                if (!cancelled_a && q == 0) {
                    q = 2;  // -> Ta
                    cancelled_a = true;
                } else if (!cancelled_b && q == 1) {
                    q = 3;  // -> Tb
                    cancelled_b = true;
                }
            }
        } else if (camp_a >= 1) {
            for (State& q : group)
                if (q == 2 || q == 3) q = 2;
        } else if (camp_b >= 1) {
            for (State& q : group)
                if (q == 2 || q == 3) q = 3;
        }
    }

private:
    std::size_t group_size_;
};

/// Coincidence detector.  States: 0 = idle, 1 = marked, 2 = alert.
class MultiwayCoincidence final : public MultiwayProtocol {
public:
    explicit MultiwayCoincidence(std::size_t group_size) : group_size_(group_size) {
        require(group_size >= 2, "make_multiway_coincidence_protocol: group size >= 2");
    }

    std::size_t group_size() const override { return group_size_; }
    std::size_t num_states() const override { return 3; }
    std::size_t num_input_symbols() const override { return 2; }
    std::size_t num_output_symbols() const override { return 2; }
    State initial_state(Symbol x) const override {
        require(x < 2, "MultiwayCoincidence: input out of range");
        return x;
    }
    Symbol output(State q) const override {
        require(q < 3, "MultiwayCoincidence: state out of range");
        return q == 2 ? kOutputTrue : kOutputFalse;
    }

    void apply(std::vector<State>& group) const override {
        const bool any_alert =
            std::any_of(group.begin(), group.end(), [](State q) { return q == 2; });
        const bool all_marked =
            std::all_of(group.begin(), group.end(), [](State q) { return q == 1; });
        if (any_alert || all_marked)
            for (State& q : group) q = 2;
    }

private:
    std::size_t group_size_;
};

}  // namespace

std::unique_ptr<MultiwayProtocol> make_multiway_majority_protocol(std::size_t group_size) {
    return std::make_unique<MultiwayMajority>(group_size);
}

std::unique_ptr<MultiwayProtocol> make_multiway_coincidence_protocol(std::size_t group_size) {
    return std::make_unique<MultiwayCoincidence>(group_size);
}

}  // namespace popproto
