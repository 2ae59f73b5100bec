#include "analysis/reachability.h"

#include "core/require.h"

namespace popproto {

ConfigurationGraph explore_reachable(const TabulatedProtocol& protocol,
                                     const CountConfiguration& initial,
                                     std::size_t max_configs) {
    require(initial.num_states() == protocol.num_states(),
            "explore_reachable: configuration does not match protocol");
    require(initial.population_size() >= 1, "explore_reachable: empty population");
    require(max_configs >= 1, "explore_reachable: zero configuration limit");
    return explore<CountConfiguration, CountConfigurationHash>(
        initial, max_configs,
        [&](const CountConfiguration& config, std::vector<CountConfiguration>& listed) {
            for_each_pairwise_successor(protocol, config,
                                        [&](CountConfiguration&& successor, State, State) {
                                            listed.push_back(std::move(successor));
                                        });
        });
}

}  // namespace popproto
