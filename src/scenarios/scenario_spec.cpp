#include "scenarios/scenario_spec.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/interaction_model.h"
#include "core/require.h"
#include "core/run_loop.h"
#include "scenarios/adversarial.h"
#include "scenarios/dynamic_graph.h"
#include "scenarios/mobility.h"

namespace popproto {

namespace {

template <InteractionModel M>
RunResult run_with_model(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                         M model, const RunOptions& options) {
    PairStepper<M, ObservedEngine::kPairModel> stepper(
        protocol, AgentConfiguration::from_counts(initial).states(), std::move(model),
        "run_scenario");
    return run_loop(stepper, protocol, options, "run_scenario");
}

}  // namespace

const std::vector<std::string>& scenario_model_names() {
    static const std::vector<std::string> names = {
        "round_robin", "sweep", "adversarial", "dynamic_graph", "grid_mobility"};
    return names;
}

InteractionGraph make_named_topology(const std::string& name, std::uint32_t num_agents) {
    if (name == "complete") return InteractionGraph::complete(num_agents);
    if (name == "ring") return InteractionGraph::ring(num_agents);
    if (name == "line") return InteractionGraph::line(num_agents);
    if (name == "star") return InteractionGraph::star(num_agents);
    require(false, "make_named_topology: unknown topology '" + name +
                       "' (expected complete, ring, line, or star)");
    return InteractionGraph::complete(num_agents);  // unreachable
}

RunResult run_scenario(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const ScenarioSpec& spec, const RunOptions& options) {
    require(initial.num_states() == protocol.num_states(),
            "run_scenario: configuration does not match protocol");
    const std::uint64_t n = initial.population_size();
    require(n >= 2, "run_scenario: need at least two agents");
    require_engine_field(options, SimulationEngine::kAuto, "run_scenario");

    if (spec.model == "round_robin")
        return run_with_model(protocol, initial, RoundRobinPairModel(n), options);
    if (spec.model == "sweep")
        return run_with_model(protocol, initial, SweepPairModel(n, options.seed), options);
    if (spec.model == "adversarial")
        return run_with_model(protocol, initial,
                              AdversarialCoverModel(protocol, n, spec.probe), options);
    if (spec.model == "dynamic_graph") {
        require(!spec.phases.empty(),
                "run_scenario: dynamic_graph needs at least one phase topology");
        std::vector<std::vector<Edge>> phases;
        phases.reserve(spec.phases.size());
        for (const std::string& topology : spec.phases)
            phases.push_back(
                make_named_topology(topology, static_cast<std::uint32_t>(n)).edges());
        const std::uint64_t phase_length =
            spec.phase_length != 0 ? spec.phase_length : 4 * n;
        return run_with_model(protocol, initial,
                              DynamicGraphModel(std::move(phases), phase_length, n), options);
    }
    if (spec.model == "grid_mobility") {
        std::uint64_t width = spec.torus_width;
        std::uint64_t height = spec.torus_height;
        if (width == 0 || height == 0) {
            // Smallest square torus with at least 2n cells: room to move
            // without making contacts vanishingly rare.
            std::uint64_t side = 2;
            while (side * side < 2 * n) ++side;
            width = height = side;
        }
        return run_with_model(protocol, initial,
                              GridMobilityModel(n, width, height, spec.radius), options);
    }
    throw std::invalid_argument("run_scenario: unknown model '" + spec.model +
                                "' (expected round_robin, sweep, adversarial, dynamic_graph, "
                                "or grid_mobility)");
}

}  // namespace popproto
