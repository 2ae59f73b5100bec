#include "core/simulator.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/interaction_model.h"
#include "core/require.h"
#include "core/run_loop.h"

namespace popproto {

const char* stop_reason_label(StopReason reason) {
    switch (reason) {
        case StopReason::kSilent:
            return "silent";
        case StopReason::kStableOutputs:
            return "stable_outputs";
        case StopReason::kBudget:
            return "budget";
        case StopReason::kPaused:
            return "paused";
    }
    return "unknown";
}

StopReason parse_stop_reason_label(const std::string& label) {
    for (const StopReason reason : {StopReason::kSilent, StopReason::kStableOutputs,
                                    StopReason::kBudget, StopReason::kPaused})
        if (label == stop_reason_label(reason)) return reason;
    throw std::invalid_argument("unknown stop reason \"" + label + "\"");
}

RunResult simulate(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                   const RunOptions& options) {
    require(initial.num_states() == protocol.num_states(),
            "simulate: configuration does not match protocol");
    require(initial.population_size() >= 2, "simulate: need at least two agents");
    require_engine_field(options, SimulationEngine::kAgentArray, "simulate");

    PairStepper<UniformPairModel, ObservedEngine::kAgentArray> stepper(
        protocol, AgentConfiguration::from_counts(initial).states(), UniformPairModel{},
        "simulate");
    return run_loop(stepper, protocol, options, "simulate");
}

RunResult simulate_weighted(const TabulatedProtocol& protocol,
                            const AgentConfiguration& initial,
                            const std::vector<double>& weights, const RunOptions& options) {
    const std::size_t n = initial.size();
    require(n >= 2, "simulate_weighted: need at least two agents");
    require(weights.size() == n, "simulate_weighted: one weight per agent required");
    require_engine_field(options, SimulationEngine::kAuto, "simulate_weighted");
    for (const double w : weights)
        require(w > 0.0 && std::isfinite(w), "simulate_weighted: weights must be positive");

    PairStepper<WeightedPairModel, ObservedEngine::kWeighted> stepper(
        protocol, initial.states(), WeightedPairModel(weights), "simulate_weighted");
    return run_loop(stepper, protocol, options, "simulate_weighted");
}

}  // namespace popproto
