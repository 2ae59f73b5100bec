#include "graphs/graph_analysis.h"

#include "core/require.h"

namespace popproto {

namespace {

struct VectorHash {
    std::size_t operator()(const std::vector<State>& states) const noexcept {
        std::size_t hash = 1469598103934665603ULL;
        for (State q : states) {
            hash ^= q + 0x9e3779b97f4a7c15ULL;
            hash *= 1099511628211ULL;
        }
        return hash;
    }
};

}  // namespace

StableComputationResult analyze_graph_stable_computation(const TabulatedProtocol& protocol,
                                                         const InteractionGraph& graph,
                                                         const std::vector<Symbol>& inputs,
                                                         std::size_t max_configs) {
    require(inputs.size() == graph.num_agents(),
            "analyze_graph_stable_computation: one input per agent required");
    require(!graph.edges().empty(), "analyze_graph_stable_computation: graph has no edges");

    std::vector<State> initial;
    initial.reserve(inputs.size());
    for (Symbol x : inputs) initial.push_back(protocol.initial_state(x));

    // Successor rule: every edge (u, v) applies delta to the ordered agent
    // pair, in edge-list order.
    using Agents = std::vector<State>;
    const ReachableGraph<Agents> explored = explore<Agents, VectorHash>(
        initial, max_configs, [&](const Agents& config, std::vector<Agents>& listed) {
            for (const Edge& edge : graph.edges()) {
                const State p = config[edge.first];
                const State q = config[edge.second];
                const StatePair next = protocol.apply_fast(p, q);
                if (next.initiator == p && next.responder == q) continue;
                Agents successor = config;
                successor[edge.first] = next.initiator;
                successor[edge.second] = next.responder;
                listed.push_back(std::move(successor));
            }
        });
    require_complete(explored, "analyze_graph_stable_computation");
    return summarize_stable_computation(explored, [&](const Agents& config) {
        OutputSignature signature(protocol.num_output_symbols(), 0);
        for (State q : config) ++signature[protocol.output_fast(q)];
        return signature;
    });
}

bool graph_stably_computes_bool(const TabulatedProtocol& protocol, const InteractionGraph& graph,
                                const std::vector<Symbol>& inputs, bool expected,
                                std::size_t max_configs) {
    require(protocol.num_output_symbols() == 2,
            "graph_stably_computes_bool: protocol must have Boolean outputs");
    const StableComputationResult result =
        analyze_graph_stable_computation(protocol, graph, inputs, max_configs);
    return result.consensus() == (expected ? kOutputTrue : kOutputFalse);
}

}  // namespace popproto
