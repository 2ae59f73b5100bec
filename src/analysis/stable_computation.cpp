#include "analysis/stable_computation.h"

#include <algorithm>

#include "core/require.h"

namespace popproto {

std::optional<Symbol> StableComputationResult::consensus() const {
    if (!single_valued()) return std::nullopt;
    return consensus_of(stable_signatures.front(), [](Symbol y) { return y; });
}

SccDecomposition condense_edges(const std::vector<std::vector<ConfigId>>& successors) {
    const std::size_t n = successors.size();
    SccDecomposition result;
    result.component.assign(n, 0);

    // Iterative Tarjan.
    constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};
    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<ConfigId> stack;
    std::uint32_t next_index = 0;

    struct Frame {
        ConfigId node;
        std::size_t edge;
    };
    std::vector<Frame> call_stack;

    for (ConfigId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited) continue;
        call_stack.push_back({root, 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = true;

        while (!call_stack.empty()) {
            Frame& frame = call_stack.back();
            const ConfigId v = frame.node;
            if (frame.edge < successors[v].size()) {
                const ConfigId w = successors[v][frame.edge++];
                if (index[w] == kUnvisited) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = true;
                    call_stack.push_back({w, 0});
                } else if (on_stack[w]) {
                    lowlink[v] = std::min(lowlink[v], index[w]);
                }
            } else {
                if (lowlink[v] == index[v]) {
                    const auto component = static_cast<std::uint32_t>(result.num_components++);
                    ConfigId w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        on_stack[w] = false;
                        result.component[w] = component;
                    } while (w != v);
                }
                call_stack.pop_back();
                if (!call_stack.empty()) {
                    const ConfigId parent = call_stack.back().node;
                    lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
                }
            }
        }
    }

    result.is_final.assign(result.num_components, true);
    for (ConfigId v = 0; v < n; ++v) {
        for (ConfigId w : successors[v]) {
            if (result.component[v] != result.component[w])
                result.is_final[result.component[v]] = false;
        }
    }
    return result;
}

SccDecomposition condense(const ConfigurationGraph& graph) {
    return condense_edges(graph.successors);
}

StableComputationResult summarize_stable_computation(
    const std::vector<std::vector<ConfigId>>& successors,
    const std::vector<OutputSignature>& signatures) {
    require(successors.size() == signatures.size(),
            "summarize_stable_computation: one signature per configuration required");
    const SccDecomposition sccs = condense_edges(successors);

    StableComputationResult result;
    result.reachable_configurations = successors.size();
    result.always_converges = true;

    std::vector<std::optional<OutputSignature>> scc_signature(sccs.num_components);
    std::vector<bool> scc_uniform(sccs.num_components, true);
    for (ConfigId v = 0; v < successors.size(); ++v) {
        const std::uint32_t s = sccs.component[v];
        if (!sccs.is_final[s]) continue;
        if (!scc_signature[s]) {
            scc_signature[s] = signatures[v];
        } else if (*scc_signature[s] != signatures[v]) {
            scc_uniform[s] = false;
        }
    }

    for (std::uint32_t s = 0; s < sccs.num_components; ++s) {
        if (!sccs.is_final[s] || !scc_signature[s]) continue;
        if (!scc_uniform[s]) {
            result.always_converges = false;
            continue;
        }
        result.stable_signatures.push_back(*scc_signature[s]);
    }
    std::sort(result.stable_signatures.begin(), result.stable_signatures.end());
    result.stable_signatures.erase(
        std::unique(result.stable_signatures.begin(), result.stable_signatures.end()),
        result.stable_signatures.end());
    return result;
}

StableComputationResult analyze_stable_computation(const TabulatedProtocol& protocol,
                                                   const CountConfiguration& initial,
                                                   std::size_t max_configs) {
    const ConfigurationGraph graph = explore_reachable(protocol, initial, max_configs);
    require_complete(graph, "analyze_stable_computation");
    return summarize_stable_computation(
        graph, [&](const CountConfiguration& config) { return config.output_counts(protocol); });
}

bool stably_computes_integer_function(const TabulatedProtocol& protocol,
                                      const CountConfiguration& initial,
                                      const IntegerOutputConvention& convention,
                                      const std::vector<std::int64_t>& expected,
                                      std::size_t max_configs) {
    const StableComputationResult result =
        analyze_stable_computation(protocol, initial, max_configs);
    if (!result.always_converges || result.stable_signatures.empty()) return false;
    for (const OutputSignature& signature : result.stable_signatures)
        if (convention.decode(signature) != expected) return false;
    return true;
}

bool stably_computes_bool(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          bool expected, std::size_t max_configs) {
    require(protocol.num_output_symbols() == 2,
            "stably_computes_bool: protocol must have Boolean outputs");
    const StableComputationResult result =
        analyze_stable_computation(protocol, initial, max_configs);
    return result.consensus() == (expected ? kOutputTrue : kOutputFalse);
}

}  // namespace popproto
