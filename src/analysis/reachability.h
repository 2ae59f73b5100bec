// Exact reachability over configuration graphs.
//
// Because stably computable predicates are invariant under agent renaming
// (Theorem 1), a configuration of the standard population is fully described
// by its multiset of states, and the whole transition graph G(A, P_n)
// (Sect. 3.1) can be explored as a graph over count vectors.  This is the
// executable counterpart of the Theorem 6 argument that stable computation is
// decidable by reachability over |Q| counters of log n bits.
//
// Every exact analyzer shares one breadth-first explorer, `explore`: the
// pairwise, multiway and birth-death analyzers over count vectors and the
// explicit-graph analyzer over per-agent state vectors differ only in the
// successor rule they hand it (DESIGN.md "Exact analysis").

#ifndef POPPROTO_ANALYSIS_REACHABILITY_H
#define POPPROTO_ANALYSIS_REACHABILITY_H

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/configuration.h"
#include "core/tabulated_protocol.h"

namespace popproto {

/// Dense index of a configuration inside a ReachableGraph.
using ConfigId = std::uint32_t;

/// The reachable part of a transition graph from one initial configuration.
template <class Config>
struct ReachableGraph {
    /// Reachable configurations in discovery order; index 0 is the initial
    /// configuration.
    std::vector<Config> configs;

    /// successors[c] = distinct configurations reachable from configs[c] in
    /// one interaction, excluding c itself, sorted by id.
    std::vector<std::vector<ConfigId>> successors;

    /// True iff exploration finished within the configuration limit.  When
    /// false the graph is a partial prefix and must not be used for
    /// stable-computation verdicts.
    bool complete = true;

    std::size_t size() const { return configs.size(); }
};

/// The multiset configuration graph of a pairwise protocol.
using ConfigurationGraph = ReachableGraph<CountConfiguration>;

/// Breadth-first exploration of everything reachable from `initial`.
/// `successors_of(config, listed)` appends the configurations one
/// interaction leads to from `config`; duplicates and `config` itself are
/// allowed.  The explorer's contract:
///   * ids are discovery order: configurations are expanded in id order and
///     each listed successor not seen before takes the next id, so a rule
///     that lists in a fixed order gives the same ids, successor lists and
///     solver inputs on every run;
///   * successors[c] is sorted, deduplicated and drops c itself;
///   * the first newly discovered configuration that takes the count past
///     `max_configs` stops exploration with complete == false; the
///     configurations not yet expanded, the one being expanded included,
///     keep empty successor lists.  The caller reports it (each analyzer
///     throws its own named std::runtime_error).
template <class Config, class Hash, class SuccessorRule>
ReachableGraph<Config> explore(const Config& initial, std::size_t max_configs,
                               SuccessorRule&& successors_of) {
    ReachableGraph<Config> graph;
    std::unordered_map<Config, ConfigId, Hash> index;
    index.emplace(initial, 0);
    graph.configs.push_back(initial);

    std::vector<Config> listed;
    for (ConfigId current = 0; current < graph.size(); ++current) {
        listed.clear();
        successors_of(graph.configs[current], listed);
        std::vector<ConfigId> out_edges;
        for (Config& successor : listed) {
            if (successor == graph.configs[current]) continue;
            const auto [it, is_new] =
                index.try_emplace(std::move(successor), static_cast<ConfigId>(graph.size()));
            if (is_new) {
                graph.configs.push_back(it->first);
                if (graph.size() > max_configs) {
                    graph.complete = false;
                    graph.successors.resize(graph.size());
                    return graph;
                }
            }
            out_edges.push_back(it->second);
        }
        std::sort(out_edges.begin(), out_edges.end());
        out_edges.erase(std::unique(out_edges.begin(), out_edges.end()), out_edges.end());
        graph.successors.push_back(std::move(out_edges));
    }
    return graph;
}

/// Throws std::runtime_error naming `caller` unless `graph` is complete:
/// a verdict or solve over a partial graph would be unsound.
template <class Config>
void require_complete(const ReachableGraph<Config>& graph, const char* caller) {
    if (!graph.complete)
        throw std::runtime_error(std::string(caller) + ": reachable set exceeds max_configs");
}

/// The pairwise successor rule, shared by explore_reachable and the Markov
/// transition rows: calls visit(successor, p, q) for every ordered pair of
/// present states (p == q needing two agents) whose interaction changes the
/// multiset, in row-major (p, q) order.  Null interactions and swaps
/// (delta(p, q) = (q, p)) leave the multiset as it is and are skipped.
template <class Visit>
void for_each_pairwise_successor(const TabulatedProtocol& protocol,
                                 const CountConfiguration& config, Visit&& visit) {
    const std::vector<std::uint64_t>& counts = config.counts();
    for (State p = 0; p < counts.size(); ++p) {
        if (counts[p] == 0) continue;
        for (State q = 0; q < counts.size(); ++q) {
            if (counts[q] == 0 || (p == q && counts[p] < 2)) continue;
            const StatePair next = protocol.apply_fast(p, q);
            if ((next.initiator == p && next.responder == q) ||
                (next.initiator == q && next.responder == p))
                continue;
            CountConfiguration successor = config;
            successor.remove(p);
            successor.remove(q);
            successor.add(next.initiator);
            successor.add(next.responder);
            visit(std::move(successor), p, q);
        }
    }
}

/// Breadth-first exploration of all configurations reachable from `initial`
/// under `protocol`'s pairwise rule.  Stops (with complete == false) once
/// more than `max_configs` configurations have been discovered.
ConfigurationGraph explore_reachable(const TabulatedProtocol& protocol,
                                     const CountConfiguration& initial,
                                     std::size_t max_configs = 1u << 20);

}  // namespace popproto

#endif  // POPPROTO_ANALYSIS_REACHABILITY_H
