// Stable-computation verification (Sect. 3.2, Lemma 1).
//
// A computation converges iff it reaches an output-stable configuration, and
// by Lemma 1 every fair computation ends up inside a *final* strongly
// connected component of the transition graph.  Hence a protocol stably
// computes output y on input x iff every final SCC reachable from I(x)
// consists of configurations with one common output signature, and that
// signature represents y.  This module decides exactly that by SCC
// condensation of the explored configuration graph.

#ifndef POPPROTO_ANALYSIS_STABLE_COMPUTATION_H
#define POPPROTO_ANALYSIS_STABLE_COMPUTATION_H

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/reachability.h"
#include "core/configuration.h"
#include "core/conventions.h"
#include "core/tabulated_protocol.h"

namespace popproto {

/// Per-output-symbol agent counts; the "output assignment modulo renaming".
using OutputSignature = std::vector<std::uint64_t>;

/// Result of analyzing all fair executions from one initial configuration.
struct StableComputationResult {
    /// True iff every fair computation converges, i.e. every reachable final
    /// SCC has one uniform output signature across its configurations.
    bool always_converges = false;

    /// The distinct signatures of the reachable final SCCs (each uniform SCC
    /// contributes one entry; a non-uniform SCC sets always_converges =
    /// false and contributes nothing).  Sorted and deduplicated.
    std::vector<OutputSignature> stable_signatures;

    /// Number of reachable configurations explored.
    std::size_t reachable_configurations = 0;

    /// Convenience: true iff always_converges and exactly one stable
    /// signature exists (single-valued stable computation).
    bool single_valued() const { return always_converges && stable_signatures.size() == 1; }

    /// If the computation is single-valued and all agents agree on one output
    /// symbol in the stable signature, that symbol; otherwise nullopt.
    /// This is the all-agents predicate output convention (Sect. 3.4).
    std::optional<Symbol> consensus() const;
};

/// Analyzes the transition graph below `initial` exactly.  Throws
/// std::runtime_error if the reachable set exceeds `max_configs`
/// (the verdict would otherwise be unsound).
StableComputationResult analyze_stable_computation(const TabulatedProtocol& protocol,
                                                   const CountConfiguration& initial,
                                                   std::size_t max_configs = 1u << 20);

/// True iff the protocol stably computes the Boolean value `expected` from
/// `initial` under the all-agents predicate output convention.
bool stably_computes_bool(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          bool expected, std::size_t max_configs = 1u << 20);

/// Exact function-computation check for the integer-based output convention
/// (Sect. 3.4): true iff every fair computation from `initial` converges and
/// every stable output signature decodes to `expected`.  Distinct stable
/// signatures are fine as long as their decodings agree (representative
/// independence).
bool stably_computes_integer_function(const TabulatedProtocol& protocol,
                                      const CountConfiguration& initial,
                                      const IntegerOutputConvention& convention,
                                      const std::vector<std::int64_t>& expected,
                                      std::size_t max_configs = 1u << 20);

/// Tarjan SCC condensation of a configuration graph.  Exposed for tests and
/// for reuse by other analyses.
struct SccDecomposition {
    /// component[c] = SCC index of configuration c (indices are in reverse
    /// topological order of the condensation: successors have lower index).
    std::vector<std::uint32_t> component;
    std::size_t num_components = 0;
    /// is_final[s] = true iff no edge leaves component s (Sect. 3.1 "final").
    std::vector<bool> is_final;
};

SccDecomposition condense(const ConfigurationGraph& graph);

/// Condensation of an arbitrary successor relation (nodes 0..n-1).  Used by
/// both the multiset analyzer and the explicit-graph analyzer.
SccDecomposition condense_edges(const std::vector<std::vector<ConfigId>>& successors);

/// Shared Lemma 1 verdict: given the successor relation and each node's
/// output signature, decides convergence and collects the stable signatures
/// of the final SCCs (see StableComputationResult).
StableComputationResult summarize_stable_computation(
    const std::vector<std::vector<ConfigId>>& successors,
    const std::vector<OutputSignature>& signatures);

/// The Lemma 1 verdict of a complete explored graph, with
/// `signature_of(config)` giving each configuration's output signature.
template <class Config, class SignatureOf>
StableComputationResult summarize_stable_computation(const ReachableGraph<Config>& graph,
                                                     const SignatureOf& signature_of) {
    std::vector<OutputSignature> signatures;
    signatures.reserve(graph.size());
    for (const Config& config : graph.configs) signatures.push_back(signature_of(config));
    return summarize_stable_computation(graph.successors, signatures);
}

}  // namespace popproto

#endif  // POPPROTO_ANALYSIS_STABLE_COMPUTATION_H
