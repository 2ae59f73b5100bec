// Time-varying interaction graphs.
//
// Theorem 7's machinery (src/graphs) assumes one fixed restricted graph.
// Real sensor deployments churn: links come and go as nodes move.
// DynamicGraphModel runs a piecewise schedule of edge sets — phase k is an
// explicit directed-edge list active for `phase_length` interactions, and
// the schedule cycles.  Within a phase an edge is activated uniformly at
// random (the same sampler as simulate_on_graph); across phases only the
// {phase index, step-within-phase} counters evolve, and those two words are
// what the checkpoint's interaction_model section records — so dynamic-graph
// runs checkpoint/resume bit-identically, including cuts mid-phase.

#ifndef POPPROTO_SCENARIOS_DYNAMIC_GRAPH_H
#define POPPROTO_SCENARIOS_DYNAMIC_GRAPH_H

#include <cstdint>
#include <utility>
#include <vector>

#include "core/interaction_model.h"
#include "graphs/interaction_graph.h"

namespace popproto {

class DynamicGraphModel {
public:
    static constexpr const char* kName = "dynamic_graph";
    /// Like the static graph engine: restricted edge sets make the multiset
    /// silence test a wasted effort (Theorem 7 protocols swap forever), so
    /// runs stop on output stability or budget.
    static constexpr bool kCanSilence = false;
    static constexpr bool kHasState = true;

    /// `phases[k]` is the directed-edge list active during phase k; phases
    /// cycle every `phase_length` interactions.  Requires at least one
    /// phase, every phase non-empty, every endpoint a distinct agent
    /// < num_agents, and phase_length >= 1.
    DynamicGraphModel(std::vector<std::vector<Edge>> phases, std::uint64_t phase_length,
                      std::uint64_t num_agents);

    const char* name() const { return kName; }
    std::uint64_t num_phases() const { return phases_.size(); }
    std::uint64_t phase() const { return phase_; }

    AgentPair propose_pair(Rng& rng, const std::vector<State>& states);

    void save_state(std::vector<std::uint64_t>& words) const;
    void restore_state(const std::vector<std::uint64_t>& words);

private:
    std::vector<std::vector<Edge>> phases_;
    std::uint64_t phase_length_ = 0;
    std::uint64_t phase_ = 0;          // active phase index
    std::uint64_t step_in_phase_ = 0;  // interactions served by this phase
};

static_assert(InteractionModel<DynamicGraphModel>);

}  // namespace popproto

#endif  // POPPROTO_SCENARIOS_DYNAMIC_GRAPH_H
