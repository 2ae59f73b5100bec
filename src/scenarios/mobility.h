// Grid mobility: passively mobile sensors made literal.
//
// The paper's motivating story is sensors "moved around by incompressible
// forces" — a flock of birds, not a complete graph.  GridMobilityModel
// simulates that physically: every agent performs an independent lazy
// random walk on a W x H torus, and an interaction happens between agents
// that come within Chebyshev distance `radius` of each other.
//
// One interaction = one or more *time ticks*: at each tick every agent
// takes one four-neighbour step (all moves drawn from the kernel RNG, in
// agent order), then the set of ordered proximate pairs is collected; if it
// is non-empty one of them is chosen uniformly, otherwise the walk
// continues.  Random walks on a finite torus meet with probability 1, so a
// pair is always eventually proposed, and every ordered pair recurs — the
// mobility analogue of fairness.
//
// The agent positions are the model's state (n words in the checkpoint's
// interaction_model section), so mobility runs checkpoint/resume
// bit-identically, mid-walk cuts included.

#ifndef POPPROTO_SCENARIOS_MOBILITY_H
#define POPPROTO_SCENARIOS_MOBILITY_H

#include <cstdint>
#include <vector>

#include "core/interaction_model.h"

namespace popproto {

class GridMobilityModel {
public:
    static constexpr const char* kName = "grid_mobility";
    static constexpr bool kCanSilence = true;
    static constexpr bool kHasState = true;

    /// Agents start spread row-major over the torus (agent a at cell
    /// a mod W*H).  Requires >= 2 agents and a torus of >= 2 cells;
    /// `radius` is the Chebyshev contact range (0 = same cell only).
    GridMobilityModel(std::uint64_t num_agents, std::uint64_t width, std::uint64_t height,
                      std::uint64_t radius);

    const char* name() const { return kName; }
    std::uint64_t width() const { return width_; }
    std::uint64_t height() const { return height_; }
    const std::vector<std::uint64_t>& positions() const { return positions_; }

    AgentPair propose_pair(Rng& rng, const std::vector<State>& states);

    void save_state(std::vector<std::uint64_t>& words) const;
    void restore_state(const std::vector<std::uint64_t>& words);

private:
    std::uint64_t width_ = 0;
    std::uint64_t height_ = 0;
    std::uint64_t radius_ = 0;
    std::vector<std::uint64_t> positions_;  // cell index y * width + x
    std::vector<AgentPair> contacts_;       // scratch, rebuilt per tick
    // Scratch cell index (intrusive per-cell chains), rebuilt per tick so
    // contact collection scans each agent's (2r+1)^2 neighbourhood instead
    // of all n^2 agent pairs.
    std::vector<std::uint64_t> cell_head_;      // first agent in cell, or kNoAgent
    std::vector<std::uint64_t> next_in_cell_;   // next agent in the same cell
};

static_assert(InteractionModel<GridMobilityModel>);

}  // namespace popproto

#endif  // POPPROTO_SCENARIOS_MOBILITY_H
