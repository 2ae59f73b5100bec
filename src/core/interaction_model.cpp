#include "core/interaction_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace popproto {

WeightedPairModel::WeightedPairModel(const std::vector<double>& weights) : weights_(weights) {
    require(weights_.size() >= 2, "WeightedPairModel: need at least two agents");
    total_weight_ = 0.0;
    cumulative_.resize(weights_.size());
    for (std::size_t i = 0; i < weights_.size(); ++i) {
        require(weights_[i] > 0.0 && std::isfinite(weights_[i]),
                "WeightedPairModel: weights must be positive");
        total_weight_ += weights_[i];
        cumulative_[i] = total_weight_;
    }
}

std::size_t WeightedPairModel::draw_agent(Rng& rng) const {
    const double u = rng.uniform01() * total_weight_;
    const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    // Floating-point rounding can push u past cumulative.back(), in which
    // case lower_bound returns end(); clamp to the last agent.
    const auto index = static_cast<std::size_t>(it - cumulative_.begin());
    return index < weights_.size() ? index : weights_.size() - 1;
}

// Draws an agent other than `exclude` exactly: u is drawn over the total
// mass minus the excluded weight and mapped around that agent's interval.
// Equivalent to rejection sampling, but O(log n) even when one weight
// dominates the total mass.
std::size_t WeightedPairModel::draw_agent_excluding(Rng& rng, std::size_t exclude) const {
    const std::size_t n = weights_.size();
    const double mass_before = cumulative_[exclude] - weights_[exclude];
    double u = rng.uniform01() * (total_weight_ - weights_[exclude]);
    if (u >= mass_before) u += weights_[exclude];
    const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    auto index = static_cast<std::size_t>(it - cumulative_.begin());
    if (index >= n) index = n - 1;
    if (index == exclude) index = exclude + 1 < n ? exclude + 1 : exclude - 1;
    return index;
}

EdgeListPairModel::EdgeListPairModel(
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges, std::uint64_t num_agents)
    : edges_(std::move(edges)) {
    require(!edges_.empty(), "EdgeListPairModel: need at least one edge");
    for (const auto& [from, to] : edges_)
        require(from != to && from < num_agents && to < num_agents,
                "EdgeListPairModel: edge endpoints must be distinct agents");
}

RoundRobinPairModel::RoundRobinPairModel(std::uint64_t num_agents)
    : num_agents_(num_agents), num_pairs_(num_agents * (num_agents - 1)) {
    require(num_agents >= 2, "round_robin: need at least two agents");
}

AgentPair RoundRobinPairModel::next_pair() {
    const AgentPair pair = decode_ordered_pair(cursor_, num_agents_);
    cursor_ = (cursor_ + 1) % num_pairs_;
    return pair;
}

void RoundRobinPairModel::save_state(std::vector<std::uint64_t>& words) const {
    words.assign({cursor_});
}

void RoundRobinPairModel::restore_state(const std::vector<std::uint64_t>& words) {
    require(words.size() == 1, "round_robin: checkpoint model state must be one cursor word");
    require(words[0] < num_pairs_, "round_robin: checkpoint cursor out of range");
    cursor_ = words[0];
}

SweepPairModel::SweepPairModel(std::uint64_t num_agents, std::uint64_t seed)
    : num_agents_(num_agents), num_pairs_(num_agents * (num_agents - 1)), rng_(seed) {
    require(num_agents >= 2, "sweep: need at least two agents");
    permutation_ = FeistelPermutation(num_pairs_, rng_);
}

AgentPair SweepPairModel::next_pair() {
    const AgentPair pair = decode_ordered_pair(permutation_(cursor_++), num_agents_);
    if (cursor_ == num_pairs_) {
        // Epoch boundary: a reshuffle is a rekey, eagerly (matching the
        // materialized implementation's eager reshuffle) so a checkpoint
        // cursor is always < num_pairs.
        permutation_.rekey(rng_);
        cursor_ = 0;
    }
    return pair;
}

void SweepPairModel::save_state(std::vector<std::uint64_t>& words) const {
    words.clear();
    words.reserve(5 + FeistelPermutation::kRounds);
    const Rng::StreamState stream = rng_.save_state();
    words.insert(words.end(), stream.words.begin(), stream.words.end());
    words.push_back(cursor_);
    const auto& keys = permutation_.keys();
    words.insert(words.end(), keys.begin(), keys.end());
}

void SweepPairModel::restore_state(const std::vector<std::uint64_t>& words) {
    require(words.size() == 5 + FeistelPermutation::kRounds,
            "sweep: checkpoint model state has the wrong length");
    Rng::StreamState stream;
    std::copy(words.begin(), words.begin() + 4, stream.words.begin());
    rng_.restore_state(stream);
    require(words[4] < num_pairs_, "sweep: checkpoint cursor out of range");
    cursor_ = words[4];
    std::array<std::uint64_t, FeistelPermutation::kRounds> keys;
    std::copy(words.begin() + 5, words.end(), keys.begin());
    permutation_ = FeistelPermutation(num_pairs_, keys);
}

}  // namespace popproto
