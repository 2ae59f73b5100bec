#include "core/interaction_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace popproto {

SupportSilenceTest::SupportSilenceTest(const TabulatedProtocol& protocol,
                                       const std::vector<std::uint64_t>& counts)
    : words_((protocol.num_states() + 63) / 64),
      partners_(protocol.num_states() * words_, 0),
      self_effective_(protocol.num_states(), 0),
      present_(words_, 0),
      level_(protocol.num_states(), 0) {
    const std::size_t num_states = protocol.num_states();
    for (State p = 0; p < num_states; ++p) {
        for (State q = 0; q < num_states; ++q) {
            if (!changes_multiset(p, q, protocol.apply_fast(p, q))) continue;
            if (p == q) {
                self_effective_[p] = 1;
                continue;
            }
            partners_[p * words_ + q / 64] |= std::uint64_t{1} << (q % 64);
            partners_[q * words_ + p / 64] |= std::uint64_t{1} << (p % 64);
        }
    }
    reset(counts);
}

void SupportSilenceTest::update(const std::vector<std::uint64_t>& counts, State p, State q,
                                StatePair next) {
    touch(p, counts[p]);
    touch(q, counts[q]);
    touch(next.initiator, counts[next.initiator]);
    touch(next.responder, counts[next.responder]);
}

void SupportSilenceTest::reset(const std::vector<std::uint64_t>& counts) {
    std::fill(present_.begin(), present_.end(), 0);
    std::fill(level_.begin(), level_.end(), 0);
    enabled_ = 0;
    for (State s = 0; s < level_.size(); ++s) touch(s, counts[s]);
}

void SupportSilenceTest::touch(State s, std::uint64_t count) {
    const auto level = static_cast<std::uint8_t>(count < 2 ? count : 2);
    const std::uint8_t old = level_[s];
    if (level == old) return;
    level_[s] = level;
    if (self_effective_[s] != 0) {
        if (old == 2) --enabled_;
        if (level == 2) ++enabled_;
    }
    if ((old == 0) == (level == 0)) return;  // present before and after
    // s is never its own partner, so its presence bit can flip first.
    present_[s / 64] ^= std::uint64_t{1} << (s % 64);
    const std::uint64_t* const partners = partners_.data() + s * words_;
    std::uint64_t enabled = 0;
    for (std::size_t w = 0; w < words_; ++w)
        enabled += static_cast<std::uint64_t>(std::popcount(partners[w] & present_[w]));
    if (level == 0)
        enabled_ -= enabled;
    else
        enabled_ += enabled;
}

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
