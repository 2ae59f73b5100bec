#include "scenarios/adversarial.h"

#include <algorithm>
#include <array>

#include "core/require.h"

namespace popproto {

namespace {

std::uint64_t checked_probe_window(std::uint64_t probe_window) {
    require(probe_window <= AdversarialCoverModel::kMaxProbeWindow,
            "AdversarialCoverModel: the probe window must be at most 65536 entries");
    return probe_window;
}

}  // namespace

AdversarialCoverModel::AdversarialCoverModel(const TabulatedProtocol& protocol,
                                             std::uint64_t num_agents,
                                             std::uint64_t probe_window)
    : protocol_(protocol),
      num_agents_(num_agents),
      num_pairs_(num_agents * (num_agents - 1)),
      probe_window_(std::min(checked_probe_window(probe_window), num_pairs_)),
      window_(std::max<std::uint64_t>(1, probe_window_)),
      cursor_(num_agents * (num_agents - 1)),  // first propose_pair keys an epoch
      filled_(cursor_),
      cursor_slot_(cursor_ % window_.size()),
      filled_slot_(cursor_slot_) {
    require(num_agents >= 2, "AdversarialCoverModel: need at least two agents");
    permutation_ = FeistelPermutation(
        num_pairs_, std::array<std::uint64_t, FeistelPermutation::kRounds>{});
}

void AdversarialCoverModel::place(Entry& slot, std::uint64_t value, bool displaced) {
    slot = {value, decode_ordered_pair(value, num_agents_), displaced};
}

void AdversarialCoverModel::fill_through(std::uint64_t end) {
    for (; filled_ < end; ++filled_) {
        place(window_[filled_slot_], permutation_(filled_), false);
        filled_slot_ = next_slot(filled_slot_);
    }
}

AgentPair AdversarialCoverModel::propose_pair(Rng& rng, const std::vector<State>& states) {
    if (cursor_ == num_pairs_) {
        // Fresh epoch: a new pseudorandom permutation of all ordered pairs,
        // keyed from the kernel stream (so checkpoints capture it exactly).
        permutation_.rekey(rng);
        cursor_ = filled_ = 0;
        cursor_slot_ = filled_slot_ = 0;
    }
    // Lazy-adaptive probe: prefer a null interaction from the next
    // probe_window entries of the epoch.  Swapping the found entry to the
    // cursor only reorders within the epoch, so the exactly-once-per-epoch
    // cover invariant (and with it fairness) is preserved.
    const std::uint64_t limit = std::min(cursor_ + probe_window_, num_pairs_);
    fill_through(std::max(limit, cursor_ + 1));
    Entry& head = window_[cursor_slot_];
    std::size_t slot = cursor_slot_;
    for (std::uint64_t k = cursor_; k < limit; ++k) {
        Entry& candidate = window_[slot];
        const State p = states[candidate.pair.first];
        const State q = states[candidate.pair.second];
        const StatePair next = protocol_.apply_fast(p, q);
        if (next.initiator == p && next.responder == q) {
            if (k != cursor_) {
                std::swap(head.value, candidate.value);
                std::swap(head.pair, candidate.pair);
                head.displaced = candidate.displaced = true;
            }
            break;
        }
        slot = next_slot(slot);
    }
    ++cursor_;
    cursor_slot_ = next_slot(cursor_slot_);
    return head.pair;
}

void AdversarialCoverModel::save_state(std::vector<std::uint64_t>& words) const {
    words.clear();
    words.reserve(2 + FeistelPermutation::kRounds + 2 * window_.size());
    words.push_back(cursor_);
    const auto& keys = permutation_.keys();
    words.insert(words.end(), keys.begin(), keys.end());
    // The displaced entries still ahead of the cursor, in position order
    // (the canonical serialization; the others are Feistel images).
    const std::size_t count_at = words.size();
    words.push_back(0);
    for (std::uint64_t pos = cursor_; pos < filled_; ++pos) {
        const Entry& slot = window_[pos % window_.size()];
        if (!slot.displaced) continue;
        words.push_back(pos);
        words.push_back(slot.value);
    }
    words[count_at] = (words.size() - count_at - 1) / 2;
}

void AdversarialCoverModel::restore_state(const std::vector<std::uint64_t>& words) {
    require(words.size() >= 2 + FeistelPermutation::kRounds,
            "adversarial: checkpoint model state has the wrong length");
    require(words[0] <= num_pairs_, "adversarial: checkpoint cursor out of range");
    const std::uint64_t num_live = words[1 + FeistelPermutation::kRounds];
    require(num_live <= probe_window_,
            "adversarial: checkpoint overlay larger than the probe window");
    require(words.size() == 2 + FeistelPermutation::kRounds + 2 * num_live,
            "adversarial: checkpoint model state has the wrong length");
    cursor_ = filled_ = words[0];
    cursor_slot_ = filled_slot_ = cursor_ % window_.size();
    std::array<std::uint64_t, FeistelPermutation::kRounds> keys;
    std::copy(words.begin() + 1, words.begin() + 1 + FeistelPermutation::kRounds, keys.begin());
    permutation_ = FeistelPermutation(num_pairs_, keys);
    fill_through(std::min(cursor_ + window_.size(), num_pairs_));
    for (std::uint64_t i = 0; i < num_live; ++i) {
        const std::uint64_t pos = words[2 + FeistelPermutation::kRounds + 2 * i];
        const std::uint64_t value = words[3 + FeistelPermutation::kRounds + 2 * i];
        require(pos >= cursor_ && pos < filled_ && value < num_pairs_,
                "adversarial: checkpoint overlay entry out of range");
        place(entry(pos), value, true);
    }
}

}  // namespace popproto
