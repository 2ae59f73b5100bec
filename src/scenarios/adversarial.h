// Adversarial-but-fair pairing.
//
// The paper's fairness condition (Sect. 2) quantifies over *all* fair
// executions, but the uniform scheduler only samples the friendly ones.
// AdversarialCoverModel stress-tests a protocol against a worst-case-ish
// adversary that still provably satisfies bounded-delay cover fairness:
//
//   * time is divided into epochs of N = n(n-1) steps; each epoch plays a
//     fresh uniformly random permutation of all ordered pairs, so every
//     pair occurs exactly once per epoch and any window of 2N-1 consecutive
//     steps contains every ordered pair at least once (the cover bound);
//   * within an epoch the adversary is lazy-adaptive: before playing the
//     next pair it peeks up to `probe_window` upcoming entries and plays a
//     *null* interaction (one that leaves both agents unchanged under the
//     current configuration) when it can find one, delaying progress as
//     long as the cover invariant allows.
//
// The epoch permutation is lazy — a keyed Feistel bijection of the pair
// indices (core/feistel.h) rekeyed from the kernel RNG stream each epoch —
// so the model's state is O(probe_window), not O(n^2).  The model holds the
// probe window's current entries in one ring buffer: each epoch position's
// Feistel image and decoded agent pair are computed once, when the position
// enters the window, and probe swaps, the only in-epoch mutations, only
// ever exchange two entries inside the window.  The cursor, the round keys,
// and the displaced entries still ahead of the cursor serialize into the
// checkpoint's interaction_model section, so adversarial runs
// checkpoint/resume bit-identically — including cuts in the middle of an
// epoch.

#ifndef POPPROTO_SCENARIOS_ADVERSARIAL_H
#define POPPROTO_SCENARIOS_ADVERSARIAL_H

#include <cstdint>
#include <vector>

#include "core/feistel.h"
#include "core/interaction_model.h"
#include "core/tabulated_protocol.h"

namespace popproto {

class AdversarialCoverModel {
public:
    static constexpr const char* kName = "adversarial";
    static constexpr bool kCanSilence = true;
    static constexpr bool kHasState = true;

    /// The largest accepted `probe_window`: 65,536 entries, a 2 MB window.
    /// The window is allocated at that size, so a probe from outside input
    /// (a wire submit, a command line) is refused above it by name.
    static constexpr std::uint64_t kMaxProbeWindow = 65536;

    /// The model keeps a reference to `protocol` (it inspects deltas to
    /// find null interactions); the protocol must outlive the model.
    /// `probe_window` bounds the per-step look-ahead (0 disables probing,
    /// degenerating to a pure random-permutation cover); above
    /// kMaxProbeWindow it throws std::invalid_argument before allocating.
    AdversarialCoverModel(const TabulatedProtocol& protocol, std::uint64_t num_agents,
                          std::uint64_t probe_window);

    const char* name() const { return kName; }
    std::uint64_t num_pairs() const { return num_pairs_; }

    AgentPair propose_pair(Rng& rng, const std::vector<State>& states);

    void save_state(std::vector<std::uint64_t>& words) const;
    void restore_state(const std::vector<std::uint64_t>& words);

private:
    /// The current entry of one window position: pair index `value`
    /// (the Feistel image unless a probe swap displaced it) and its decoded
    /// agent pair.
    struct Entry {
        std::uint64_t value = 0;
        AgentPair pair{};
        bool displaced = false;
    };

    Entry& entry(std::uint64_t pos) { return window_[pos % window_.size()]; }
    /// Brings positions [filled_, end) into the window.
    void fill_through(std::uint64_t end);
    /// The ring slot after `slot`.
    std::size_t next_slot(std::size_t slot) const {
        return slot + 1 == window_.size() ? 0 : slot + 1;
    }
    /// Makes `slot` hold pair index `value`.
    void place(Entry& slot, std::uint64_t value, bool displaced);

    const TabulatedProtocol& protocol_;
    std::uint64_t num_agents_ = 0;
    std::uint64_t num_pairs_ = 0;
    std::uint64_t probe_window_ = 0;  // at most num_pairs_
    FeistelPermutation permutation_;  // this epoch's keys
    // Ring buffer (slot = pos % size) holding positions [cursor_, filled_),
    // filled_ <= cursor_ + size; the size is probe_window_, at least 1 for
    // the cursor's own entry.
    std::vector<Entry> window_;
    std::uint64_t cursor_ = 0;  // == num_pairs forces a rekey (fresh epoch)
    std::uint64_t filled_ = 0;
    // cursor_ % size and filled_ % size, kept without a division per step.
    std::size_t cursor_slot_ = 0;
    std::size_t filled_slot_ = 0;
};

static_assert(InteractionModel<AdversarialCoverModel>);

}  // namespace popproto

#endif  // POPPROTO_SCENARIOS_ADVERSARIAL_H
