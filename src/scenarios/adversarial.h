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
// so the model's state is O(probe_window), not O(n^2): probe swaps, the
// only in-epoch mutations, only ever displace an entry by less than
// probe_window positions, so they live in a small ring-buffer overlay on
// top of the Feistel image until the cursor passes them.  The cursor, the
// round keys, and the live overlay serialize into the checkpoint's
// interaction_model section, so adversarial runs checkpoint/resume
// bit-identically — including cuts in the middle of an epoch.

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

    /// The model keeps a reference to `protocol` (it inspects deltas to
    /// find null interactions); the protocol must outlive the model.
    /// `probe_window` bounds the per-step look-ahead (0 disables probing,
    /// degenerating to a pure random-permutation cover).
    AdversarialCoverModel(const TabulatedProtocol& protocol, std::uint64_t num_agents,
                          std::uint64_t probe_window);

    const char* name() const { return kName; }
    std::uint64_t num_pairs() const { return num_pairs_; }

    AgentPair propose_pair(Rng& rng, const std::vector<State>& states);

    void save_state(std::vector<std::uint64_t>& words) const;
    void restore_state(const std::vector<std::uint64_t>& words);

private:
    /// One displaced permutation entry: epoch position `pos` holds pair
    /// index `value` instead of the Feistel image.  kEmpty marks a free
    /// slot (positions are < n(n-1) < 2^64).
    struct OverlayEntry {
        static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
        std::uint64_t pos = kEmpty;
        std::uint64_t value = 0;
    };

    std::uint64_t entry_at(std::uint64_t pos) const;
    void set_entry(std::uint64_t pos, std::uint64_t value);
    void clear_overlay();

    const TabulatedProtocol& protocol_;
    std::uint64_t num_agents_ = 0;
    std::uint64_t num_pairs_ = 0;
    std::uint64_t probe_window_ = 0;
    FeistelPermutation permutation_;  // this epoch's keys
    // Ring buffer (slot = pos % size) of live probe swaps; every live
    // entry's pos lies in [cursor_, cursor_ + probe_window), so
    // min(probe_window, num_pairs) slots never collide.
    std::vector<OverlayEntry> overlay_;
    std::uint64_t cursor_ = 0;  // == num_pairs forces a rekey (fresh epoch)
};

static_assert(InteractionModel<AdversarialCoverModel>);

}  // namespace popproto

#endif  // POPPROTO_SCENARIOS_ADVERSARIAL_H
