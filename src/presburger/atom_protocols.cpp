#include "presburger/atom_protocols.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "core/require.h"

namespace popproto {

namespace {

/// The most slots whose 4 * num_slots states still fit a State.
constexpr std::uint64_t kMaxSlots = (std::uint64_t{std::numeric_limits<State>::max()} + 1) / 4 - 1;

/// |v|, exact for every int64 (|INT64_MIN| = 2^63 fits in 64 unsigned bits).
std::uint64_t magnitude(std::int64_t v) {
    return v >= 0 ? static_cast<std::uint64_t>(v) : -static_cast<std::uint64_t>(v);
}

/// A Lemma 5 atom over states ((leader ? 2 : 0) + output) * num_slots + slot
/// with count u = slot - offset.  Two followers never change; otherwise the
/// counts' sum is split into the leader's and the follower's new counts, and
/// both take the verdict on the leader's count.
class AtomRule final : public Protocol {
public:
    /// (leader's count, follower's count) for a sum of counts.
    using Split = std::function<std::pair<std::int64_t, std::int64_t>(std::int64_t)>;
    /// The verdict on a leader's count.
    using Accepts = std::function<bool(std::int64_t)>;

    /// Agents start as leaders carrying split(coefficient).first.
    AtomRule(std::int64_t num_slots, std::int64_t offset,
             const std::vector<std::int64_t>& coefficients, Split split, Accepts accepts)
        : num_slots_(num_slots), offset_(offset), split_(std::move(split)),
          accepts_(std::move(accepts)) {
        for (const std::int64_t a : coefficients) initial_.push_back(leader_state(split_(a).first));
    }

    std::size_t num_states() const override { return static_cast<std::size_t>(4 * num_slots_); }
    std::size_t num_input_symbols() const override { return initial_.size(); }
    std::size_t num_output_symbols() const override { return 2; }

    State initial_state(Symbol x) const override {
        require(x < initial_.size(), "atom rule: input symbol out of range");
        return initial_[x];
    }

    Symbol output(State q) const override {
        return (q / num_slots_) % 2 == 1 ? kOutputTrue : kOutputFalse;
    }

    StatePair apply(State p, State q) const override {
        if (!leader(p) && !leader(q)) return {p, q};
        const auto [kept, rest] = split_(u(p) + u(q));
        const State next = leader_state(kept);
        return {next, encode(false, output(next) == kOutputTrue, rest)};
    }

    std::string state_name(State q) const override {
        return std::string(leader(q) ? "L" : "-") + (output(q) == kOutputTrue ? "1" : "0") + "," +
               std::to_string(u(q));
    }

    std::string input_name(Symbol x) const override { return "sigma" + std::to_string(x); }
    std::string output_name(Symbol y) const override { return y == kOutputTrue ? "true" : "false"; }

private:
    bool leader(State q) const { return q / num_slots_ >= 2; }
    std::int64_t u(State q) const { return static_cast<std::int64_t>(q % num_slots_) - offset_; }

    State encode(bool leader, bool output, std::int64_t u) const {
        return static_cast<State>(((leader ? 2 : 0) + (output ? 1 : 0)) * num_slots_ + u +
                                  offset_);
    }
    State leader_state(std::int64_t u) const { return encode(true, accepts_(u), u); }

    std::int64_t num_slots_;
    std::int64_t offset_;
    Split split_;
    Accepts accepts_;
    std::vector<State> initial_;
};

}  // namespace

std::unique_ptr<Protocol> make_threshold_rule(const std::vector<std::int64_t>& coefficients,
                                              std::int64_t constant) {
    require(!coefficients.empty(), "make_threshold_protocol: no input symbols");

    std::uint64_t radius = magnitude(constant) + 1;
    for (std::int64_t a : coefficients) radius = std::max(radius, magnitude(a));
    require(radius <= (kMaxSlots - 1) / 2,
            "make_threshold_protocol: coefficients or constant too large for a state table");
    const auto s = static_cast<std::int64_t>(radius);

    // The leader keeps the sum clamped to [-s, s] and hands the excess on.
    return std::make_unique<AtomRule>(
        2 * s + 1, s, coefficients,
        [s](std::int64_t sum) {
            const std::int64_t kept = std::max(-s, std::min(s, sum));
            return std::pair{kept, sum - kept};
        },
        [constant](std::int64_t u) { return u < constant; });
}

std::unique_ptr<Protocol> make_remainder_rule(const std::vector<std::int64_t>& coefficients,
                                              std::int64_t remainder, std::int64_t modulus) {
    require(!coefficients.empty(), "make_remainder_protocol: no input symbols");
    require(modulus >= 2, "make_remainder_protocol: modulus must be at least 2");
    require(static_cast<std::uint64_t>(modulus) <= kMaxSlots,
            "make_remainder_protocol: modulus too large for a state table");

    const auto reduce = [modulus](std::int64_t v) { return ((v % modulus) + modulus) % modulus; };
    const std::int64_t target = reduce(remainder);

    // The leader keeps the sum mod m; the follower's count drops to 0.
    return std::make_unique<AtomRule>(
        modulus, 0, coefficients,
        [reduce](std::int64_t sum) { return std::pair{reduce(sum), std::int64_t{0}}; },
        [target](std::int64_t u) { return u == target; });
}

std::unique_ptr<TabulatedProtocol> make_threshold_protocol(
    const std::vector<std::int64_t>& coefficients, std::int64_t constant) {
    return TabulatedProtocol::tabulate(*make_threshold_rule(coefficients, constant));
}

std::unique_ptr<TabulatedProtocol> make_remainder_protocol(
    const std::vector<std::int64_t>& coefficients, std::int64_t remainder, std::int64_t modulus) {
    return TabulatedProtocol::tabulate(*make_remainder_rule(coefficients, remainder, modulus));
}

}  // namespace popproto
