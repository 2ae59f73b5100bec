#include "presburger/atom_protocols.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "core/require.h"

namespace popproto {

namespace {

/// Shared layout for both atom protocols: state = (leader, output, slot)
/// where slot ranges over `num_slots` count values.
struct AtomLayout {
    std::int64_t num_slots;

    State encode(bool leader, bool output, std::int64_t slot) const {
        return static_cast<State>(((leader ? 2 : 0) + (output ? 1 : 0)) * num_slots + slot);
    }
    bool leader(State q) const { return q / num_slots >= 2; }
    bool output(State q) const { return (q / num_slots) % 2 == 1; }
    std::int64_t slot(State q) const { return static_cast<std::int64_t>(q) % num_slots; }
    std::size_t num_states() const { return static_cast<std::size_t>(4 * num_slots); }
};

/// The most slots whose 4 * num_slots states still fit a State.
constexpr std::uint64_t kMaxSlots = (std::uint64_t{std::numeric_limits<State>::max()} + 1) / 4 - 1;

/// |v|, exact for every int64 (|INT64_MIN| = 2^63 fits in 64 unsigned bits).
std::uint64_t magnitude(std::int64_t v) {
    return v >= 0 ? static_cast<std::uint64_t>(v) : -static_cast<std::uint64_t>(v);
}

std::vector<std::string> input_symbol_names(std::size_t count) {
    std::vector<std::string> names;
    names.reserve(count);
    for (std::size_t i = 0; i < count; ++i) names.push_back("sigma" + std::to_string(i));
    return names;
}

}  // namespace

std::unique_ptr<TabulatedProtocol> make_threshold_protocol(
    const std::vector<std::int64_t>& coefficients, std::int64_t constant) {
    require(!coefficients.empty(), "make_threshold_protocol: no input symbols");

    std::uint64_t radius = magnitude(constant) + 1;
    for (std::int64_t a : coefficients) radius = std::max(radius, magnitude(a));
    require(radius <= (kMaxSlots - 1) / 2,
            "make_threshold_protocol: coefficients or constant too large for a state table");
    const auto s = static_cast<std::int64_t>(radius);

    const AtomLayout layout{2 * s + 1};  // slot = u + s, u in [-s, s]
    const auto u_of_slot = [s](std::int64_t slot) { return slot - s; };
    const auto slot_of_u = [s](std::int64_t u) { return u + s; };
    const auto clamp = [s](std::int64_t v) { return std::max(-s, std::min(s, v)); };

    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.output_names = {"false", "true"};
    tables.input_names = input_symbol_names(coefficients.size());

    tables.output.resize(layout.num_states());
    tables.state_names.resize(layout.num_states());
    for (State q = 0; q < layout.num_states(); ++q) {
        tables.output[q] = layout.output(q) ? kOutputTrue : kOutputFalse;
        tables.state_names[q] = std::string(layout.leader(q) ? "L" : "-") +
                                (layout.output(q) ? "1" : "0") + "," +
                                std::to_string(u_of_slot(layout.slot(q)));
    }

    for (std::int64_t a : coefficients) {
        // I(sigma_i) = (leader, [a_i < c]-ish initial verdict, a_i).
        const bool initial_output = clamp(a) < constant;
        tables.initial.push_back(layout.encode(true, initial_output, slot_of_u(a)));
    }

    tables.delta.resize(layout.num_states() * layout.num_states());
    for (State p = 0; p < layout.num_states(); ++p) {
        for (State q = 0; q < layout.num_states(); ++q) {
            StatePair result{p, q};
            if (layout.leader(p) || layout.leader(q)) {
                const std::int64_t sum = u_of_slot(layout.slot(p)) + u_of_slot(layout.slot(q));
                const std::int64_t merged = clamp(sum);
                const std::int64_t rest = sum - merged;
                const bool verdict = merged < constant;
                result.initiator = layout.encode(true, verdict, slot_of_u(merged));
                result.responder = layout.encode(false, verdict, slot_of_u(rest));
            }
            tables.delta[static_cast<std::size_t>(p) * layout.num_states() + q] = result;
        }
    }
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

std::unique_ptr<TabulatedProtocol> make_remainder_protocol(
    const std::vector<std::int64_t>& coefficients, std::int64_t remainder, std::int64_t modulus) {
    require(!coefficients.empty(), "make_remainder_protocol: no input symbols");
    require(modulus >= 2, "make_remainder_protocol: modulus must be at least 2");
    require(static_cast<std::uint64_t>(modulus) <= kMaxSlots,
            "make_remainder_protocol: modulus too large for a state table");

    const auto reduce = [modulus](std::int64_t v) { return ((v % modulus) + modulus) % modulus; };
    const std::int64_t target = reduce(remainder);

    const AtomLayout layout{modulus};  // slot = u in [0, modulus)

    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.output_names = {"false", "true"};
    tables.input_names = input_symbol_names(coefficients.size());

    tables.output.resize(layout.num_states());
    tables.state_names.resize(layout.num_states());
    for (State q = 0; q < layout.num_states(); ++q) {
        tables.output[q] = layout.output(q) ? kOutputTrue : kOutputFalse;
        tables.state_names[q] = std::string(layout.leader(q) ? "L" : "-") +
                                (layout.output(q) ? "1" : "0") + "," +
                                std::to_string(layout.slot(q));
    }

    for (std::int64_t a : coefficients) {
        const std::int64_t u = reduce(a);
        tables.initial.push_back(layout.encode(true, u == target, u));
    }

    tables.delta.resize(layout.num_states() * layout.num_states());
    for (State p = 0; p < layout.num_states(); ++p) {
        for (State q = 0; q < layout.num_states(); ++q) {
            StatePair result{p, q};
            if (layout.leader(p) || layout.leader(q)) {
                const std::int64_t merged = reduce(layout.slot(p) + layout.slot(q));
                const bool verdict = merged == target;
                result.initiator = layout.encode(true, verdict, merged);
                result.responder = layout.encode(false, verdict, 0);
            }
            tables.delta[static_cast<std::size_t>(p) * layout.num_states() + q] = result;
        }
    }
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

}  // namespace popproto
