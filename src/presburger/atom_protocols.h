// The two base protocols of Lemma 5.
//
// Under the symbol-count input convention (x_i = number of agents that read
// input symbol sigma_i), the following predicates are stably computable:
//
//   1. sum_i a_i x_i < c          (threshold protocol)
//   2. sum_i a_i x_i = c (mod m)  (remainder protocol), m >= 2
//
// Both use states (leader bit, output bit, count) exactly as in the paper:
// every agent starts as a leader carrying its coefficient; leaders merge
// pairwise; the surviving leader's count converges to the clamped sum
// (threshold) or the sum mod m (remainder) and distributes the verdict.
//
// One deliberate refinement: the initial output bit is set to the verdict of
// the agent's own coefficient rather than constant 0, so the protocols are
// also correct for a population of a single agent (which never interacts).
//
// Each atom is a rule over the index of its (leader, output, u) layout:
// make_*_rule evaluates delta on demand, make_*_protocol tabulates the rule
// over the whole layout, and compile_formula (presburger/compiler.h)
// evaluates it only on the states a run can reach.

#ifndef POPPROTO_PRESBURGER_ATOM_PROTOCOLS_H
#define POPPROTO_PRESBURGER_ATOM_PROTOCOLS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tabulated_protocol.h"

namespace popproto {

/// Lemma 5 case 1: stably computes [ sum_i coefficients[i] * x_i < constant ]
/// with the all-agents Boolean output convention.  States are
/// (leader, output, u) with u in [-s, s], s = max(|c| + 1, max_i |a_i|, 1),
/// numbered ((leader ? 2 : 0) + output) * (2s + 1) + (u + s).
std::unique_ptr<Protocol> make_threshold_rule(const std::vector<std::int64_t>& coefficients,
                                              std::int64_t constant);

/// Lemma 5 case 2: stably computes
/// [ sum_i coefficients[i] * x_i = remainder (mod modulus) ], modulus >= 2.
/// States are (leader, output, u) with u in [0, modulus), numbered
/// ((leader ? 2 : 0) + output) * modulus + u.
std::unique_ptr<Protocol> make_remainder_rule(const std::vector<std::int64_t>& coefficients,
                                              std::int64_t remainder, std::int64_t modulus);

/// make_threshold_rule tabulated over its whole layout.
std::unique_ptr<TabulatedProtocol> make_threshold_protocol(
    const std::vector<std::int64_t>& coefficients, std::int64_t constant);

/// make_remainder_rule tabulated over its whole layout.
std::unique_ptr<TabulatedProtocol> make_remainder_protocol(
    const std::vector<std::int64_t>& coefficients, std::int64_t remainder, std::int64_t modulus);

}  // namespace popproto

#endif  // POPPROTO_PRESBURGER_ATOM_PROTOCOLS_H
