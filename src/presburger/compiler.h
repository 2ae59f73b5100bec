// The Theorem 5 / Corollary 3 compiler: Presburger formulas to protocols.
//
// Every quantifier-free formula over threshold and congruence atoms is
// compiled into the Lemma 3 product of its Lemma 5 atoms: a state is the
// tuple of the atoms' states, one per atom left to right, delta acts on each
// atom's state, and the output is the formula evaluated on the atoms' output
// bits (negation is the same tuple with its verdict flipped).  Only the
// closure of the input states under delta is built, breadth first, so no
// product and no whole atom is ever tabulated; the closure is every state a
// run of any size can reach.  Its states are numbered in the lexicographic
// order of their tuples, which is the order of the full product, so the
// result is the full product's table restricted to its reachable states.  A
// formula whose closure passes 2048 states is refused with
// std::invalid_argument before any |Q|^2 table exists.
//
// The resulting protocol stably computes the formula under the symbol-count
// input convention: input symbol sigma_i stands for variable x_i, and x_i is
// the number of agents that read sigma_i.
//
// compile_integer_convention additionally performs the Corollary 3
// translation: inputs are k-vectors of integers (one per agent) and the
// formula is evaluated on their population-wide sums.

#ifndef POPPROTO_PRESBURGER_COMPILER_H
#define POPPROTO_PRESBURGER_COMPILER_H

#include <memory>
#include <vector>

#include "core/tabulated_protocol.h"
#include "presburger/formula.h"

namespace popproto {

/// Compiles `formula` into a protocol with `num_input_symbols` input symbols
/// (default 0 = formula.num_variables()).  Extra symbols beyond the
/// formula's variables have coefficient 0 everywhere, i.e. they are counted
/// but do not influence the verdict.
std::unique_ptr<TabulatedProtocol> compile_formula(const Formula& formula,
                                                   std::size_t num_input_symbols = 0);

/// Corollary 3: compiles `formula` over variables y_1..y_k for the
/// integer-based input convention.  Each input symbol is one of
/// `token_vectors` (a k-vector of integers assigned to an agent); the
/// protocol stably computes formula(sum of assigned vectors).
std::unique_ptr<TabulatedProtocol> compile_integer_convention(
    const Formula& formula, const std::vector<std::vector<std::int64_t>>& token_vectors);

}  // namespace popproto

#endif  // POPPROTO_PRESBURGER_COMPILER_H
