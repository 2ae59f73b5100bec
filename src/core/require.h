// Precondition / invariant checking helpers used across the library.
//
// We follow the guidelines' preference for exceptions over error codes
// (I.10, E.2): a violated precondition throws std::invalid_argument and a
// violated internal invariant throws std::logic_error.  Both carry the
// caller-supplied message.
//
// A check that passes never allocates: the message is taken as a
// std::string_view, and the std::string the exception carries is built only
// on the throwing path.  Engines check invariants on every step, so a
// literal-message call costs one predicted branch.  A message built by
// concatenation, however, is built before the call whether the check passes
// or not; inside a loop, test the condition first and build such a message
// only on the failing path:
//
//     for (const State q : states)
//         if (q >= num_states) throw std::invalid_argument(name + ": state out of range");

#ifndef POPPROTO_CORE_REQUIRE_H
#define POPPROTO_CORE_REQUIRE_H

#include <stdexcept>
#include <string>
#include <string_view>

namespace popproto {

/// Throws std::invalid_argument with `what` unless `condition` holds.
/// Use for preconditions on public interfaces.
inline void require(bool condition, std::string_view what) {
    if (!condition) throw std::invalid_argument(std::string(what));
}

/// Throws std::logic_error with `what` unless `condition` holds.
/// Use for internal invariants that indicate a library bug when violated.
inline void ensure(bool condition, std::string_view what) {
    if (!condition) throw std::logic_error(std::string(what));
}

}  // namespace popproto

#endif  // POPPROTO_CORE_REQUIRE_H
