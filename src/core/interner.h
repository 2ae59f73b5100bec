// Dense interning of structured state descriptions.
//
// Concrete protocols are most naturally described over structured state
// spaces (tuples of flags, counters, component states, ...).  StateInterner
// assigns each distinct description a dense State index on first sight and
// remembers the reverse mapping, so protocol constructors can enumerate their
// reachable structured states and hand the core a flat indexed state space.
// compile_formula (presburger/compiler.h) interns a predicate's reachable
// tuples of atom states this way.

#ifndef POPPROTO_CORE_INTERNER_H
#define POPPROTO_CORE_INTERNER_H

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/protocol.h"
#include "core/require.h"

namespace popproto {

/// Bidirectional map between values of `T` (hashed by `Hash`) and dense
/// State indices.  Insertion order determines the index.
template <typename T, typename Hash = std::hash<T>>
class StateInterner {
public:
    /// Returns the index of `value`, interning it if new.
    State intern(const T& value) {
        auto [it, inserted] = index_.try_emplace(value, static_cast<State>(values_.size()));
        if (inserted) values_.push_back(value);
        return it->second;
    }

    /// The value with index `q`.
    const T& value(State q) const {
        require(q < values_.size(), "StateInterner::value: index out of range");
        return values_[q];
    }

    std::size_t size() const { return values_.size(); }

private:
    std::unordered_map<T, State, Hash> index_;
    std::vector<T> values_;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_INTERNER_H
