#include "presburger/compiler.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/interner.h"
#include "core/require.h"
#include "presburger/atom_protocols.h"

namespace popproto {

namespace {

/// The most states a compiled predicate may reach.  Its delta table then
/// holds 2^22 pairs (32 MiB); the largest predicate a test, bench or example
/// compiles reaches 93.
constexpr std::size_t kMaxCompiledStates = std::size_t{1} << 11;

/// A compiled state: one Lemma 5 state per atom, atoms left to right.
using Tuple = std::vector<State>;

using Atoms = std::vector<std::unique_ptr<Protocol>>;

/// Hashes a tuple for the closure's interner.
struct TupleHash {
    std::size_t operator()(const Tuple& tuple) const {
        std::size_t h = 0;
        for (const State q : tuple) h = (h ^ q) * 0x9E3779B97F4A7C15ull;
        return h;
    }
};

std::vector<std::int64_t> padded(const std::vector<std::int64_t>& coefficients,
                                 std::size_t num_input_symbols) {
    std::vector<std::int64_t> result = coefficients;
    result.resize(num_input_symbols, 0);
    return result;
}

/// The rule of one atom.  An atom the rule factory refuses (an oversized
/// coefficient, constant or modulus) is refused under compile_formula's
/// name, with the atom: "compile_formula: atom (...): <reason>".
template <typename Make>
std::unique_ptr<Protocol> atom_rule(const Formula& atom, const Make& make) {
    try {
        return make();
    } catch (const std::invalid_argument& error) {
        const std::string what = error.what();  // "make_*_protocol: <reason>"
        const std::size_t reason = what.find(": ");
        throw std::invalid_argument(
            "compile_formula: atom " + atom.to_string() + ": " +
            (reason == std::string::npos ? what : what.substr(reason + 2)));
    }
}

/// Appends the rules of the formula's atoms, left to right.
void collect_atoms(const Formula& formula, std::size_t num_input_symbols, Atoms& atoms) {
    switch (formula.kind()) {
        case Formula::Kind::kThreshold: {
            const ThresholdAtom& atom = formula.threshold_atom();
            atoms.push_back(atom_rule(formula, [&] {
                return make_threshold_rule(padded(atom.coefficients, num_input_symbols),
                                           atom.constant);
            }));
            return;
        }
        case Formula::Kind::kCongruence: {
            const CongruenceAtom& atom = formula.congruence_atom();
            atoms.push_back(atom_rule(formula, [&] {
                return make_remainder_rule(padded(atom.coefficients, num_input_symbols),
                                           atom.remainder, atom.modulus);
            }));
            return;
        }
        case Formula::Kind::kAnd:
        case Formula::Kind::kOr:
            collect_atoms(formula.left(), num_input_symbols, atoms);
            collect_atoms(formula.right(), num_input_symbols, atoms);
            return;
        case Formula::Kind::kNot:
            collect_atoms(formula.child(), num_input_symbols, atoms);
            return;
    }
}

/// The formula's verdict on the outputs of `tuple`'s atoms, and the name the
/// Lemma 3 product gives `tuple`: "<left|right>" at each binary connective,
/// the child's name under a negation.  `atom` indexes the formula's first
/// atom and advances past its last.
std::pair<bool, std::string> describe(const Formula& formula, const Atoms& atoms,
                                      const Tuple& tuple, std::size_t& atom) {
    switch (formula.kind()) {
        case Formula::Kind::kThreshold:
        case Formula::Kind::kCongruence: {
            const State q = tuple[atom];
            const Protocol& rule = *atoms[atom++];
            return {rule.output(q) == kOutputTrue, rule.state_name(q)};
        }
        case Formula::Kind::kAnd:
        case Formula::Kind::kOr: {
            const auto [left, left_name] = describe(formula.left(), atoms, tuple, atom);
            const auto [right, right_name] = describe(formula.right(), atoms, tuple, atom);
            return {formula.kind() == Formula::Kind::kAnd ? left && right : left || right,
                    "<" + left_name + "|" + right_name + ">"};
        }
        case Formula::Kind::kNot: {
            auto [verdict, name] = describe(formula.child(), atoms, tuple, atom);
            return {!verdict, std::move(name)};
        }
    }
    ensure(false, "compile_formula: unknown formula kind");
    return {};
}

}  // namespace

std::unique_ptr<TabulatedProtocol> compile_formula(const Formula& formula,
                                                   std::size_t num_input_symbols) {
    const std::size_t variables = formula.num_variables();
    if (num_input_symbols == 0) num_input_symbols = variables;
    require(num_input_symbols >= variables,
            "compile_formula: fewer input symbols than formula variables");
    Atoms atoms;
    collect_atoms(formula, num_input_symbols, atoms);

    // Delta acts on each atom's state of the tuple.
    Tuple initiator(atoms.size());
    Tuple responder(atoms.size());
    const auto apply = [&](const Tuple& p, const Tuple& q) {
        for (std::size_t i = 0; i < atoms.size(); ++i) {
            const StatePair next = atoms[i]->apply(p[i], q[i]);
            initiator[i] = next.initiator;
            responder[i] = next.responder;
        }
    };

    // The closure of the input states under delta, breadth first: every
    // state that a run of any size reaches, and no other.  Each new tuple
    // meets every known tuple in both orders, so row a of `delta` fills in
    // column order: delta[a][b] = delta(a, b) in discovery numbering.
    StateInterner<Tuple, TupleHash> closure;
    std::vector<std::vector<StatePair>> delta;
    const auto intern = [&closure, &delta](const Tuple& tuple) {
        const State q = closure.intern(tuple);
        if (closure.size() > kMaxCompiledStates)
            throw std::invalid_argument("compile_formula: the predicate reaches more than " +
                                        std::to_string(kMaxCompiledStates) + " states");
        delta.resize(closure.size());
        return q;
    };
    const auto visit = [&](State a, State b) {
        apply(closure.value(a), closure.value(b));
        const StatePair next{intern(initiator), intern(responder)};
        delta[a].push_back(next);
    };
    std::vector<State> inputs;
    for (Symbol x = 0; x < num_input_symbols; ++x) {
        for (std::size_t i = 0; i < atoms.size(); ++i) initiator[i] = atoms[i]->initial_state(x);
        inputs.push_back(intern(initiator));
    }
    for (State p = 0; p < closure.size(); ++p) {
        for (State q = 0; q < p; ++q) {
            visit(p, q);
            visit(q, p);
        }
        visit(p, p);
    }

    // Lexicographic order of the tuples is the Lemma 3 product's mixed-radix
    // order (leftmost atom most significant), so the table is the product's
    // restricted to its reachable states, in the product's order.
    std::vector<State> order(closure.size());
    std::iota(order.begin(), order.end(), State{0});
    std::sort(order.begin(), order.end(),
              [&closure](State a, State b) { return closure.value(a) < closure.value(b); });
    std::vector<State> rank(order.size());
    for (State r = 0; r < order.size(); ++r) rank[order[r]] = r;

    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.output_names = {"false", "true"};
    for (Symbol x = 0; x < num_input_symbols; ++x) {
        tables.initial.push_back(rank[inputs[x]]);
        tables.input_names.push_back(atoms.front()->input_name(x));
    }
    for (const State q : order) {
        std::size_t atom = 0;
        auto [verdict, name] = describe(formula, atoms, closure.value(q), atom);
        tables.output.push_back(verdict ? kOutputTrue : kOutputFalse);
        tables.state_names.push_back(std::move(name));
    }
    tables.delta.reserve(order.size() * order.size());
    for (const State p : order) {
        for (const State q : order) {
            const StatePair next = delta[p][q];
            tables.delta.push_back({rank[next.initiator], rank[next.responder]});
        }
    }
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

std::unique_ptr<TabulatedProtocol> compile_integer_convention(
    const Formula& formula, const std::vector<std::vector<std::int64_t>>& token_vectors) {
    const Formula substituted = formula.substitute_tokens(token_vectors);
    return compile_formula(substituted, token_vectors.size());
}

}  // namespace popproto
