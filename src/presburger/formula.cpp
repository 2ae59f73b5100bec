#include "presburger/formula.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/require.h"

namespace popproto {

struct Formula::Node {
    Kind kind;
    ThresholdAtom threshold;
    CongruenceAtom congruence;
    std::shared_ptr<const Node> left;
    std::shared_ptr<const Node> right;
};

Formula::Formula(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

Formula Formula::threshold(std::vector<std::int64_t> coefficients, std::int64_t constant) {
    require(!coefficients.empty(), "Formula::threshold: no variables");
    auto node = std::make_shared<Node>();
    node->kind = Kind::kThreshold;
    node->threshold = ThresholdAtom{std::move(coefficients), constant};
    return Formula(std::move(node));
}

Formula Formula::congruence(std::vector<std::int64_t> coefficients, std::int64_t remainder,
                            std::int64_t modulus) {
    require(!coefficients.empty(), "Formula::congruence: no variables");
    require(modulus >= 2, "Formula::congruence: modulus must be at least 2");
    auto node = std::make_shared<Node>();
    node->kind = Kind::kCongruence;
    node->congruence = CongruenceAtom{std::move(coefficients), remainder, modulus};
    return Formula(std::move(node));
}

Formula Formula::at_most(std::vector<std::int64_t> coefficients, std::int64_t constant) {
    require(constant < std::numeric_limits<std::int64_t>::max(),
            "Formula::at_most: constant + 1 overflows int64");
    return threshold(std::move(coefficients), constant + 1);
}

Formula Formula::at_least(std::vector<std::int64_t> coefficients, std::int64_t constant) {
    // sum >= c  <=>  -sum < -c + 1.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    require(constant > kMin + 1, "Formula::at_least: -constant + 1 overflows int64");
    std::vector<std::int64_t> negated(coefficients.size());
    std::transform(coefficients.begin(), coefficients.end(), negated.begin(), [](std::int64_t a) {
        require(a != kMin, "Formula::at_least: a negated coefficient overflows int64");
        return -a;
    });
    return threshold(std::move(negated), -constant + 1);
}

Formula Formula::equals(std::vector<std::int64_t> coefficients, std::int64_t constant) {
    // Build both atoms from explicit copies: argument evaluation order is
    // unspecified, so a move in one argument must not drain the other.
    Formula upper = at_most(coefficients, constant);
    Formula lower = at_least(std::move(coefficients), constant);
    return conjunction(std::move(upper), std::move(lower));
}

Formula Formula::conjunction(Formula left, Formula right) {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kAnd;
    node->left = std::move(left.node_);
    node->right = std::move(right.node_);
    return Formula(std::move(node));
}

Formula Formula::disjunction(Formula left, Formula right) {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kOr;
    node->left = std::move(left.node_);
    node->right = std::move(right.node_);
    return Formula(std::move(node));
}

Formula Formula::negation(Formula child) {
    auto node = std::make_shared<Node>();
    node->kind = Kind::kNot;
    node->left = std::move(child.node_);
    return Formula(std::move(node));
}

Formula::Kind Formula::kind() const { return node_->kind; }

const ThresholdAtom& Formula::threshold_atom() const {
    require(node_->kind == Kind::kThreshold, "Formula: not a threshold atom");
    return node_->threshold;
}

const CongruenceAtom& Formula::congruence_atom() const {
    require(node_->kind == Kind::kCongruence, "Formula: not a congruence atom");
    return node_->congruence;
}

Formula Formula::left() const {
    require(node_->kind == Kind::kAnd || node_->kind == Kind::kOr, "Formula: not binary");
    return Formula(node_->left);
}

Formula Formula::right() const {
    require(node_->kind == Kind::kAnd || node_->kind == Kind::kOr, "Formula: not binary");
    return Formula(node_->right);
}

Formula Formula::child() const {
    require(node_->kind == Kind::kNot, "Formula: not a negation");
    return Formula(node_->left);
}

std::size_t Formula::num_variables() const {
    switch (kind()) {
        case Kind::kThreshold:
            return threshold_atom().coefficients.size();
        case Kind::kCongruence:
            return congruence_atom().coefficients.size();
        case Kind::kAnd:
        case Kind::kOr:
            return std::max(left().num_variables(), right().num_variables());
        case Kind::kNot:
            return child().num_variables();
    }
    return 0;
}

bool Formula::evaluate(const std::vector<std::int64_t>& values) const {
    switch (kind()) {
        case Kind::kThreshold: {
            const ThresholdAtom& atom = threshold_atom();
            require(values.size() >= atom.coefficients.size(), "Formula::evaluate: too few values");
            std::int64_t sum = 0;
            for (std::size_t i = 0; i < atom.coefficients.size(); ++i)
                sum += atom.coefficients[i] * values[i];
            return sum < atom.constant;
        }
        case Kind::kCongruence: {
            const CongruenceAtom& atom = congruence_atom();
            require(values.size() >= atom.coefficients.size(), "Formula::evaluate: too few values");
            std::int64_t sum = 0;
            for (std::size_t i = 0; i < atom.coefficients.size(); ++i)
                sum += atom.coefficients[i] * values[i];
            const std::int64_t m = atom.modulus;
            const auto reduce = [m](std::int64_t v) { return ((v % m) + m) % m; };
            return reduce(sum) == reduce(atom.remainder);
        }
        case Kind::kAnd:
            return left().evaluate(values) && right().evaluate(values);
        case Kind::kOr:
            return left().evaluate(values) || right().evaluate(values);
        case Kind::kNot:
            return !child().evaluate(values);
    }
    ensure(false, "Formula::evaluate: unknown kind");
    return false;
}

std::size_t Formula::num_atoms() const {
    switch (kind()) {
        case Kind::kThreshold:
        case Kind::kCongruence:
            return 1;
        case Kind::kAnd:
        case Kind::kOr:
            return left().num_atoms() + right().num_atoms();
        case Kind::kNot:
            return child().num_atoms();
    }
    return 0;
}

Formula Formula::substitute_tokens(
    const std::vector<std::vector<std::int64_t>>& vectors) const {
    require(!vectors.empty(), "substitute_tokens: empty token alphabet");
    const std::size_t arity = vectors.front().size();
    for (const auto& vector : vectors)
        require(vector.size() == arity, "substitute_tokens: ragged token vectors");
    require(num_variables() <= arity, "substitute_tokens: vector arity too small");

    const auto substitute_coefficients = [&](const std::vector<std::int64_t>& coefficients) {
        std::vector<std::int64_t> result(vectors.size(), 0);
        for (std::size_t v = 0; v < vectors.size(); ++v)
            for (std::size_t j = 0; j < coefficients.size(); ++j)
                result[v] += coefficients[j] * vectors[v][j];
        return result;
    };

    switch (kind()) {
        case Kind::kThreshold: {
            const ThresholdAtom& atom = threshold_atom();
            return threshold(substitute_coefficients(atom.coefficients), atom.constant);
        }
        case Kind::kCongruence: {
            const CongruenceAtom& atom = congruence_atom();
            return congruence(substitute_coefficients(atom.coefficients), atom.remainder,
                              atom.modulus);
        }
        case Kind::kAnd:
            return conjunction(left().substitute_tokens(vectors),
                               right().substitute_tokens(vectors));
        case Kind::kOr:
            return disjunction(left().substitute_tokens(vectors),
                               right().substitute_tokens(vectors));
        case Kind::kNot:
            return negation(child().substitute_tokens(vectors));
    }
    ensure(false, "substitute_tokens: unknown kind");
    return *this;
}

namespace {

std::string linear_to_string(const std::vector<std::int64_t>& coefficients) {
    std::string text;
    bool first = true;
    for (std::size_t i = 0; i < coefficients.size(); ++i) {
        const std::int64_t a = coefficients[i];
        if (a == 0) continue;
        if (!first) text += (a > 0) ? " + " : " - ";
        if (first && a < 0) text += "-";
        const std::int64_t magnitude = a > 0 ? a : -a;
        if (magnitude != 1) text += std::to_string(magnitude) + " ";
        text += "x" + std::to_string(i);
        first = false;
    }
    if (first) text = "0";
    return text;
}

}  // namespace

std::string Formula::to_string() const {
    switch (kind()) {
        case Kind::kThreshold: {
            const ThresholdAtom& atom = threshold_atom();
            return "(" + linear_to_string(atom.coefficients) + " < " +
                   std::to_string(atom.constant) + ")";
        }
        case Kind::kCongruence: {
            const CongruenceAtom& atom = congruence_atom();
            return "(" + linear_to_string(atom.coefficients) + " = " +
                   std::to_string(atom.remainder) + " mod " + std::to_string(atom.modulus) + ")";
        }
        case Kind::kAnd:
            return "(" + left().to_string() + " & " + right().to_string() + ")";
        case Kind::kOr:
            return "(" + left().to_string() + " | " + right().to_string() + ")";
        case Kind::kNot:
            return "!" + child().to_string();
    }
    return "?";
}

}  // namespace popproto
