#include "presburger/parser.h"

#include <cctype>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/require.h"

namespace popproto {

namespace {

/// A linear expression sum_i coefficients[i] x_i + constant.
struct Linear {
    std::vector<std::int64_t> coefficients;
    std::int64_t constant = 0;
};

/// Coefficient vector padded to at least one variable (atoms need one).
std::vector<std::int64_t> atom_coefficients(const Linear& linear) {
    std::vector<std::int64_t> coefficients = linear.coefficients;
    if (coefficients.empty()) coefficients.push_back(0);
    return coefficients;
}

class Parser {
public:
    /// Each variable becomes an input symbol of the compiled protocol, so a
    /// bound far above any real formula keeps an index from sizing memory.
    static constexpr std::size_t kMaxVariable = 65535;

    explicit Parser(const std::string& text) : text_(text) {}

    Formula parse() {
        Formula result = parse_formula();
        skip_spaces();
        if (position_ != text_.size()) fail("trailing input");
        return result;
    }

private:
    [[noreturn]] void fail(const std::string& message) const { fail_at(position_, message); }

    [[noreturn]] void fail_at(std::size_t at, const std::string& message) const {
        throw std::invalid_argument("parse_formula: " + message + " at position " +
                                    std::to_string(at) + " in \"" + text_ + "\"");
    }

    void skip_spaces() {
        while (position_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[position_])))
            ++position_;
    }

    bool consume(const std::string& token) {
        skip_spaces();
        if (text_.compare(position_, token.size(), token) != 0) return false;
        // Word tokens must not run into identifier characters.
        if (std::isalpha(static_cast<unsigned char>(token[0]))) {
            const std::size_t end = position_ + token.size();
            if (end < text_.size() &&
                std::isalnum(static_cast<unsigned char>(text_[end])))
                return false;
        }
        position_ += token.size();
        return true;
    }

    char peek() {
        skip_spaces();
        return position_ < text_.size() ? text_[position_] : '\0';
    }

    /// A non-negative decimal literal; fails (at its first digit) past int64.
    std::int64_t parse_integer() {
        skip_spaces();
        const std::size_t start = position_;
        std::int64_t value = 0;
        while (position_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[position_]))) {
            const std::int64_t digit = text_[position_] - '0';
            if (__builtin_mul_overflow(value, 10, &value) ||
                __builtin_add_overflow(value, digit, &value))
                fail_at(start, "integer literal out of int64 range");
            ++position_;
        }
        if (position_ == start) fail("expected an integer");
        return value;
    }

    /// a + b; an int64 overflow fails at position `at`.
    std::int64_t add(std::int64_t a, std::int64_t b, std::size_t at) const {
        std::int64_t sum;
        if (__builtin_add_overflow(a, b, &sum)) fail_at(at, "integer overflow");
        return sum;
    }

    /// a - b; an int64 overflow fails at position `at`.
    std::int64_t subtract(std::int64_t a, std::int64_t b, std::size_t at) const {
        std::int64_t difference;
        if (__builtin_sub_overflow(a, b, &difference)) fail_at(at, "integer overflow");
        return difference;
    }

    /// left - right, failing at position `at` (the comparison) on overflow.
    Linear subtract(const Linear& left, const Linear& right, std::size_t at) const {
        Linear result = left;
        if (result.coefficients.size() < right.coefficients.size())
            result.coefficients.resize(right.coefficients.size(), 0);
        for (std::size_t i = 0; i < right.coefficients.size(); ++i)
            result.coefficients[i] = subtract(result.coefficients[i], right.coefficients[i], at);
        result.constant = subtract(result.constant, right.constant, at);
        return result;
    }

    std::optional<std::size_t> try_parse_variable() {
        skip_spaces();
        if (position_ >= text_.size() || text_[position_] != 'x') return std::nullopt;
        if (position_ + 1 >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[position_ + 1])))
            return std::nullopt;
        ++position_;  // 'x'
        const std::size_t start = position_;
        const auto index = static_cast<std::size_t>(parse_integer());
        if (index > kMaxVariable)
            fail_at(start, "variable index past x" + std::to_string(kMaxVariable));
        return index;
    }

    /// term := integer ['*'] variable | integer | variable
    /// An int64 overflow of the running sums fails at the term's start.
    void parse_term(Linear& linear, std::int64_t sign) {
        skip_spaces();
        const std::size_t start = position_;
        if (std::isdigit(static_cast<unsigned char>(peek()))) {
            const std::int64_t value = sign * parse_integer();
            consume("*");
            if (!add_variable_term(linear, value, start))
                linear.constant = add(linear.constant, value, start);
            return;
        }
        if (!add_variable_term(linear, sign, start))
            fail("expected a term (integer, k*xN, or xN)");
    }

    /// Adds `coefficient` times the variable at the cursor to `linear`;
    /// false if no variable is there.
    bool add_variable_term(Linear& linear, std::int64_t coefficient, std::size_t start) {
        const std::optional<std::size_t> variable = try_parse_variable();
        if (!variable) return false;
        if (linear.coefficients.size() <= *variable) linear.coefficients.resize(*variable + 1, 0);
        linear.coefficients[*variable] = add(linear.coefficients[*variable], coefficient, start);
        return true;
    }

    Linear parse_linear() {
        Linear linear;
        std::int64_t sign = consume("-") ? -1 : 1;
        parse_term(linear, sign);
        for (;;) {
            if (consume("+")) {
                parse_term(linear, 1);
            } else if (consume("-")) {
                parse_term(linear, -1);
            } else {
                return linear;
            }
        }
    }

    Formula parse_atom() {
        const Linear left = parse_linear();

        // Normalizing to an atom fails at the comparison.
        skip_spaces();
        const std::size_t at = position_;
        Cmp cmp;
        if (consume("<=")) {
            cmp = Cmp::kLe;
        } else if (consume(">=")) {
            cmp = Cmp::kGe;
        } else if (consume("<")) {
            cmp = Cmp::kLt;
        } else if (consume(">")) {
            cmp = Cmp::kGt;
        } else if (consume("==") || consume("=")) {
            cmp = Cmp::kEq;
        } else if (consume("!=")) {
            cmp = Cmp::kNe;
        } else {
            fail("expected a comparison operator");
        }

        const Linear right = parse_linear();

        // Congruence form: linear = linear mod m.
        if (cmp == Cmp::kEq && consume("mod")) {
            const std::int64_t modulus = parse_integer();
            const Linear diff = subtract(left, right, at);
            // sum a_i x_i + c = 0 (mod m)  <=>  sum a_i x_i = -c (mod m).
            const std::int64_t remainder = subtract(0, diff.constant, at);
            return restate_at(at, [&] {
                return Formula::congruence(atom_coefficients(diff), remainder, modulus);
            });
        }

        // Normalize `left cmp right` to atoms over diff = left - right:
        // diff.coefficients . x  cmp  -diff.constant.
        const Linear diff = subtract(left, right, at);
        const std::int64_t bound = subtract(0, diff.constant, at);
        return restate_at(at, [&] { return comparison(cmp, atom_coefficients(diff), bound); });
    }

    /// Runs a Formula factory, restating its range errors at position `at`.
    template <class Build>
    Formula restate_at(std::size_t at, const Build& build) const {
        try {
            return build();
        } catch (const std::invalid_argument& error) {
            fail_at(at, error.what());
        }
    }

    enum class Cmp { kLt, kLe, kGt, kGe, kEq, kNe };

    static Formula comparison(Cmp cmp, const std::vector<std::int64_t>& coefficients,
                              std::int64_t bound) {
        switch (cmp) {
            case Cmp::kLt:
                return Formula::threshold(coefficients, bound);
            case Cmp::kLe:
                return Formula::at_most(coefficients, bound);
            case Cmp::kGt: {
                // sum > b  <=>  not (sum <= b).
                return Formula::negation(Formula::at_most(coefficients, bound));
            }
            case Cmp::kGe:
                return Formula::at_least(coefficients, bound);
            case Cmp::kEq:
                return Formula::equals(coefficients, bound);
            case Cmp::kNe:
                return Formula::negation(Formula::equals(coefficients, bound));
        }
        throw std::logic_error("parse_formula: unknown comparison");
    }

    Formula parse_unary() {
        if (consume("!")) return Formula::negation(parse_unary());
        if (consume("(")) {
            Formula inner = parse_formula();
            if (!consume(")")) fail("expected ')'");
            return inner;
        }
        return parse_atom();
    }

    Formula parse_conjunction() {
        Formula result = parse_unary();
        while (consume("&")) result = Formula::conjunction(result, parse_unary());
        return result;
    }

    Formula parse_formula() {
        Formula result = parse_conjunction();
        while (consume("|")) result = Formula::disjunction(result, parse_conjunction());
        return result;
    }

    const std::string& text_;
    std::size_t position_ = 0;
};

}  // namespace

Formula parse_formula(const std::string& text) {
    require(!text.empty(), "parse_formula: empty input");
    return Parser(text).parse();
}

}  // namespace popproto
