// The Presburger formula text parser.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "presburger/parser.h"

namespace popproto {
namespace {

/// Checks that `text` parses and agrees with `expected` on a grid of small
/// non-negative assignments.
void expect_equivalent(const std::string& text, const Formula& expected,
                       std::size_t variables) {
    const Formula parsed = parse_formula(text);
    std::vector<std::int64_t> values(variables, 0);
    const std::function<void(std::size_t)> sweep = [&](std::size_t index) {
        if (index == variables) {
            EXPECT_EQ(parsed.evaluate(values), expected.evaluate(values))
                << text << " at x=(" << values[0] << ",...)";
            return;
        }
        for (std::int64_t v = 0; v <= 4; ++v) {
            values[index] = v;
            sweep(index + 1);
        }
    };
    sweep(0);
}

TEST(Parser, SimpleThreshold) {
    expect_equivalent("x0 < 3", Formula::threshold({1}, 3), 1);
    expect_equivalent("2*x0 - x1 < 3", Formula::threshold({2, -1}, 3), 2);
    expect_equivalent("2 x0 - x1 < 3", Formula::threshold({2, -1}, 3), 2);
}

TEST(Parser, ComparisonDirections) {
    expect_equivalent("x0 <= 2", Formula::at_most({1}, 2), 1);
    expect_equivalent("x0 >= 2", Formula::at_least({1}, 2), 1);
    expect_equivalent("x0 > 2", Formula::negation(Formula::at_most({1}, 2)), 1);
    expect_equivalent("x0 = 2", Formula::equals({1}, 2), 1);
    expect_equivalent("x0 == 2", Formula::equals({1}, 2), 1);
    expect_equivalent("x0 != 2", Formula::negation(Formula::equals({1}, 2)), 1);
}

TEST(Parser, ConstantsOnBothSides) {
    // x0 + 1 < x1 + 3  <=>  x0 - x1 < 2.
    expect_equivalent("x0 + 1 < x1 + 3", Formula::threshold({1, -1}, 2), 2);
    // 5 < x0 means x0 > 5.
    expect_equivalent("5 < x0", Formula::negation(Formula::at_most({1}, 5)), 1);
}

TEST(Parser, LeadingMinusAndRepeatedVariables) {
    expect_equivalent("-x0 + x0 + x1 < 2", Formula::threshold({0, 1}, 2), 2);
    expect_equivalent("-2*x1 < 0", Formula::threshold({0, -2}, 0), 2);
}

TEST(Parser, Congruence) {
    expect_equivalent("x0 = 1 mod 3", Formula::congruence({1}, 1, 3), 1);
    expect_equivalent("x0 - 2 x1 = 0 mod 3", Formula::congruence({1, -2}, 0, 3), 2);
    // Constants fold into the residue: x0 + 1 = 0 mod 2 <=> x0 = 1 mod 2.
    expect_equivalent("x0 + 1 = 0 mod 2", Formula::congruence({1}, 1, 2), 1);
    // Both sides: x0 = x1 mod 2 <=> x0 - x1 = 0 mod 2.
    expect_equivalent("x0 = x1 mod 2", Formula::congruence({1, -1}, 0, 2), 2);
}

TEST(Parser, BooleanStructureAndPrecedence) {
    // & binds tighter than |.
    const Formula expected = Formula::disjunction(
        Formula::conjunction(Formula::threshold({1}, 1), Formula::threshold({0, 1}, 1)),
        Formula::at_least({1, 1}, 5));
    expect_equivalent("x0 < 1 & x1 < 1 | x0 + x1 >= 5", expected, 2);

    expect_equivalent("!(x0 < 2)", Formula::negation(Formula::threshold({1}, 2)), 1);
    expect_equivalent("!!(x0 < 2)",
                      Formula::negation(Formula::negation(Formula::threshold({1}, 2))), 1);
    expect_equivalent("(x0 < 2) & ((x1 < 1) | (x0 = 0 mod 2))",
                      Formula::conjunction(
                          Formula::threshold({1}, 2),
                          Formula::disjunction(Formula::threshold({0, 1}, 1),
                                               Formula::congruence({1}, 0, 2))),
                      2);
}

TEST(Parser, PaperFeverPredicate) {
    // 20 x1 >= x0 + x1 is the Sect. 4.2 example.
    const Formula parsed = parse_formula("20 x1 >= x0 + x1");
    const Formula expected = Formula::at_least({-1, 19}, 0);
    for (std::int64_t x0 = 0; x0 <= 25; ++x0)
        for (std::int64_t x1 = 0; x1 <= 3; ++x1)
            EXPECT_EQ(parsed.evaluate({x0, x1}), expected.evaluate({x0, x1}))
                << x0 << "," << x1;
}

TEST(Parser, RoundTripsThroughToString) {
    for (const std::string text :
         {"x0 - 19 x1 < 1", "(x0 < 3) & !(x1 = 0 mod 2)", "x0 + x1 >= 4 | x0 = 2 mod 5"}) {
        const Formula once = parse_formula(text);
        const Formula twice = parse_formula(once.to_string());
        for (std::int64_t a = 0; a <= 5; ++a)
            for (std::int64_t b = 0; b <= 5; ++b)
                EXPECT_EQ(once.evaluate({a, b}), twice.evaluate({a, b})) << text;
    }
}

TEST(Parser, Errors) {
    EXPECT_THROW(parse_formula(""), std::invalid_argument);
    EXPECT_THROW(parse_formula("x0"), std::invalid_argument);           // no comparison
    EXPECT_THROW(parse_formula("x0 < "), std::invalid_argument);        // missing rhs
    EXPECT_THROW(parse_formula("x0 < 3 x1 < 4"), std::invalid_argument);  // trailing input
    EXPECT_THROW(parse_formula("(x0 < 3"), std::invalid_argument);      // unbalanced paren
    EXPECT_THROW(parse_formula("y0 < 3"), std::invalid_argument);       // unknown identifier
    EXPECT_THROW(parse_formula("x0 = 1 mod"), std::invalid_argument);   // missing modulus
    EXPECT_THROW(parse_formula("x0 = 1 mod 1"), std::invalid_argument); // modulus < 2
}

/// The message parse_formula rejects `text` with, or "parsed" if it parses.
std::string rejection(const std::string& text) {
    try {
        parse_formula(text);
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    return "parsed";
}

TEST(Parser, RejectsInt64OverflowByPosition) {
    // Each input overflows int64 arithmetic somewhere in parsing or
    // normalizing; the parser must refuse it by name and position rather
    // than compute with a wrapped (undefined) value.
    const std::vector<std::pair<std::string, std::string>> cases = {
        // The coefficient sum -(2^63 - 1) - (2^63 - 1), at the second term.
        {"-9223372036854775807*x0 - 9223372036854775807*x0 < 1",
         "parse_formula: integer overflow at position 26"},
        // left - right = (2^63 - 1) - (-(2^63 - 1)), at the comparison.
        {"9223372036854775807*x0 < -9223372036854775807*x0",
         "parse_formula: integer overflow at position 23"},
        // The constant sum (2^63 - 1) + (2^63 - 1), at the second literal.
        {"x0 + 9223372036854775807 + 9223372036854775807 < 1",
         "parse_formula: integer overflow at position 27"},
        // A literal past int64 (std::stoll threw std::out_of_range).
        {"x0 < 9223372036854775808",
         "parse_formula: integer literal out of int64 range at position 5"},
        // Normalizing to an atom: the bound -diff.constant = -(-2^63), and
        // at_most's bound + 1.
        {"-9223372036854775807 - 1 + x0 < 0", "parse_formula: integer overflow at position 30"},
        {"x0 <= 9223372036854775807",
         "parse_formula: Formula::at_most: constant + 1 overflows int64 at position 3"},
        {"x65536 < 1", "parse_formula: variable index past x65535 at position 1"},
    };
    for (const auto& [text, message] : cases) {
        const std::string expected = message + " in \"" + text + "\"";
        EXPECT_EQ(rejection(text), expected) << text;
    }
    // The largest magnitudes that fit still parse.
    EXPECT_EQ(rejection("9223372036854775807*x0 - 9223372036854775807*x1 < 0"), "parsed");
    EXPECT_EQ(rejection("x0 < -9223372036854775807"), "parsed");
    EXPECT_EQ(rejection("-9223372036854775807 - 1 + x0 < -1"), "parsed");
}

TEST(Parser, ModIsAKeywordNotAPrefix) {
    // "mod" must not be recognized inside identifiers; "x0 = 1 modx" fails.
    EXPECT_THROW(parse_formula("x0 = 1 modx"), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
