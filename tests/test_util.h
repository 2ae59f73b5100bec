// Shared helpers for the test suite.

#ifndef POPPROTO_TESTS_TEST_UTIL_H
#define POPPROTO_TESTS_TEST_UTIL_H

#include <cctype>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto::testutil {

// --- run_simulation pinned to one engine ---------------------------------
//
// Tests name the engine they exercise instead of relying on kAuto's
// size-based choice; each helper overrides options.engine and dispatches
// through run_simulation, the one way to choose a complete-graph engine.

inline RunResult run_count_batch(const TabulatedProtocol& protocol,
                                 const CountConfiguration& initial, RunOptions options) {
    options.engine = SimulationEngine::kCountBatch;
    return run_simulation(protocol, initial, options);
}

inline RunResult run_collapsed(const TabulatedProtocol& protocol,
                               const CountConfiguration& initial, RunOptions options) {
    options.engine = SimulationEngine::kCollapsedBatch;
    return run_simulation(protocol, initial, options);
}

inline RunResult run_adaptive(const TabulatedProtocol& protocol,
                              const CountConfiguration& initial, RunOptions options) {
    options.engine = SimulationEngine::kAdaptive;
    return run_simulation(protocol, initial, options);
}

// --- Minimal JSON validator (structure only) -----------------------------
//
// Enough to verify that JSONL lines, MetricsReport::to_json, and the Chrome
// trace exporter emit well-formed JSON without pulling in a JSON library.

class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : text_(text) {}

    bool valid() {
        pos_ = 0;
        skip_space();
        if (!value()) return false;
        skip_space();
        return pos_ == text_.size();
    }

private:
    bool value() {
        if (pos_ >= text_.size()) return false;
        const char c = text_[pos_];
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') return string();
        if (c == 't') return literal("true");
        if (c == 'f') return literal("false");
        if (c == 'n') return literal("null");
        return number();
    }

    bool object() {
        ++pos_;  // '{'
        skip_space();
        if (peek() == '}') return ++pos_, true;
        while (true) {
            skip_space();
            if (!string()) return false;
            skip_space();
            if (peek() != ':') return false;
            ++pos_;
            skip_space();
            if (!value()) return false;
            skip_space();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') return ++pos_, true;
            return false;
        }
    }

    bool array() {
        ++pos_;  // '['
        skip_space();
        if (peek() == ']') return ++pos_, true;
        while (true) {
            skip_space();
            if (!value()) return false;
            skip_space();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') return ++pos_, true;
            return false;
        }
    }

    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (static_cast<unsigned char>(text_[pos_]) < 0x20) return false;
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) return false;
            }
            ++pos_;
        }
        if (pos_ >= text_.size()) return false;
        ++pos_;
        return true;
    }

    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool literal(const std::string& word) {
        if (text_.compare(pos_, word.size(), word) != 0) return false;
        pos_ += word.size();
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void skip_space() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

/// Outcome of a chi-square goodness-of-fit test (chi_square_gof below).
struct ChiSquareResult {
    double statistic = 0.0;       ///< Pearson X^2 over the merged bins
    double critical = 0.0;        ///< 0.999 quantile of chi-square(df)
    std::size_t bins = 0;         ///< number of merged bins (df = bins - 1)
    bool pass = false;            ///< statistic <= critical

    std::string summary() const {
        return "X^2 = " + std::to_string(statistic) + " vs critical(0.999) = " +
               std::to_string(critical) + " with " + std::to_string(bins) + " bins";
    }
};

/// Pearson chi-square goodness-of-fit of observed category counts against
/// expected category probabilities (categories are index-aligned; the
/// probabilities may sum to < 1 — the missing tail becomes a final
/// category with observed count `total_draws - sum(observed)`).
///
/// Adjacent categories are merged until every bin's expected count is at
/// least 5 (the textbook validity rule), and the critical value is the
/// 0.999 chi-square quantile via the Wilson-Hilferty cube approximation —
/// a deterministic test with fixed seeds flakes never, and a wrong sampler
/// overshoots this threshold by orders of magnitude.
inline ChiSquareResult chi_square_gof(const std::vector<std::uint64_t>& observed,
                                      const std::vector<double>& expected_probability,
                                      std::uint64_t total_draws) {
    const double total = static_cast<double>(total_draws);

    // Fold the unlisted tail into one extra category.
    std::vector<double> expected;
    std::vector<double> obs;
    double prob_sum = 0.0;
    std::uint64_t obs_sum = 0;
    for (std::size_t i = 0; i < expected_probability.size(); ++i) {
        expected.push_back(expected_probability[i] * total);
        obs.push_back(i < observed.size() ? static_cast<double>(observed[i]) : 0.0);
        prob_sum += expected_probability[i];
        if (i < observed.size()) obs_sum += observed[i];
    }
    if (prob_sum < 1.0 - 1e-12 || obs_sum < total_draws) {
        expected.push_back((1.0 - prob_sum) * total);
        obs.push_back(static_cast<double>(total_draws - obs_sum));
    }

    // Merge adjacent categories until every bin expects >= 5.
    std::vector<double> bin_obs;
    std::vector<double> bin_exp;
    double acc_obs = 0.0;
    double acc_exp = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        acc_obs += obs[i];
        acc_exp += expected[i];
        if (acc_exp >= 5.0) {
            bin_obs.push_back(acc_obs);
            bin_exp.push_back(acc_exp);
            acc_obs = acc_exp = 0.0;
        }
    }
    if (acc_exp > 0.0 || acc_obs > 0.0) {
        if (!bin_exp.empty()) {
            bin_obs.back() += acc_obs;
            bin_exp.back() += acc_exp;
        } else {
            bin_obs.push_back(acc_obs);
            bin_exp.push_back(acc_exp);
        }
    }

    ChiSquareResult result;
    result.bins = bin_exp.size();
    for (std::size_t i = 0; i < bin_exp.size(); ++i) {
        const double diff = bin_obs[i] - bin_exp[i];
        result.statistic += diff * diff / bin_exp[i];
    }
    if (result.bins < 2) {
        // Everything collapsed into one bin: the distribution is (near-)
        // degenerate and any sample passes trivially.
        result.critical = 0.0;
        result.pass = result.statistic == 0.0;
        return result;
    }
    // Wilson-Hilferty: chi2_q(df) ~ df * (1 - 2/(9 df) + z sqrt(2/(9 df)))^3,
    // z = Phi^-1(0.999) = 3.0902.
    const double df = static_cast<double>(result.bins - 1);
    const double h = 2.0 / (9.0 * df);
    const double core = 1.0 - h + 3.0902 * std::sqrt(h);
    result.critical = df * core * core * core;
    result.pass = result.statistic <= result.critical;
    return result;
}

/// Calls `visit` with every vector of `slots` non-negative integers summing
/// to exactly `total` (the input-count assignments of a population of size
/// `total` over `slots` input symbols).
inline void for_each_composition(std::uint64_t total, std::size_t slots,
                                 const std::function<void(const std::vector<std::uint64_t>&)>& visit) {
    std::vector<std::uint64_t> current(slots, 0);
    const std::function<void(std::size_t, std::uint64_t)> recurse =
        [&](std::size_t index, std::uint64_t remaining) {
            if (index + 1 == slots) {
                current[index] = remaining;
                visit(current);
                return;
            }
            for (std::uint64_t value = 0; value <= remaining; ++value) {
                current[index] = value;
                recurse(index + 1, remaining - value);
            }
        };
    if (slots == 0) return;
    recurse(0, total);
}

/// Signed copy of an unsigned count vector (for Formula::evaluate).
inline std::vector<std::int64_t> to_signed(const std::vector<std::uint64_t>& counts) {
    return {counts.begin(), counts.end()};
}

/// A four-state protocol for the collapsed engines' exact-law tests, from
/// all agents in state 0: a first meeting marks the pair, initiator L and
/// responder R, so every deferred pair holds {L, R} and its agents' roles
/// decide their states.  Two marked agents with the same mark become X, X
/// (a cross-pair meeting can, a pair meeting again cannot: L.R is a swap
/// and R.L an identity), and a fresh 0 that initiates against an L becomes
/// X.  Every other pair is an identity.  Outputs 0, L, R, X = 0, 1, 0, 1.
inline std::unique_ptr<TabulatedProtocol> make_pair_marking_protocol() {
    TabulatedProtocol::Tables tables;
    tables.initial = {0};
    tables.output = {0, 1, 0, 1};
    tables.num_output_symbols = 2;
    tables.delta = {
        {1, 2}, {3, 1}, {0, 2}, {0, 3},  // 0.0 marks, 0.L, 0.R, 0.X
        {1, 0}, {3, 3}, {2, 1}, {1, 3},  // L.0, L.L, L.R swap, L.X
        {2, 0}, {2, 1}, {3, 3}, {2, 3},  // R.0, R.L, R.R, R.X
        {3, 0}, {3, 1}, {3, 2}, {3, 3},  // X.*
    };
    tables.state_names = {"0", "L", "R", "X"};
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

/// Exact distribution of the configuration after `steps` interactions of
/// the uniform ordered-pair chain: P[(p, q)] = c_p (c_q - [p == q]) / n(n-1),
/// as a dynamic program over count vectors.  Feasible only for tiny
/// populations; that is the point — the batching engines' event and
/// boundary-clamp paths dominate there, and their empirical distributions
/// are held to this law by chi_square_gof (collapsed_simulator_test.cpp,
/// parallel_collapsed_test.cpp).
inline std::map<std::vector<std::uint64_t>, double> exact_chain_distribution(
    const TabulatedProtocol& protocol, const std::vector<std::uint64_t>& initial,
    std::uint64_t steps) {
    const std::size_t num_states = protocol.num_states();
    std::uint64_t n = 0;
    for (const std::uint64_t count : initial) n += count;
    const double total_pairs = static_cast<double>(n) * static_cast<double>(n - 1);

    std::map<std::vector<std::uint64_t>, double> dist;
    dist[initial] = 1.0;
    for (std::uint64_t step = 0; step < steps; ++step) {
        std::map<std::vector<std::uint64_t>, double> next_dist;
        for (const auto& [config, prob] : dist) {
            for (State p = 0; p < num_states; ++p) {
                if (config[p] == 0) continue;
                for (State q = 0; q < num_states; ++q) {
                    const std::uint64_t pairs = config[p] * (config[q] - (p == q ? 1 : 0));
                    if (pairs == 0) continue;
                    const StatePair result = protocol.apply_fast(p, q);
                    std::vector<std::uint64_t> next = config;
                    --next[p];
                    --next[q];
                    ++next[result.initiator];
                    ++next[result.responder];
                    next_dist[next] += prob * static_cast<double>(pairs) / total_pairs;
                }
            }
        }
        dist = std::move(next_dist);
    }
    return dist;
}

}  // namespace popproto::testutil

#endif  // POPPROTO_TESTS_TEST_UTIL_H
