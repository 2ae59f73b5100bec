#include "analysis/markov.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/stable_computation.h"
#include "core/require.h"

namespace popproto {

namespace {

/// Solves `matrix * x = rhs` (row-major, m x m) in place by Gaussian
/// elimination with partial pivoting; returns x.
std::vector<double> solve_linear(std::vector<double>& matrix, std::vector<double>& rhs,
                                 std::size_t m) {
    for (std::size_t col = 0; col < m; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < m; ++row)
            if (std::fabs(matrix[row * m + col]) > std::fabs(matrix[pivot * m + col]))
                pivot = row;
        if (std::fabs(matrix[pivot * m + col]) < 1e-14)
            throw std::runtime_error("solve_linear: singular system");
        if (pivot != col) {
            for (std::size_t k = col; k < m; ++k)
                std::swap(matrix[pivot * m + k], matrix[col * m + k]);
            std::swap(rhs[pivot], rhs[col]);
        }
        const double diagonal = matrix[col * m + col];
        for (std::size_t row = col + 1; row < m; ++row) {
            const double factor = matrix[row * m + col] / diagonal;
            if (factor == 0.0) continue;
            for (std::size_t k = col; k < m; ++k)
                matrix[row * m + k] -= factor * matrix[col * m + k];
            rhs[row] -= factor * rhs[col];
        }
    }
    std::vector<double> solution(m, 0.0);
    for (std::size_t row = m; row-- > 0;) {
        double sum = rhs[row];
        for (std::size_t k = row + 1; k < m; ++k) sum -= matrix[row * m + k] * solution[k];
        solution[row] = sum / matrix[row * m + row];
    }
    return solution;
}

/// The first-step system both solvers share.  For every configuration c
/// with transient[c],
///   h(c) = base + sum_d P(c, d) * (transient[d] ? h(d) : boundary(d)),
/// i.e. (I - P_tt) h = b with b(c) = base + sum over absorbing d of
/// P(c, d) boundary(d).  Row c of P comes from for_each_pairwise_successor:
/// each pair (p, q) adds c_p (c_q - [p = q]) / (n (n - 1)) to its
/// successor, and the mass of null interactions and swaps folds into the
/// diagonal.  Returns h(initial); `caller` names the solver in errors.
double solve_first_step(const TabulatedProtocol& protocol, const ConfigurationGraph& graph,
                        ConfigId initial, const std::vector<bool>& transient, double base,
                        const std::function<double(ConfigId)>& boundary,
                        std::size_t max_transient, const char* caller) {
    std::vector<ConfigId> rows;
    std::vector<std::int64_t> row_of(graph.size(), -1);
    for (ConfigId c = 0; c < graph.size(); ++c) {
        if (transient[c]) {
            row_of[c] = static_cast<std::int64_t>(rows.size());
            rows.push_back(c);
        }
    }
    const std::size_t m = rows.size();
    if (m > max_transient)
        throw std::runtime_error(std::string(caller) + ": transient system too large");
    ensure(row_of[initial] >= 0, std::string(caller) + ": initial configuration is absorbing");

    std::unordered_map<CountConfiguration, ConfigId, CountConfigurationHash> index;
    for (ConfigId c = 0; c < graph.size(); ++c) index.emplace(graph.configs[c], c);

    std::vector<double> matrix(m * m, 0.0);
    std::vector<double> rhs(m, base);
    for (std::size_t row = 0; row < m; ++row) {
        const CountConfiguration& config = graph.configs[rows[row]];
        const double n = static_cast<double>(config.population_size());
        const double pairs = n * (n - 1.0);
        // Aggregated per successor; the map's iteration order is the order
        // the row's mass is summed in below.
        std::unordered_map<ConfigId, double> probabilities;
        for_each_pairwise_successor(
            protocol, config, [&](const CountConfiguration& successor, State p, State q) {
                const auto it = index.find(successor);
                ensure(it != index.end(), "solve_first_step: successor missing from graph");
                const std::uint64_t cq = config.count(q) - (p == q ? 1 : 0);
                probabilities[it->second] += static_cast<double>(config.count(p)) *
                                             static_cast<double>(cq) / pairs;
            });

        matrix[row * m + row] = 1.0;
        double outgoing = 0.0;
        for (const auto& [succ, prob] : probabilities) {
            outgoing += prob;
            if (row_of[succ] >= 0) {
                matrix[row * m + static_cast<std::size_t>(row_of[succ])] -= prob;
            } else {
                rhs[row] += prob * boundary(succ);
            }
        }
        matrix[row * m + row] -= (1.0 - outgoing);  // self-loop mass
    }
    return solve_linear(matrix, rhs, m)[static_cast<std::size_t>(row_of[initial])];
}

}  // namespace

double expected_hitting_time(const TabulatedProtocol& protocol, const ConfigurationGraph& graph,
                             ConfigId initial, const ConfigPredicate& target,
                             std::size_t max_transient) {
    require(graph.complete, "expected_hitting_time: incomplete configuration graph");
    require(initial < graph.size(), "expected_hitting_time: initial id out of range");

    std::vector<bool> transient(graph.size());
    for (ConfigId c = 0; c < graph.size(); ++c) transient[c] = !target(graph.configs[c]);
    if (!transient[initial]) return 0.0;

    // The expectation is finite iff every configuration can reach the
    // target, i.e. iff every final SCC (which no path leaves) holds a target
    // configuration.
    if (std::all_of(transient.begin(), transient.end(), [](bool t) { return t; }))
        throw std::runtime_error("expected_hitting_time: target unreachable");
    const SccDecomposition sccs = condense(graph);
    std::vector<bool> holds_target(sccs.num_components, false);
    for (ConfigId c = 0; c < graph.size(); ++c)
        if (!transient[c]) holds_target[sccs.component[c]] = true;
    for (std::uint32_t s = 0; s < sccs.num_components; ++s) {
        if (sccs.is_final[s] && !holds_target[s])
            throw std::runtime_error(
                "expected_hitting_time: a reachable configuration cannot reach "
                "the target; expectation is infinite");
    }

    // First-step system: t = 1 + P_tt t over the configurations outside the
    // target.
    return solve_first_step(protocol, graph, initial, transient, 1.0,
                            [](ConfigId) { return 0.0; }, max_transient,
                            "expected_hitting_time");
}

double expected_hitting_time(const TabulatedProtocol& protocol,
                             const CountConfiguration& initial_config,
                             const ConfigPredicate& target, std::size_t max_configs,
                             std::size_t max_transient) {
    const ConfigurationGraph graph = explore_reachable(protocol, initial_config, max_configs);
    require_complete(graph, "expected_hitting_time");
    return expected_hitting_time(protocol, graph, 0, target, max_transient);
}

double absorption_probability(const TabulatedProtocol& protocol, const ConfigurationGraph& graph,
                              ConfigId initial, const ConfigPredicate& target,
                              std::size_t max_transient) {
    require(graph.complete, "absorption_probability: incomplete configuration graph");
    require(initial < graph.size(), "absorption_probability: initial id out of range");

    const SccDecomposition sccs = condense(graph);

    // Each final SCC's target value.  The target must be constant on it
    // (otherwise "absorbed into a target component" is ill-defined).
    std::vector<std::optional<bool>> final_value(sccs.num_components);
    for (ConfigId c = 0; c < graph.size(); ++c) {
        const std::uint32_t s = sccs.component[c];
        if (!sccs.is_final[s]) continue;
        const bool value = target(graph.configs[c]);
        if (final_value[s].value_or(value) != value)
            throw std::runtime_error(
                "absorption_probability: target is not constant on a final SCC");
        final_value[s] = value;
    }

    const auto absorbed_value = [&](ConfigId c) {
        return *final_value[sccs.component[c]] ? 1.0 : 0.0;
    };
    if (sccs.is_final[sccs.component[initial]]) return absorbed_value(initial);

    // First-step system: h = P_tt h + P_ta value over everything outside
    // the final SCCs.
    std::vector<bool> transient(graph.size());
    for (ConfigId c = 0; c < graph.size(); ++c) transient[c] = !sccs.is_final[sccs.component[c]];
    return solve_first_step(protocol, graph, initial, transient, 0.0, absorbed_value,
                            max_transient, "absorption_probability");
}

double absorption_probability(const TabulatedProtocol& protocol,
                              const CountConfiguration& initial_config,
                              const ConfigPredicate& target, std::size_t max_configs,
                              std::size_t max_transient) {
    const ConfigurationGraph graph = explore_reachable(protocol, initial_config, max_configs);
    require_complete(graph, "absorption_probability");
    return absorption_probability(protocol, graph, 0, target, max_transient);
}

}  // namespace popproto
