// Microbenchmarks for the interaction-model layer (src/scenarios +
// core/interaction_model.h): the per-interaction cost of each pairing
// discipline relative to the uniform sampler, the price of the
// adversarial probe window, and the game-rule adapter's tabulated hot
// path.  Every row runs a fixed interaction budget far below its
// workload's convergence point, so each measurement executes the same
// deterministic amount of work (seed-pinned; stop_reason is always
// kBudget) — which is what makes the rows stable enough for
// scripts/compare_bench.py to regression-gate.  Recorded as
// BENCH_bench_scenarios.json at the repository root.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "core/configuration.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "protocols/epidemic.h"
#include "scenarios/games.h"
#include "scenarios/scenario_spec.h"

namespace {

using popproto::CountConfiguration;
using popproto::RunOptions;
using popproto::RunResult;
using popproto::ScenarioSpec;

// 8n interactions on a 2048-agent epidemic: mid-spread for every pairing
// discipline (uniform needs ~2n ln n to finish; covers need whole
// n(n-1)-pair epochs), so no row ever stops early on silence.
constexpr std::uint64_t kAgents = 2048;
constexpr std::uint64_t kBudget = std::uint64_t{1} << 14;

RunOptions budget_options() {
    RunOptions options;
    options.seed = 99;
    options.max_interactions = kBudget;
    return options;
}

/// Reference row: the identical workload through the plain uniform
/// sampler (simulate), the floor the scenario models are priced against.
/// items/s is interactions per second in every row of this suite.
void BM_UniformBaselineEpidemic(benchmark::State& state) {
    const auto protocol = popproto::make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kAgents - 1, 1});
    const RunOptions options = budget_options();
    for (auto _ : state) {
        const RunResult result = popproto::simulate(*protocol, initial, options);
        benchmark::DoNotOptimize(result.interactions);
    }
    state.SetItemsProcessed(state.iterations() * kBudget);
}
BENCHMARK(BM_UniformBaselineEpidemic)->Unit(benchmark::kMillisecond);

/// One row per scenario model, same protocol / population / budget.
void BM_ScenarioEpidemic(benchmark::State& state, const std::string& model) {
    const auto protocol = popproto::make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kAgents - 1, 1});
    ScenarioSpec spec;
    spec.model = model;
    if (model == "dynamic_graph") spec.phases = {"ring", "star", "complete"};
    const RunOptions options = budget_options();
    for (auto _ : state) {
        const RunResult result =
            popproto::run_scenario(*protocol, initial, spec, options);
        benchmark::DoNotOptimize(result.interactions);
    }
    state.SetItemsProcessed(state.iterations() * kBudget);
}
BENCHMARK_CAPTURE(BM_ScenarioEpidemic, round_robin, "round_robin")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioEpidemic, sweep, "sweep")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioEpidemic, dynamic_graph, "dynamic_graph")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioEpidemic, grid_mobility, "grid_mobility")
    ->Unit(benchmark::kMillisecond);

/// The adversarial cover's probe window is a per-step linear scan over
/// upcoming epoch entries; Arg is the window length (0 = pure random
/// cover, no probing).
void BM_AdversarialProbeWindow(benchmark::State& state) {
    const auto protocol = popproto::make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kAgents - 1, 1});
    ScenarioSpec spec;
    spec.model = "adversarial";
    spec.probe = static_cast<std::uint64_t>(state.range(0));
    const RunOptions options = budget_options();
    for (auto _ : state) {
        const RunResult result =
            popproto::run_scenario(*protocol, initial, spec, options);
        benchmark::DoNotOptimize(result.interactions);
    }
    state.SetItemsProcessed(state.iterations() * kBudget);
}
BENCHMARK(BM_AdversarialProbeWindow)
    ->Arg(0)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/// The game-rule adapter's output: a TabulatedProtocol on the plain hot
/// path.  A balanced Pavlov population stays mixed (mixed encounters mint
/// defectors as fast as (D,D) encounters retire them), so the run is
/// always budget-bound.
void BM_PavlovGameUniform(benchmark::State& state) {
    const auto protocol =
        popproto::make_game_protocol(popproto::make_pavlov_prisoners_dilemma());
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {kAgents / 2, kAgents / 2});
    const RunOptions options = budget_options();
    for (auto _ : state) {
        const RunResult result = popproto::simulate(*protocol, initial, options);
        benchmark::DoNotOptimize(result.interactions);
    }
    state.SetItemsProcessed(state.iterations() * kBudget);
}
BENCHMARK(BM_PavlovGameUniform)->Unit(benchmark::kMillisecond);

}  // namespace

POPPROTO_BENCHMARK_MAIN()
