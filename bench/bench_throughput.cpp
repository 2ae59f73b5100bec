// Microbenchmarks of the simulation substrate (google-benchmark).
//
// Not a paper claim - this tracks the raw cost of the hot loops
// (interaction application, urn draws, graph-edge activation) that every
// experiment above depends on.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/simulator.h"
#include "graphs/graph_simulation.h"
#include "graphs/interaction_graph.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "randomized/urn.h"

namespace {

using namespace popproto;

void BM_SimulateCounting(benchmark::State& state) {
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n / 2, n - n / 2});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    for (auto _ : state) {
        RunOptions options;
        options.max_interactions = 200000;
        options.seed = ++seed;
        const RunResult result = simulate(*protocol, initial, options);
        interactions += result.interactions;
        benchmark::DoNotOptimize(result.interactions);
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateCounting)->Arg(256)->Arg(4096);

// Head-to-head comparison of the agent-array reference loop and the
// count-based batch engine (batch_simulator.h) on the same workload:
// count-to-five, a fixed 4M-interaction budget, the default silence
// stopping rule, and the interactions/s counter as the figure of merit.
//
// Two input regimes bracket the engine's behaviour.  "Dense" starts
// half-and-half, so the alert epidemic keeps the effective fraction near
// 1/4 and the batch engine merely matches the reference.  "Sparse" is the
// paper's flock-of-birds scenario - 7 fevered birds among n - where almost
// every interaction is null (the Theorem 8 Theta(n^2 log n) tail); the
// batch engine jumps the null runs geometrically and pulls ahead by orders
// of magnitude as n grows.

constexpr std::uint64_t kHeadToHeadBudget = 4'000'000;

void run_counting_head_to_head(benchmark::State& state, std::uint64_t ones,
                               SimulationEngine engine) {
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - ones, ones});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    std::uint64_t effective = 0;
    for (auto _ : state) {
        RunOptions options;
        options.engine = engine;
        options.max_interactions = kHeadToHeadBudget;
        options.seed = ++seed;
        const RunResult result = run_simulation(*protocol, initial, options);
        interactions += result.interactions;
        effective += result.effective_interactions;
        benchmark::DoNotOptimize(result.interactions);
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
    state.counters["effective/s"] = benchmark::Counter(
        static_cast<double>(effective), benchmark::Counter::kIsRate);
}

void BM_CountingAgentArrayDense(benchmark::State& state) {
    run_counting_head_to_head(state, static_cast<std::uint64_t>(state.range(0)) / 2,
                              SimulationEngine::kAgentArray);
}
BENCHMARK(BM_CountingAgentArrayDense)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1048576);

void BM_CountingBatchDense(benchmark::State& state) {
    run_counting_head_to_head(state, static_cast<std::uint64_t>(state.range(0)) / 2,
                              SimulationEngine::kCountBatch);
}
BENCHMARK(BM_CountingBatchDense)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1048576);

void BM_CountingAgentArraySparse(benchmark::State& state) {
    run_counting_head_to_head(state, 7, SimulationEngine::kAgentArray);
}
BENCHMARK(BM_CountingAgentArraySparse)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1048576);

void BM_CountingBatchSparse(benchmark::State& state) {
    run_counting_head_to_head(state, 7, SimulationEngine::kCountBatch);
}
BENCHMARK(BM_CountingBatchSparse)->Arg(256)->Arg(4096)->Arg(65536)->Arg(1048576);

// A full default_budget-scale convergence run of the sparse scenario at
// n = 2^20: ~10^13 scheduled interactions to silence, which the
// agent-array loop cannot finish in reasonable time (days at its measured
// rate) but the batch engine completes per run in well under a second by
// skipping the null tail.
void BM_BatchCountingFullConvergence(benchmark::State& state) {
    const std::uint64_t n = 1u << 20;
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 7, 7});
    std::uint64_t seed = 40;
    std::uint64_t interactions = 0;
    std::uint64_t silent_runs = 0;
    for (auto _ : state) {
        RunOptions options;
        options.engine = SimulationEngine::kCountBatch;
        options.max_interactions = default_budget(n);
        options.seed = ++seed;
        const RunResult result = run_simulation(*protocol, initial, options);
        interactions += result.interactions;
        if (result.stop_reason == StopReason::kSilent) ++silent_runs;
        benchmark::DoNotOptimize(result.interactions);
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
    state.counters["silent_runs"] = benchmark::Counter(static_cast<double>(silent_runs));
}
BENCHMARK(BM_BatchCountingFullConvergence);

void BM_SimulateMajorityProtocol(benchmark::State& state) {
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto protocol = make_threshold_protocol({1, -1}, 0);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n / 2, n - n / 2});
    std::uint64_t seed = 100;
    std::uint64_t interactions = 0;
    for (auto _ : state) {
        RunOptions options;
        options.max_interactions = 200000;
        options.seed = ++seed;
        const RunResult result = simulate(*protocol, initial, options);
        interactions += result.interactions;
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateMajorityProtocol)->Arg(1024);

void BM_GraphSimulatorOnRing(benchmark::State& state) {
    const std::uint32_t n = 64;
    const auto base = make_counting_protocol(3);
    const auto sim = make_graph_simulation_protocol(*base);
    const InteractionGraph ring = InteractionGraph::ring(n);
    std::vector<Symbol> inputs(n, kInputZero);
    inputs[0] = inputs[1] = inputs[2] = kInputOne;
    std::uint64_t seed = 3;
    std::uint64_t interactions = 0;
    for (auto _ : state) {
        RunOptions options;
        options.max_interactions = 200000;
        options.seed = ++seed;
        const GraphRunResult result = simulate_on_graph(*sim, ring, inputs, options);
        interactions += result.interactions;
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GraphSimulatorOnRing);

void BM_UrnDraws(benchmark::State& state) {
    Rng rng(5);
    std::uint64_t draws = 0;
    for (auto _ : state) {
        const UrnOutcome outcome = sample_urn(64, 4, 3, rng);
        draws += outcome.draws;
        benchmark::DoNotOptimize(outcome.lost);
    }
    state.counters["draws/s"] =
        benchmark::Counter(static_cast<double>(draws), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UrnDraws);

}  // namespace

POPPROTO_BENCHMARK_MAIN()
