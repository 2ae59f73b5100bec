// The phase-adaptive engine against the best static engine choice
// (google-benchmark; the evidence behind kAuto's adaptive default in
// core/simulator.h and the EXPERIMENTS.md adaptive-vs-static table).
//
// The workload that motivates runtime switching is the paper's single-seed
// epidemic run to silence: a sparse ignition (one infected agent, almost
// every pair null — count-batch's geometric skips win), a dense transient
// (half the pairs effective — the collapsed super-step engine wins 10x+ at
// n >= 2^20), then a long sparse convergence tail (count-batch again, and
// the tail dominates the interaction count).  Any static engine loses at
// least one phase; the adaptive engine plays each phase with the step kind
// that wins it, paying only two hand-overs of the count configuration.
// Args are log2(n): /20, /22, /24.
//
// The two controls pin the "never lose" side of the bargain:
//
//  * Dense control — epidemic started at half infected, budget n, the same
//    deep-transient window bench_collapsed measures (an uncapped run grows
//    a sparse convergence tail and stops being single-regime: the adaptive
//    engine switches and *beats* static collapsed on it) — so the adaptive
//    run is a collapsed run plus one integer compare per step (no extra RNG
//    draws) and must stay within 5% of the static collapsed engine.
//  * Sparse control — single seed, budget capped at 3n interactions, deep
//    inside the ignition phase (infections grow like e^{2t/n}, so ~e^6 =
//    400 infected at the cap versus the ~6500 that reach the crossover) —
//    is a count-batch run plus one compare per step, never builds the
//    collapsed part, and must stay within 5% of static count-batch.  The
//    budget is the smallest that still gives count-batch real work
//    (hundreds of geometric runs): a shorter row only measures the adaptive
//    engine's O(1) setup against an empty run.
//
// Only the /20 rows are perf-gated (scripts/compare_bench.py's
// GATE_ONLY_SUBSTRINGS): the bigger rows are full epidemics measured in
// seconds, recorded for the scaling table rather than regression-judged.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/configuration.h"
#include "core/simulator.h"
#include "protocols/epidemic.h"

namespace {

using namespace popproto;

enum class Workload {
    kMixed,   // single seed, to silence: sparse -> dense -> sparse
    kDense,   // half infected, budget n: pure dense transient
    kSparse,  // single seed, budget 3n: pure ignition phase
};

void run_epidemic(benchmark::State& state, Workload workload, SimulationEngine engine) {
    const std::uint64_t n = std::uint64_t{1} << state.range(0);
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(
        *protocol, workload == Workload::kDense
                       ? std::vector<std::uint64_t>{n / 2, n - n / 2}
                       : std::vector<std::uint64_t>{n - 1, 1});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    std::uint64_t silent_runs = 0;
    for (auto _ : state) {
        RunOptions options;
        options.engine = engine;
        options.seed = ++seed;
        if (workload == Workload::kDense) options.max_interactions = n;
        if (workload == Workload::kSparse) options.max_interactions = 3 * n;
        const RunResult result = run_simulation(*protocol, initial, options);
        interactions += result.interactions;
        silent_runs += result.stop_reason == StopReason::kSilent ? 1 : 0;
        benchmark::DoNotOptimize(result.interactions);
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
    // Cross-check that the mixed rows actually measure full runs to
    // silence (the budget-capped controls report 0 here by design).
    state.counters["silent_runs"] =
        benchmark::Counter(static_cast<double>(silent_runs));
}

void BM_MixedRegimeAdaptive(benchmark::State& state) {
    run_epidemic(state, Workload::kMixed, SimulationEngine::kAdaptive);
}
BENCHMARK(BM_MixedRegimeAdaptive)->Arg(20)->Arg(22)->Arg(24);

void BM_MixedRegimeCountBatch(benchmark::State& state) {
    run_epidemic(state, Workload::kMixed, SimulationEngine::kCountBatch);
}
BENCHMARK(BM_MixedRegimeCountBatch)->Arg(20)->Arg(22)->Arg(24);

void BM_MixedRegimeCollapsed(benchmark::State& state) {
    run_epidemic(state, Workload::kMixed, SimulationEngine::kCollapsedBatch);
}
BENCHMARK(BM_MixedRegimeCollapsed)->Arg(20)->Arg(22)->Arg(24);

// Controls compare the adaptive run against the engine that wins the
// regime outright (collapsed on dense, count-batch on sparse; the losing
// engine's deficit is already bench_collapsed's table).
void BM_DenseControlAdaptive(benchmark::State& state) {
    run_epidemic(state, Workload::kDense, SimulationEngine::kAdaptive);
}
BENCHMARK(BM_DenseControlAdaptive)->Arg(20)->Arg(22);

void BM_DenseControlCollapsed(benchmark::State& state) {
    run_epidemic(state, Workload::kDense, SimulationEngine::kCollapsedBatch);
}
BENCHMARK(BM_DenseControlCollapsed)->Arg(20)->Arg(22);

void BM_SparseControlAdaptive(benchmark::State& state) {
    run_epidemic(state, Workload::kSparse, SimulationEngine::kAdaptive);
}
BENCHMARK(BM_SparseControlAdaptive)->Arg(20)->Arg(22);

void BM_SparseControlCountBatch(benchmark::State& state) {
    run_epidemic(state, Workload::kSparse, SimulationEngine::kCountBatch);
}
BENCHMARK(BM_SparseControlCountBatch)->Arg(20)->Arg(22);

}  // namespace

POPPROTO_BENCHMARK_MAIN()
