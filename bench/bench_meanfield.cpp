// Mean-field engine microbenchmarks (google-benchmark).
//
// Measures the headline property of the fluid-limit engine — prediction
// cost independent of n — against the batch simulation engine on the same
// workload (two-way epidemic from a 1/64 infected density, fluid horizon
// t_end = 8, i.e. 8n interactions), and records the measured ODE-vs-
// simulation sup-norm deviation at each n as benchmark counters, so the
// O(1/sqrt(n)) empirical convergence lands in BENCH_bench_meanfield.json
// next to the timings (EXPERIMENTS.md, "Mean-field prediction").

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/configuration.h"
#include "core/simulator.h"
#include "meanfield/comparator.h"
#include "meanfield/integrator.h"
#include "protocols/epidemic.h"
#include "randomized/trials.h"

namespace {

using namespace popproto;

constexpr double kHorizon = 8.0;  // fluid time; 8n interactions at size n

CountConfiguration epidemic_initial(const TabulatedProtocol& protocol, std::uint64_t n) {
    return CountConfiguration::from_input_counts(protocol, {n - n / 64, n / 64});
}

/// Fluid prediction: drift assembly + RK45 solve with dense output.  The
/// population size only scales the initial density; cost is O(1) in n.
void BM_FluidSolveEpidemic(benchmark::State& state) {
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto initial = epidemic_initial(*protocol, n);
    FluidOptions options;
    options.t_end = kHorizon;
    FluidResult last;
    for (auto _ : state) {
        last = solve_fluid(*protocol, initial, options);
        benchmark::DoNotOptimize(last.final_density.data());
    }
    state.counters["drift_evals"] = benchmark::Counter(static_cast<double>(last.drift_evaluations));
}
BENCHMARK(BM_FluidSolveEpidemic)->RangeMultiplier(16)->Range(1 << 10, 1 << 20)
    ->Unit(benchmark::kMicrosecond);

/// The simulation side of the same workload: one batch-engine run over the
/// identical 8n-interaction horizon.  Cost grows with n.
void BM_BatchSimulateEpidemic(benchmark::State& state) {
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto initial = epidemic_initial(*protocol, n);
    RunOptions options;
    options.engine = SimulationEngine::kCountBatch;
    options.max_interactions = static_cast<std::uint64_t>(kHorizon) * n;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        options.seed = seed++;
        const RunResult result = run_simulation(*protocol, initial, options);
        benchmark::DoNotOptimize(result.interactions);
    }
}
BENCHMARK(BM_BatchSimulateEpidemic)->RangeMultiplier(16)->Range(1 << 10, 1 << 20)
    ->Unit(benchmark::kMicrosecond);

/// Cross-validation at size n: the sup-norm deviation between the ODE
/// solution and the mean of 4 simulated trajectories (64-point fluid-time
/// grid), exported as the `sup_dev` counter.  The Bournez et al. fluid
/// limit predicts sup_dev shrinking like O(1/sqrt(n)).
void BM_FluidVsSimulationEpidemic(benchmark::State& state) {
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto initial = epidemic_initial(*protocol, n);

    FluidOptions fluid_options;
    fluid_options.t_end = kHorizon;

    TrialOptions trial_options;
    trial_options.trials = 4;
    trial_options.base.engine = SimulationEngine::kCountBatch;
    trial_options.base.seed = 1;
    trial_options.base.max_interactions = static_cast<std::uint64_t>(kHorizon) * n + 1;
    trial_options.base.snapshots = SnapshotSchedule::every(
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(kHorizon) * n / 64));

    TrajectoryDeviation deviation;
    for (auto _ : state) {
        const FluidResult fluid = solve_fluid(*protocol, initial, fluid_options);
        const EmpiricalTrajectory simulated =
            mean_normalized_trajectory(*protocol, initial, trial_options);
        deviation = compare_to_fluid(fluid.solution, simulated);
        benchmark::DoNotOptimize(deviation.points);
    }
    state.counters["sup_dev"] = benchmark::Counter(deviation.sup);
    state.counters["points"] = benchmark::Counter(static_cast<double>(deviation.points));
}
BENCHMARK(BM_FluidVsSimulationEpidemic)
    ->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);

}  // namespace

POPPROTO_BENCHMARK_MAIN()
