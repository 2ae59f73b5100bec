// Head-to-head of the collapsed super-step engine against the count-based
// batch engine (google-benchmark; the engine-selection evidence behind
// kAutoCollapsedThreshold in core/simulator.h), plus the price of the
// hypergeometric draw its super-steps are built from.
//
// The two engines divide the workload space along the effective fraction:
//
//  * Dense phases — here the epidemic transient started at half infected,
//    where roughly half of all ordered pairs change the multiset — give the
//    batch engine nothing to skip: it pays O(|Q|) per effective interaction,
//    ~30 ns/interaction at every n.  The collapsed engine instead executes
//    T = 1.5 sqrt(n) interactions per super-step (one O(|Q|^2) cascade plus
//    ~4.5 interactions resolved one by one), so its per-interaction cost
//    *falls* like 1/sqrt(n): ~parity
//    at n = 2^10, >= 10x at n = 2^20, and growing through 2^24 (the
//    Theorem 8 scaling regime EXPERIMENTS.md sweeps).
//  * Sparse phases — the paper's 7-fevered-birds scenario — are the batch
//    engine's home turf: almost every interaction is null and geometric
//    jumps cost O(1) per *run* of nulls, which no super-step can beat.  The
//    sparse pair below documents that regime and is why kAuto keeps the
//    batch engine below the collapsed threshold.
//
// The budget for the dense sweep is n interactions, keeping every run deep
// inside the transient (full infection needs ~n ln n), so the effective
// fraction stays high for the whole measured window at every size.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"

namespace {

using namespace popproto;

void run_epidemic_transient(benchmark::State& state, SimulationEngine engine) {
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n / 2, n - n / 2});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    std::uint64_t effective = 0;
    for (auto _ : state) {
        RunOptions options;
        options.engine = engine;
        options.max_interactions = n;  // stay inside the dense transient
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

void BM_EpidemicDenseCountBatch(benchmark::State& state) {
    run_epidemic_transient(state, SimulationEngine::kCountBatch);
}
BENCHMARK(BM_EpidemicDenseCountBatch)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Arg(1 << 24);

void BM_EpidemicDenseCollapsed(benchmark::State& state) {
    run_epidemic_transient(state, SimulationEngine::kCollapsedBatch);
}
BENCHMARK(BM_EpidemicDenseCollapsed)
    ->Arg(1 << 10)
    ->Arg(1 << 12)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Arg(1 << 24);

// The sparse contrast: 7 fevered birds among 2^20, a fixed 4M-interaction
// budget (the bench_throughput sparse workload).  Almost every interaction
// is null; the batch engine jumps whole null runs while the collapsed
// engine still pays one super-step per ~sqrt(n) interactions, so the batch
// engine stays ahead here — the reason kAuto keeps it below
// kAutoCollapsedThreshold.
void run_sparse_counting(benchmark::State& state, SimulationEngine engine) {
    const std::uint64_t n = std::uint64_t{1} << 20;
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 7, 7});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    for (auto _ : state) {
        RunOptions options;
        options.engine = engine;
        options.max_interactions = 4'000'000;
        options.seed = ++seed;
        const RunResult result = run_simulation(*protocol, initial, options);
        interactions += result.interactions;
        benchmark::DoNotOptimize(result.interactions);
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
}

void BM_SparseCountingCountBatch(benchmark::State& state) {
    run_sparse_counting(state, SimulationEngine::kCountBatch);
}
BENCHMARK(BM_SparseCountingCountBatch);

void BM_SparseCountingCollapsed(benchmark::State& state) {
    run_sparse_counting(state, SimulationEngine::kCollapsedBatch);
}
BENCHMARK(BM_SparseCountingCollapsed);

// Intra-run scaling of the sharded collapsed engine: the dense epidemic
// transient again (the workload where super-steps dominate), at fixed n and
// varying RunOptions::threads.  threads = 1 is the serial engine and
// anchors the per-n baseline rate; parallel_efficiency = speedup / threads,
// so 1.0 is perfect linear scaling and 1/threads is "no faster than
// serial".  Shard work per super-step is the bulk realization of ~1.5
// sqrt(n) deferred pairs, so efficiency should rise with n (more work per fork-merge barrier) and
// it is only meaningful when the host has at least `threads` cores —
// EXPERIMENTS.md records which host recorded the committed numbers.
//
// Execution order matters: google-benchmark runs the ArgsProduct rows in
// an order that puts every threads = 1 row before any parallel row (and
// repetitions of a row are consecutive), so the serial anchor for each n is
// always recorded before its parallel rows read it.
void BM_CollapsedScaling(benchmark::State& state) {
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const unsigned threads = static_cast<unsigned>(state.range(1));
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n / 2, n - n / 2});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        RunOptions options;
        options.max_interactions = n;  // stay inside the dense transient
        options.seed = ++seed;
        options.threads = threads;
        options.engine = SimulationEngine::kCollapsedBatch;
        const RunResult result = run_simulation(*protocol, initial, options);
        interactions += result.interactions;
        benchmark::DoNotOptimize(result.interactions);
    }
    const double elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    const double rate = elapsed > 0.0 ? static_cast<double>(interactions) / elapsed : 0.0;

    // Serial anchor per population size (single-threaded registration-order
    // execution makes the static safe; repetitions keep the max so the
    // anchor is the serial engine's best showing).
    static std::map<std::uint64_t, double> serial_rate;
    if (threads == 1) {
        const auto it = serial_rate.find(n);
        if (it == serial_rate.end() || rate > it->second) serial_rate[n] = rate;
    }
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
    const auto anchor = serial_rate.find(n);
    if (anchor != serial_rate.end() && anchor->second > 0.0) {
        state.counters["parallel_efficiency"] =
            rate / (anchor->second * static_cast<double>(threads));
    }
}
BENCHMARK(BM_CollapsedScaling)
    ->ArgsProduct({{1 << 20, 1 << 24, 1 << 28}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);

// The price of one exact Rng::hypergeometric draw, the unit of every
// super-step cascade, at the shapes an n = 2^24 epidemic super-step drew
// when it stopped at its first collision (m ~ 0.63 sqrt(n) = 2568 pairs; a
// super-step of T = 1.5 sqrt(n) now realizes ~6,100 deferred pairs, in the
// same branch, and the rows keep their shapes so their history stays
// comparable).  Args are (successes, failures, draws):
// the pool of 2m touched agents out of the count vector at infected
// fractions I/n = 0.5 and 0.01, and a matching-row split at I/n = 0.5 (an
// initiator row of ~m/2 draws over the m responders).  All three take the
// ratio-of-uniforms branch (variance >= 20).
void BM_HypergeometricDraw(benchmark::State& state) {
    const auto successes = static_cast<std::uint64_t>(state.range(0));
    const auto failures = static_cast<std::uint64_t>(state.range(1));
    const auto draws = static_cast<std::uint64_t>(state.range(2));
    Rng rng(7);
    for (auto _ : state) benchmark::DoNotOptimize(rng.hypergeometric(successes, failures, draws));
}
BENCHMARK(BM_HypergeometricDraw)
    ->Args({8388608, 8388608, 5136})
    ->Args({167772, 16609444, 5136})
    ->Args({1284, 1284, 1284});

}  // namespace

POPPROTO_BENCHMARK_MAIN()
