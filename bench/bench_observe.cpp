// Observation-overhead microbenchmarks (google-benchmark).
//
// The observer hook (core/observer.h) promises that an unobserved run —
// observer == nullptr, the default — costs one predicted-not-taken branch
// per interaction and nothing else.  This suite pins that promise down
// against BENCH_bench_throughput.json across PRs, and prices the actual
// observers so experiment authors can budget them:
//
//  * *Unobserved: the hot loops exactly as bench_throughput runs them
//    (the <2%-overhead acceptance bar compares these against the
//    pre-instrumentation numbers).
//  * *NoopObserver: a base RunObserver with every callback a no-op and no
//    snapshot schedule — the pure cost of virtual dispatch on the
//    non-snapshot events (output changes, null runs).
//  * *Traced: a TraceRecorder with a fixed-period snapshot schedule — what
//    a trajectory experiment actually pays.
//  * Jsonl/Metrics: the streaming writer (to an in-memory sink) and the
//    mutex-guarded collector.
//  * *TelemetryOff/*TelemetryOn: the runtime telemetry probes
//    (src/telemetry) with no collector attached (the one-branch fast path
//    — the <=2% acceptance bar of the telemetry subsystem, gated by
//    scripts/compare_bench.py) and with a
//    RunTelemetryCollector attached (what `trace_run --profile` pays).

#include <benchmark/benchmark.h>

#include <sstream>

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/observer.h"
#include "core/simulator.h"
#include "observe/jsonl_writer.h"
#include "observe/metrics.h"
#include "observe/trace_recorder.h"
#include "protocols/counting.h"
#include "telemetry/telemetry.h"

namespace {

using namespace popproto;

// The bench_throughput head-to-head workload: count-to-five, "dense" for
// the agent-array loop (effective fraction near 1/4) and "sparse" (7 ones,
// null-dominated) for the batch engine, where the snapshot clamping logic
// actually cuts geometric jumps.
constexpr std::uint64_t kAgentBudget = 1'000'000;
constexpr std::uint64_t kBatchBudget = 4'000'000;

RunOptions agent_options(std::uint64_t seed) {
    RunOptions options;
    options.max_interactions = kAgentBudget;
    options.seed = seed;
    return options;
}

RunOptions batch_options(std::uint64_t seed) {
    RunOptions options;
    options.engine = SimulationEngine::kCountBatch;
    options.max_interactions = kBatchBudget;
    options.seed = seed;
    return options;
}

void report_rate(benchmark::State& state, std::uint64_t interactions) {
    state.counters["interactions/s"] = benchmark::Counter(
        static_cast<double>(interactions), benchmark::Counter::kIsRate);
}

template <typename Runner>
void run_agent_array(benchmark::State& state, Runner&& with_options) {
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n / 2, n - n / 2});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    for (auto _ : state) {
        RunOptions options = agent_options(++seed);
        with_options(options);
        const RunResult result = simulate(*protocol, initial, options);
        interactions += result.interactions;
        benchmark::DoNotOptimize(result.interactions);
    }
    report_rate(state, interactions);
}

template <typename Runner>
void run_batch(benchmark::State& state, Runner&& with_options) {
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 7, 7});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    for (auto _ : state) {
        RunOptions options = batch_options(++seed);
        with_options(options);
        const RunResult result = run_simulation(*protocol, initial, options);
        interactions += result.interactions;
        benchmark::DoNotOptimize(result.interactions);
    }
    report_rate(state, interactions);
}

// --- Agent-array engine --------------------------------------------------

void BM_AgentArrayUnobserved(benchmark::State& state) {
    run_agent_array(state, [](RunOptions&) {});
}
BENCHMARK(BM_AgentArrayUnobserved)->Arg(256)->Arg(4096);

void BM_AgentArrayNoopObserver(benchmark::State& state) {
    RunObserver noop;
    run_agent_array(state, [&](RunOptions& options) { options.observer = &noop; });
}
BENCHMARK(BM_AgentArrayNoopObserver)->Arg(256)->Arg(4096);

void BM_AgentArrayTraced(benchmark::State& state) {
    TraceRecorder recorder;
    run_agent_array(state, [&](RunOptions& options) {
        options.observer = &recorder;
        options.snapshots = SnapshotSchedule::every(4096);
    });
}
BENCHMARK(BM_AgentArrayTraced)->Arg(256)->Arg(4096);

// --- Count-batch engine --------------------------------------------------

void BM_BatchUnobserved(benchmark::State& state) {
    run_batch(state, [](RunOptions&) {});
}
BENCHMARK(BM_BatchUnobserved)->Arg(4096)->Arg(65536);

void BM_BatchNoopObserver(benchmark::State& state) {
    RunObserver noop;
    run_batch(state, [&](RunOptions& options) { options.observer = &noop; });
}
BENCHMARK(BM_BatchNoopObserver)->Arg(4096)->Arg(65536);

void BM_BatchTraced(benchmark::State& state) {
    TraceRecorder recorder;
    run_batch(state, [&](RunOptions& options) {
        options.observer = &recorder;
        options.snapshots = SnapshotSchedule::every(65536);
    });
}
BENCHMARK(BM_BatchTraced)->Arg(4096)->Arg(65536);

// --- Runtime telemetry (src/telemetry) -----------------------------------

void BM_AgentArrayTelemetryOff(benchmark::State& state) {
    // options.telemetry stays nullptr: this row prices the probe branches
    // themselves and must stay within noise of BM_AgentArrayUnobserved.
    run_agent_array(state, [](RunOptions& options) { options.telemetry = nullptr; });
}
BENCHMARK(BM_AgentArrayTelemetryOff)->Arg(4096);

void BM_AgentArrayTelemetryOn(benchmark::State& state) {
    telemetry::RunTelemetryCollector collector;
    run_agent_array(state, [&](RunOptions& options) { options.telemetry = &collector; });
}
BENCHMARK(BM_AgentArrayTelemetryOn)->Arg(4096);

void BM_BatchTelemetryOff(benchmark::State& state) {
    run_batch(state, [](RunOptions& options) { options.telemetry = nullptr; });
}
BENCHMARK(BM_BatchTelemetryOff)->Arg(65536);

void BM_BatchTelemetryOn(benchmark::State& state) {
    telemetry::RunTelemetryCollector collector;
    run_batch(state, [&](RunOptions& options) { options.telemetry = &collector; });
}
BENCHMARK(BM_BatchTelemetryOn)->Arg(65536);

void BM_BatchMetrics(benchmark::State& state) {
    MetricsCollector metrics;
    run_batch(state, [&](RunOptions& options) { options.observer = &metrics; });
}
BENCHMARK(BM_BatchMetrics)->Arg(4096);

void BM_BatchJsonl(benchmark::State& state) {
    // In-memory sink: measures event serialization, not disk throughput.
    const std::uint64_t n = 4096;
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 7, 7});
    std::uint64_t seed = 1;
    std::uint64_t interactions = 0;
    for (auto _ : state) {
        std::ostringstream sink;
        JsonlTraceWriter writer(sink);
        RunOptions options = batch_options(++seed);
        options.observer = &writer;
        options.snapshots = SnapshotSchedule::every(65536);
        const RunResult result = run_simulation(*protocol, initial, options);
        interactions += result.interactions;
        benchmark::DoNotOptimize(sink.str().size());
    }
    report_rate(state, interactions);
}
BENCHMARK(BM_BatchJsonl);

}  // namespace

POPPROTO_BENCHMARK_MAIN()
