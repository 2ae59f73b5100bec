// Microbenchmarks for the service layer (src/service): session churn
// through the full registry (submit -> quanta -> terminal), the slicing
// overhead a quantum grid adds over a direct run_simulation call, how
// sliced runs scale with the worker count, the heap a finished session
// keeps, the checkpoint spill/fault round trip behind the LRU evictor, and
// the wire dispatch path.  Recorded as BENCH_bench_service.json by
// bench/run_benches.sh; EXPERIMENTS.md quotes the sustained-throughput
// numbers next to the daemon-level measurements from
// scripts/check_service.py.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/batch_simulator.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "service/checkpoint_store.h"
#include "service/registry.h"
#include "service/session.h"
#include "service/wire.h"

namespace {

using popproto::RunCheckpoint;
using popproto::RunOptions;
using popproto::RunResult;
using popproto::service::CheckpointStore;
using popproto::service::RegistryOptions;
using popproto::service::RunRegistry;
using popproto::service::SessionSpec;
using popproto::service::SessionStatus;

std::string bench_spill_dir(const std::string& name) {
    const auto path = std::filesystem::temp_directory_path() / ("popproto_bench_" + name);
    std::filesystem::remove_all(path);
    return path.string();
}

/// Submit -> terminal for `sessions` tiny runs per iteration: the session
/// lifecycle cost (validation, scheduling, quanta, state transitions)
/// dominates, not the simulation itself.  items_processed counts sessions,
/// so the report's items/s is sustained runs per second.
void BM_SessionChurn(benchmark::State& state) {
    const int sessions = static_cast<int>(state.range(0));
    RegistryOptions options;
    options.workers = 4;
    options.spill_dir = bench_spill_dir("churn");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {63, 1};
    spec.engine = "agent";

    std::uint64_t seed = 1;
    for (auto _ : state) {
        for (int i = 0; i < sessions; ++i) {
            spec.seed = seed++;
            registry.submit(spec);
        }
        registry.wait_idle();
    }
    state.SetItemsProcessed(state.iterations() * sessions);
    std::filesystem::remove_all(options.spill_dir);
}
BENCHMARK(BM_SessionChurn)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond)->UseRealTime();

SessionSpec overhead_spec() {
    // Epidemic with a budget below its ~n ln n convergence point: the run
    // is budget-bound, so every measurement executes the same fixed number
    // of interactions (outputs keep changing mid-epidemic, which keeps the
    // stability heuristic from stopping the run early).
    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {65535, 1};
    spec.seed = 17;
    spec.engine = "batch";
    spec.budget = std::uint64_t{1} << 19;
    return spec;
}

/// Baseline: the same workload as BM_RegistrySlicedRun in one direct
/// run_simulation call.  items/s is interactions per second; the gap to
/// the sliced run is the price of the quantum grid.
void BM_DirectRun(benchmark::State& state) {
    const SessionSpec spec = overhead_spec();
    const auto protocol = popproto::service::build_protocol(spec);
    const auto initial = popproto::service::build_initial(*protocol, spec);
    RunOptions options;
    options.seed = spec.seed;
    options.max_interactions = spec.budget;
    options.engine = popproto::service::parse_engine_name(spec.engine);
    for (auto _ : state) {
        const RunResult result = popproto::run_simulation(*protocol, initial, options);
        benchmark::DoNotOptimize(result.interactions);
    }
    state.SetItemsProcessed(state.iterations() * spec.budget);
}
BENCHMARK(BM_DirectRun)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The identical workload through the registry, sliced into
/// `state.range(0)`-interaction quanta (checkpoint save/restore and a
/// scheduler round trip at every boundary).
void BM_RegistrySlicedRun(benchmark::State& state) {
    RegistryOptions options;
    options.workers = 1;
    options.spill_dir = bench_spill_dir("sliced");
    RunRegistry registry(options);

    SessionSpec spec = overhead_spec();
    spec.quantum = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        ++spec.seed;  // fresh session each iteration, same workload shape
        registry.submit(spec);
        registry.wait_idle();
    }
    state.SetItemsProcessed(state.iterations() * spec.budget);
    std::filesystem::remove_all(options.spill_dir);
}
BENCHMARK(BM_RegistrySlicedRun)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Four concurrent BM_RegistrySlicedRun/65536 sessions per iteration on
/// `state.range(0)` workers.  Their batch-engine quanta make tens of
/// thousands of null skips each, so anything the workers share on the
/// per-event path shows as items/s that fails to grow with the worker
/// count.
void BM_RegistryWorkerScaling(benchmark::State& state) {
    constexpr int kSessions = 4;
    RegistryOptions options;
    options.workers = static_cast<unsigned>(state.range(0));
    options.spill_dir = bench_spill_dir("scaling");
    RunRegistry registry(options);

    SessionSpec spec = overhead_spec();
    spec.quantum = std::uint64_t{1} << 16;
    for (auto _ : state) {
        for (int i = 0; i < kSessions; ++i) {
            ++spec.seed;
            registry.submit(spec);
        }
        registry.wait_idle();
    }
    state.SetItemsProcessed(state.iterations() * kSessions * spec.budget);
    std::filesystem::remove_all(options.spill_dir);
}
BENCHMARK(BM_RegistryWorkerScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Daemon heap each finished session keeps: the growth of glibc's in-use
/// heap bytes over 20,000 tiny sessions, after 2,000 warm-up sessions have
/// sized the registry's tables and the allocator's caches.  Sessions are
/// submitted 16 at a time, so live sessions never pile up.  Reported as
/// the heap_bytes_per_session counter; the time is incidental.
void BM_FinishedSessionHeap(benchmark::State& state) {
    constexpr int kWarmup = 2000;
    constexpr int kSessions = 20000;
    RegistryOptions options;
    options.workers = 2;
    options.spill_dir = bench_spill_dir("heap");

    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {63, 1};
    spec.engine = "agent";

    double bytes_per_session = 0.0;
    for (auto _ : state) {
        RunRegistry registry(options);
        const auto run = [&](int sessions) {
            for (int i = 1; i <= sessions; ++i) {
                ++spec.seed;
                registry.submit(spec);
                if (i % 16 == 0) registry.wait_idle();
            }
            registry.wait_idle();
        };
        run(kWarmup);
        const double before = static_cast<double>(mallinfo2().uordblks);
        run(kSessions);
        bytes_per_session =
            (static_cast<double>(mallinfo2().uordblks) - before) / kSessions;
    }
    state.counters["heap_bytes_per_session"] = bytes_per_session;
    std::filesystem::remove_all(options.spill_dir);
}
BENCHMARK(BM_FinishedSessionHeap)->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The evictor's spill/fault round trip: atomically write a 2^20-state
/// count checkpoint, read it back, delete it.  items/s is round trips per
/// second; multiply by the checkpoint size for disk bandwidth.
void BM_CheckpointSpillFaultRoundTrip(benchmark::State& state) {
    const std::string dir = bench_spill_dir("spill");
    CheckpointStore store(dir);
    RunCheckpoint checkpoint;
    checkpoint.engine = popproto::ObservedEngine::kCountBatch;
    checkpoint.population = std::uint64_t{1} << 20;
    checkpoint.num_states = 64;
    checkpoint.rng.words = {1, 2, 3, 4};
    checkpoint.interactions = 123456789;
    checkpoint.counts.assign(64, (std::uint64_t{1} << 20) / 64);
    for (auto _ : state) {
        store.save_checkpoint("s-1", checkpoint);
        const RunCheckpoint loaded = store.load_checkpoint("s-1");
        benchmark::DoNotOptimize(loaded.interactions);
        store.remove("s-1");
    }
    state.SetItemsProcessed(state.iterations());
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointSpillFaultRoundTrip);

/// The wire layer without sockets: parse a status request, dispatch it
/// against a registry holding one terminal session, serialize the
/// response.  items/s bounds the command throughput one connection thread
/// can sustain.
void BM_WireStatusDispatch(benchmark::State& state) {
    RegistryOptions options;
    options.spill_dir = bench_spill_dir("wire");
    RunRegistry registry(options);
    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {63, 1};
    spec.engine = "agent";
    const std::string id = registry.submit(spec);
    registry.wait_idle();

    const std::string line = "{\"cmd\":\"status\",\"session\":\"" + id + "\"}";
    for (auto _ : state) {
        const auto response =
            popproto::service::dispatch_request(registry, popproto::service::parse_request(line));
        benchmark::DoNotOptimize(response);
    }
    state.SetItemsProcessed(state.iterations());
    std::filesystem::remove_all(options.spill_dir);
}
BENCHMARK(BM_WireStatusDispatch);

}  // namespace

POPPROTO_BENCHMARK_MAIN()
