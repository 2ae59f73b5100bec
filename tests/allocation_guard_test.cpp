// Allocation guard: the engines never allocate per step.
//
// This executable replaces the global operator new with a counting one.  It
// is an executable of its own so that the counter reaches no other test.
// Each check runs the same call shape twice with a different length or
// population, and demands exactly equal allocation counts:
//   * a count-engine run 8x longer (budget n against 8n) — every allocation
//     is per-run setup, none is per effective interaction or super-step;
//   * an agent-array run or resume 16x larger (n = 2^10 against 2^14) —
//     setup and restore allocate per run, never per agent.
// A resumed service quantum may allocate no more often than a run's first
// quantum: a passing check builds no message.
// Every measured call is made once before it is counted, so lazily built
// process-wide tables do not land in one side's count only.
//
// The replacement can also cap single allocations (AllocationCap), so a
// reader that would size a vector from a corrupt length, or a compiler that
// would tabulate an oversize predicate, throws std::bad_alloc at once
// instead of exhausting the host's memory.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "core/batch_simulator.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "protocols/epidemic.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_allocation_cap{~std::size_t{0}};

void* capped_malloc(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size > g_allocation_cap.load(std::memory_order_relaxed)) return nullptr;
    return std::malloc(size != 0 ? size : 1);
}

void* counted_allocation(std::size_t size) {
    if (void* block = capped_malloc(size)) return block;
    throw std::bad_alloc();
}

}  // namespace

// Every unaligned allocating and freeing form is replaced, so no form pairs
// with a sanitizer runtime's own replacement: all of this executable's
// operator new storage is malloc'd and free'd.
void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return capped_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return capped_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept { std::free(block); }
void operator delete[](void* block, const std::nothrow_t&) noexcept { std::free(block); }

namespace popproto {
namespace {

/// Allocations made by the second of two calls of `call`.
std::uint64_t steady_allocations(const std::function<void()>& call) {
    call();
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    call();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Allocations of one epidemic run from {n - 1, 1} under `options` with
/// budget `budget`.
std::uint64_t epidemic_run_allocations(std::uint64_t n, std::uint64_t budget,
                                       RunOptions options) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 1, 1});
    options.seed = 17;
    options.max_interactions = budget;
    return steady_allocations([&] { run_simulation(*protocol, initial, options); });
}

void expect_no_per_step_allocation(std::uint64_t n, const RunOptions& options) {
    const std::uint64_t short_run = epidemic_run_allocations(n, n, options);
    const std::uint64_t long_run = epidemic_run_allocations(n, 8 * n, options);
    EXPECT_EQ(short_run, long_run) << "n = " << n;
}

TEST(AllocationGuard, CountBatchStepsDoNotAllocate) {
    RunOptions options;
    options.engine = SimulationEngine::kCountBatch;
    expect_no_per_step_allocation(std::uint64_t{1} << 12, options);
}

TEST(AllocationGuard, CollapsedSuperStepsDoNotAllocate) {
    RunOptions options;
    options.engine = SimulationEngine::kCollapsedBatch;
    expect_no_per_step_allocation(std::uint64_t{1} << 16, options);
}

TEST(AllocationGuard, AdaptiveSegmentsDoNotAllocatePerStep) {
    // The first super-step builds the collapsed part, so both budgets must
    // take the same kinds of step.  The crossover pins the run to one kind
    // — count-batch, then collapsed — while every loop top still tests it.
    RunOptions options;
    options.engine = SimulationEngine::kAdaptive;
    options.adaptive.crossover = 1e18;
    expect_no_per_step_allocation(std::uint64_t{1} << 16, options);
    options.adaptive.crossover = 1e-12;
    expect_no_per_step_allocation(std::uint64_t{1} << 16, options);
}

/// Collects every checkpoint a run emits.
class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

/// Allocations of an agent-array epidemic run at population n, budget n:
/// fresh, or resumed from a checkpoint taken half-way.
std::uint64_t agent_array_allocations(std::uint64_t n, bool resume) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 1, 1});
    RunOptions options;
    options.seed = 23;
    options.max_interactions = n;
    CollectingSink sink;
    if (resume) {
        RunOptions checkpointed = options;
        checkpointed.checkpoint_every = n / 2;
        checkpointed.checkpoint_sink = &sink;
        simulate(*protocol, initial, checkpointed);
        EXPECT_FALSE(sink.checkpoints.empty());
        if (sink.checkpoints.empty()) return 0;
        options.resume_from = &sink.checkpoints.front();
    }
    return steady_allocations([&] { simulate(*protocol, initial, options); });
}

TEST(AllocationGuard, AgentArrayRunAllocatesPerRunNotPerAgent) {
    EXPECT_EQ(agent_array_allocations(std::uint64_t{1} << 10, false),
              agent_array_allocations(std::uint64_t{1} << 14, false));
}

TEST(AllocationGuard, AgentArrayResumeAllocatesPerRunNotPerAgent) {
    EXPECT_EQ(agent_array_allocations(std::uint64_t{1} << 10, true),
              agent_array_allocations(std::uint64_t{1} << 14, true));
}

/// Allocations of one service quantum of n interactions of an epidemic at
/// n = 2^12: the run's first quantum, or the second one resumed from the
/// first one's pause checkpoint, as the daemon slices a session.  Each
/// quantum delivers one checkpoint.
std::uint64_t quantum_allocations(SimulationEngine engine, bool resumed) {
    const std::uint64_t n = std::uint64_t{1} << 12;
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 1, 1});
    RunOptions options;
    options.engine = engine;
    options.seed = 29;
    CollectingSink sink;
    options.checkpoint_sink = &sink;
    options.pause_after = n;
    EXPECT_EQ(run_simulation(*protocol, initial, options).stop_reason, StopReason::kPaused);
    const RunCheckpoint first = sink.checkpoints.back();
    if (resumed) {
        options.resume_from = &first;
        options.pause_after = 2 * n;
    }
    return steady_allocations([&] {
        sink.checkpoints.clear();
        EXPECT_EQ(run_simulation(*protocol, initial, options).stop_reason, StopReason::kPaused);
    });
}

TEST(AllocationGuard, ResumedQuantumAllocatesNoMoreThanTheFirst) {
    for (const SimulationEngine engine :
         {SimulationEngine::kCountBatch, SimulationEngine::kAgentArray})
        EXPECT_LE(quantum_allocations(engine, true), quantum_allocations(engine, false))
            << "engine " << static_cast<int>(engine);
}

/// Caps single allocations for its scope: a larger request fails as it
/// would under an address-space limit, without touching any memory.
class AllocationCap {
public:
    explicit AllocationCap(std::size_t bytes) { g_allocation_cap.store(bytes); }
    ~AllocationCap() { g_allocation_cap.store(~std::size_t{0}); }
    AllocationCap(const AllocationCap&) = delete;
    AllocationCap& operator=(const AllocationCap&) = delete;
};

/// `text` with its first `from` replaced by `to`.
std::string with(std::string text, const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
}

TEST(AllocationGuard, CheckpointLengthsAreCheckedBeforeAnythingIsSized) {
    // Each corrupt text declares a length far beyond the values its line
    // holds.  Sized up front, these vectors would take 0.8 GB, 32 GB, 32 GB
    // and 16 GB; the reader must name the bad length instead.
    RunCheckpoint counts;
    counts.engine = ObservedEngine::kCountBatch;
    counts.population = 3;
    counts.num_states = 2;
    counts.counts = {1, 2};
    const std::string count_text = checkpoint_to_string(counts);
    RunCheckpoint agents;
    agents.engine = ObservedEngine::kPairModel;
    agents.population = 2;
    agents.num_states = 2;
    agents.interaction_model = "sweep";
    agents.model_state = {1, 2, 3};
    agents.agent_states = {0, 1};
    const std::string agent_text = checkpoint_to_string(agents);
    const std::string corrupt[] = {
        with(count_text, "counts 2 1 2", "counts 100000000 1 2"),
        with(with(count_text, "num_states 2", "num_states 4000000000"), "counts 2 1 2",
             "counts 4000000000 1 2"),
        with(agent_text, "interaction_model sweep 3", "interaction_model sweep 4294967296"),
        with(with(agent_text, "population 2", "population 4000000000"), "agents 2 0 1",
             "agents 4000000000 0 1"),
    };

    const AllocationCap cap(std::size_t{64} << 20);
    for (const std::string& text : corrupt) {
        try {
            checkpoint_from_string(text);
            ADD_FAILURE() << "read a corrupt checkpoint:\n" << text;
        } catch (const std::invalid_argument& error) {
            EXPECT_EQ(std::string(error.what()).rfind("read_checkpoint: line ", 0), 0u)
                << error.what();
        } catch (const std::bad_alloc&) {
            ADD_FAILURE() << "sized a vector from a corrupt length:\n" << text;
        }
    }
}

TEST(AllocationGuard, OversizePredicatesAreRefusedBeforeAnythingIsSized) {
    // x0 < 1000000 is one threshold atom of 8,000,012 states: tabulated in
    // full, its state names alone would take 256 MB.  Its reachable states
    // pass the compiler's cap first, and the compiler must name the cap.
    const AllocationCap cap(std::size_t{64} << 20);
    try {
        compile_formula(parse_formula("x0 < 1000000"));
        ADD_FAILURE() << "compiled an oversize predicate";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("more than 2048 states"), std::string::npos)
            << error.what();
    } catch (const std::bad_alloc&) {
        ADD_FAILURE() << "sized a table for an oversize predicate";
    }
}

}  // namespace
}  // namespace popproto
