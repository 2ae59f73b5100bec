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
// Every measured call is made once before it is counted, so lazily built
// process-wide tables do not land in one side's count only.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/batch_simulator.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "protocols/epidemic.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_allocation(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* block = std::malloc(size != 0 ? size : 1)) return block;
    throw std::bad_alloc();
}

}  // namespace

// Every unaligned allocating and freeing form is replaced, so no form pairs
// with a sanitizer runtime's own replacement: all of this executable's
// operator new storage is malloc'd and free'd.
void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
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
    // Each engine switch builds the next segment's stepper, so both budgets
    // must cross the same switches.  The thresholds pin the run to one
    // segment — count-batch, then collapsed — while the monitor still polls
    // every n/64 interactions.
    RunOptions options;
    options.engine = SimulationEngine::kAdaptive;
    options.adaptive.enter_collapsed = 1e18;
    expect_no_per_step_allocation(std::uint64_t{1} << 16, options);
    options.adaptive.enter_collapsed = 1e-12;
    options.adaptive.exit_collapsed = 0.0;
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

}  // namespace
}  // namespace popproto
