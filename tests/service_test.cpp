// The service layer (src/service): DRR fair scheduling in deterministic
// virtual time, quantum-sliced execution bit-identical to direct runs,
// suspend -> evict -> fault-back bit-identity, graceful drain + restore,
// the per-quantum metrics merge, finished-session records, and the
// checkpoint spill store.  The wire protocol and socket transport
// are covered in service_wire_test.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_simulator.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "protocols/epidemic.h"
#include "scenarios/adversarial.h"
#include "service/checkpoint_store.h"
#include "service/registry.h"
#include "service/scheduler.h"
#include "service/session.h"

namespace popproto::service {
namespace {

// ---------------------------------------------------------------------------
// DrrScheduler: deterministic virtual time, no threads involved.

TEST(DrrScheduler, EverySessionDispatchedOncePerEpochAtEqualWeights) {
    DrrScheduler scheduler;
    for (int i = 0; i < 5; ++i) scheduler.add("s-" + std::to_string(i), 1);

    // Two full epochs: the dispatch order is a strict rotation.
    std::vector<std::string> order;
    for (int i = 0; i < 10; ++i) {
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        order.push_back(entry->id);
        scheduler.give_back(*std::move(entry), /*still_runnable=*/true);
    }
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], "s-" + std::to_string(i % 5)) << i;
}

TEST(DrrScheduler, HugeSessionCannotStarveAHundredTinyOnes) {
    // The acceptance scenario in deterministic virtual time: one 2^20-agent
    // session with a practically unbounded backlog shares the ring with 100
    // tiny sessions needing 3 quanta each.  Every session must progress in
    // every epoch, and all tiny sessions must finish within 3 epochs.
    DrrScheduler scheduler;
    scheduler.add("huge", 1);
    std::map<std::string, int> remaining;
    for (int i = 0; i < 100; ++i) {
        const std::string id = "tiny-" + std::to_string(i);
        scheduler.add(id, 1);
        remaining[id] = 3;
    }

    std::uint64_t huge_quanta = 0;
    std::uint64_t dispatches = 0;
    std::map<std::string, std::uint64_t> last_seen_epoch;
    while (!remaining.empty()) {
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        const std::uint64_t epoch = dispatches / 101;
        ++dispatches;
        ASSERT_LE(dispatches, 3u * 101u) << "tiny sessions did not finish in 3 epochs";
        if (entry->id == "huge") {
            ++huge_quanta;  // the huge run always has another quantum
            last_seen_epoch["huge"] = epoch;
            scheduler.give_back(*std::move(entry), true);
            continue;
        }
        last_seen_epoch[entry->id] = epoch;
        const bool more = --remaining[entry->id] > 0;
        if (!more) remaining.erase(entry->id);
        scheduler.give_back(*std::move(entry), more);
    }
    // The huge session was dispatched exactly once per full epoch — it
    // progressed every epoch and never monopolized the ring.
    EXPECT_EQ(huge_quanta, 3u);
}

TEST(DrrScheduler, WeightsGrantProportionalQuantaPerEpoch) {
    DrrScheduler scheduler;
    scheduler.add("heavy", 3);
    scheduler.add("light", 1);

    std::map<std::string, int> quanta;
    for (int i = 0; i < 8; ++i) {  // two epochs of 4 dispatches
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        ++quanta[entry->id];
        scheduler.give_back(*std::move(entry), true);
    }
    EXPECT_EQ(quanta["heavy"], 6);
    EXPECT_EQ(quanta["light"], 2);
}

TEST(DrrScheduler, WeightedSessionKeepsItsTurnUntilTheDeficitIsSpent) {
    DrrScheduler scheduler;
    scheduler.add("a", 2);
    scheduler.add("b", 1);
    // a, a (deficit continues the turn), then b.
    std::vector<std::string> order;
    for (int i = 0; i < 3; ++i) {
        auto entry = scheduler.take();
        ASSERT_TRUE(entry.has_value());
        order.push_back(entry->id);
        scheduler.give_back(*std::move(entry), true);
    }
    EXPECT_EQ(order, (std::vector<std::string>{"a", "a", "b"}));
}

TEST(DrrScheduler, RemoveAndMembershipRules) {
    DrrScheduler scheduler;
    scheduler.add("a", 1);
    scheduler.add("b", 1);
    EXPECT_THROW(scheduler.add("a", 1), std::invalid_argument);  // already queued
    EXPECT_TRUE(scheduler.remove("a"));
    EXPECT_FALSE(scheduler.remove("a"));  // already gone
    EXPECT_EQ(scheduler.size(), 1u);

    auto entry = scheduler.take();
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->id, "b");
    EXPECT_FALSE(scheduler.remove("b"));  // dispatched entries are not in the ring
    scheduler.give_back(*std::move(entry), /*still_runnable=*/false);
    EXPECT_TRUE(scheduler.empty());
}

// ---------------------------------------------------------------------------
// CheckpointStore.

std::string fresh_dir(const std::string& name) {
    const auto path = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path);
    return path.string();
}

TEST(CheckpointStoreTest, RoundTripsCheckpointsAndManifests) {
    const std::string dir = fresh_dir("popproto_store_test");
    CheckpointStore store(dir);

    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kCountBatch;
    checkpoint.population = 10;
    checkpoint.num_states = 2;
    checkpoint.rng.words = {1, 2, 3, 4};
    checkpoint.interactions = 42;
    checkpoint.counts = {7, 3};

    EXPECT_FALSE(store.has_checkpoint("s-1"));
    store.save_checkpoint("s-1", checkpoint);
    EXPECT_TRUE(store.has_checkpoint("s-1"));
    EXPECT_EQ(store.load_checkpoint("s-1"), checkpoint);

    store.save_manifest("s-1", "{\"id\":\"s-1\"}");
    store.save_manifest("s-2", "{\"id\":\"s-2\"}");
    const auto manifests = store.list_manifests();
    ASSERT_EQ(manifests.size(), 2u);
    EXPECT_EQ(manifests[0].first, "s-1");
    EXPECT_EQ(manifests[0].second, "{\"id\":\"s-1\"}");
    EXPECT_EQ(manifests[1].first, "s-2");

    store.remove("s-1");
    EXPECT_FALSE(store.has_checkpoint("s-1"));
    EXPECT_EQ(store.list_manifests().size(), 1u);
    store.remove("s-1");  // missing files are not an error

    EXPECT_THROW(store.load_checkpoint("s-1"), std::runtime_error);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// RunRegistry.

/// RunOptions matching what the registry resolves from a spec, for direct
/// uninterrupted reference runs.
RunOptions direct_options(const SessionSpec& spec) {
    RunOptions options;
    options.seed = spec.seed;
    options.max_interactions = spec.budget;
    options.engine = parse_engine_name(spec.engine);
    return options;
}

RunResult direct_run(const SessionSpec& spec) {
    const auto protocol = build_protocol(spec);
    const auto initial = build_initial(*protocol, spec);
    if (spec.model != "uniform")
        return run_scenario(*protocol, initial, scenario_spec_from(spec),
                            direct_options(spec));
    return run_simulation(*protocol, initial, direct_options(spec));
}

/// The sliced run and the uninterrupted run must agree on every field a
/// SessionStatus exposes.
void expect_matches_direct(const SessionStatus& status, const RunResult& direct) {
    EXPECT_EQ(status.interactions, direct.interactions);
    EXPECT_EQ(status.effective_interactions, direct.effective_interactions);
    EXPECT_EQ(status.last_output_change, direct.last_output_change);
    ASSERT_TRUE(status.stop_reason.has_value());
    EXPECT_EQ(*status.stop_reason, direct.stop_reason);
    EXPECT_EQ(status.consensus.has_value(), direct.consensus.has_value());
    if (status.consensus && direct.consensus) {
        EXPECT_EQ(*status.consensus, *direct.consensus);
    }
}

/// Polls `status(id)` until `done` returns true or ~30 s elapse.
SessionStatus wait_for(RunRegistry& registry, const std::string& id,
                       const std::function<bool(const SessionStatus&)>& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        const SessionStatus status = registry.status(id);
        if (done(status)) return status;
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "timed out waiting on " << id << " (state "
                          << session_state_name(status.state) << ")";
            return status;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

bool is_terminal(const SessionStatus& status) {
    return status.state == SessionState::kDone || status.state == SessionState::kFailed ||
           status.state == SessionState::kCancelled;
}

TEST(RunRegistryTest, SubmitValidatesSpecsEagerly) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_validate");
    RunRegistry registry(options);

    SessionSpec empty_counts;
    empty_counts.counts = {};
    EXPECT_THROW(registry.submit(empty_counts), std::invalid_argument);

    SessionSpec too_small;
    too_small.counts = {1};
    EXPECT_THROW(registry.submit(too_small), std::invalid_argument);

    SessionSpec unknown_protocol;
    unknown_protocol.protocol = "nope";
    unknown_protocol.counts = {10, 2};
    EXPECT_THROW(registry.submit(unknown_protocol), std::invalid_argument);

    SessionSpec unknown_engine;
    unknown_engine.counts = {10, 2};
    unknown_engine.engine = "warp";
    EXPECT_THROW(registry.submit(unknown_engine), std::invalid_argument);

    SessionSpec bad_predicate;
    bad_predicate.protocol = "predicate";
    bad_predicate.predicate = "((";
    bad_predicate.counts = {10, 2};
    EXPECT_THROW(registry.submit(bad_predicate), std::invalid_argument);

    // One threshold atom of 8,000,012 states: its reachable states pass the
    // compiler's cap before any table is sized, and the error names the cap.
    SessionSpec oversize_predicate = bad_predicate;
    oversize_predicate.predicate = "x0 < 1000000";
    try {
        registry.submit(oversize_predicate);
        ADD_FAILURE() << "submitted an oversize predicate";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("more than 2048 states"), std::string::npos)
            << error.what();
    }
    EXPECT_TRUE(registry.list().empty());

    EXPECT_THROW(registry.status("s-404"), std::invalid_argument);
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, QuantumSlicedRunMatchesTheDirectRun) {
    RegistryOptions options;
    options.workers = 2;
    options.spill_dir = fresh_dir("popproto_registry_sliced");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "counting";
    spec.threshold = 3;
    spec.counts = {40, 8};
    spec.seed = 11;
    spec.quantum = 97;  // coprime to everything: cuts land mid-everything
    spec.engine = "agent";

    const std::string id = registry.submit(spec);
    registry.wait_idle();
    const SessionStatus status = registry.status(id);
    EXPECT_EQ(status.state, SessionState::kDone);
    EXPECT_GT(status.quanta, 1u) << "quantum too large to exercise slicing";
    expect_matches_direct(status, direct_run(spec));
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, SlicedBatchEngineCutsInsideNullSkipsMatchTheDirectRun) {
    // Token-sparse population on the batch engine: quantum boundaries fall
    // inside geometric null skips, the hardest slicing case.
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_batch");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "counting";
    spec.threshold = 2;
    spec.counts = {19998, 2};
    spec.seed = 3;
    spec.engine = "batch";
    spec.quantum = 10000;
    spec.budget = 400000;  // stop on budget: a deterministic endpoint

    const std::string id = registry.submit(spec);
    registry.wait_idle();
    const SessionStatus status = registry.status(id);
    EXPECT_EQ(status.state, SessionState::kDone);
    EXPECT_GT(status.quanta, 10u);
    expect_matches_direct(status, direct_run(spec));
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, ScenarioSessionsSlicedThroughTheDaemonMatchDirectRuns) {
    // The acceptance property of the interaction-model layer at the service
    // level: a scenario session executed in daemon quanta must reproduce the
    // direct uninterrupted run_scenario result bit-for-bit.
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_scenario");
    RunRegistry registry(options);

    for (const std::string& model : {std::string("adversarial"), std::string("round_robin"),
                                     std::string("grid_mobility")}) {
        SessionSpec spec;
        spec.protocol = "epidemic";
        spec.counts = {63, 1};
        spec.seed = 29;
        spec.model = model;
        spec.budget = 20000;
        spec.quantum = 97;  // coprime: cuts land mid-epoch/mid-cycle/mid-walk

        const std::string id = registry.submit(spec);
        registry.wait_idle();
        const SessionStatus status = registry.status(id);
        EXPECT_EQ(status.state, SessionState::kDone) << model << ": " << status.error;
        EXPECT_GT(status.quanta, 1u) << model;
        expect_matches_direct(status, direct_run(spec));
    }
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, SubmitRejectsInvalidScenarioSpecs) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_scenario_validate");
    RunRegistry registry(options);

    SessionSpec unknown_model;
    unknown_model.counts = {10, 2};
    unknown_model.model = "teleport";
    EXPECT_THROW(registry.submit(unknown_model), std::invalid_argument);

    SessionSpec wrong_engine;
    wrong_engine.counts = {10, 2};
    wrong_engine.model = "round_robin";
    wrong_engine.engine = "batch";
    EXPECT_THROW(registry.submit(wrong_engine), std::invalid_argument);

    SessionSpec no_phases;
    no_phases.counts = {10, 2};
    no_phases.model = "dynamic_graph";
    EXPECT_THROW(registry.submit(no_phases), std::invalid_argument);

    // The adversarial window is sized by the probe: n = 2^16 with a huge
    // probe would ask for n(n - 1) 32-byte entries, so it is refused by name
    // at the cap, and the cap itself is accepted.
    SessionSpec huge_probe;
    huge_probe.counts = {(1u << 16) - 1, 1};
    huge_probe.model = "adversarial";
    huge_probe.probe = 1'000'000'000'000;
    try {
        registry.submit(huge_probe);
        ADD_FAILURE() << "submitted a probe past the cap";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("at most 65536"), std::string::npos)
            << error.what();
    }
    huge_probe.probe = AdversarialCoverModel::kMaxProbeWindow + 1;
    EXPECT_THROW(registry.submit(huge_probe), std::invalid_argument);
    EXPECT_TRUE(registry.list().empty());
    const auto epidemic = make_epidemic_protocol();
    EXPECT_THROW(AdversarialCoverModel(*epidemic, 1u << 16,
                                       AdversarialCoverModel::kMaxProbeWindow + 1),
                 std::invalid_argument);
    EXPECT_EQ(AdversarialCoverModel(*epidemic, 1u << 16, AdversarialCoverModel::kMaxProbeWindow)
                  .num_pairs(),
              (std::uint64_t{1} << 16) * ((1u << 16) - 1));

    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, BoundedAdmissionQueueRejectsThenRecovers) {
    RegistryOptions options;
    options.workers = 1;
    options.max_queued = 2;
    options.spill_dir = fresh_dir("popproto_registry_admission");
    RunRegistry registry(options);

    // Two sessions with far-off budgets hold the backlog (queued + running)
    // at the bound for the whole test window.
    SessionSpec big;
    big.protocol = "epidemic";
    big.counts = {(std::uint64_t{1} << 20) - 1, 1};
    big.seed = 5;
    big.engine = "agent";
    big.budget = std::uint64_t{1} << 30;
    big.quantum = 1 << 16;
    const std::string first = registry.submit(big);
    const std::string second = registry.submit(big);

    try {
        registry.submit(big);
        FAIL() << "third submit should have hit the admission bound";
    } catch (const QueueFullError& error) {
        EXPECT_EQ(error.queued, 2u);
        EXPECT_EQ(error.max_queued, 2u);
        EXPECT_NE(std::string(error.what()).find("admission queue is full"),
                  std::string::npos);
    }

    // stats reports the live backlog and the bound.
    const std::string stats = registry.stats_json();
    EXPECT_NE(stats.find("\"queue_depth\":2"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"max_queued\":2"), std::string::npos) << stats;

    // Freeing a slot (cancel drains the session from the backlog) re-opens
    // admission.
    registry.cancel(first);
    wait_for(registry, first, is_terminal);
    EXPECT_NO_THROW(registry.submit(big));

    registry.cancel(second);
    for (const SessionStatus& status : registry.list())
        if (!is_terminal(status)) registry.cancel(status.id);
    registry.wait_idle();
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, RejectedSubmitLeavesNoSessionBehind) {
    // A weight-0 submit must fail before the registry changes state: no
    // session stays queued forever, and none counts against max_queued.
    RegistryOptions options;
    options.workers = 1;
    options.max_queued = 1;
    options.spill_dir = fresh_dir("popproto_registry_weight0");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.counts = {63, 1};
    spec.weight = 0;
    EXPECT_THROW(registry.submit(spec), std::invalid_argument);
    EXPECT_TRUE(registry.list().empty());

    spec.weight = 1;
    const std::string id = registry.submit(spec);
    registry.wait_idle();
    EXPECT_EQ(registry.status(id).state, SessionState::kDone);
    std::filesystem::remove_all(options.spill_dir);
}

/// A session big enough that suspend reliably lands mid-run: 128 quanta
/// of dense agent-array work.  The budget sits well below the epidemic's
/// ~16n silence point (measured ~16.8M interactions at n = 2^20), so the
/// run is budget-bound — it cannot converge early and shrink the window
/// the suspend/drain tests race against.
SessionSpec long_running_spec() {
    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {(std::uint64_t{1} << 20) - 1, 1};
    spec.seed = 21;
    spec.engine = "agent";
    spec.quantum = 1 << 16;
    spec.budget = std::uint64_t{128} << 16;  // 8.4M: mid-epidemic, ~0.2 s
    return spec;
}

TEST(RunRegistryTest, SuspendEvictResumeIsBitIdentical) {
    RegistryOptions options;
    options.max_resident_suspended = 0;  // every suspend spills immediately
    options.spill_dir = fresh_dir("popproto_registry_evict");
    RunRegistry registry(options);

    const SessionSpec spec = long_running_spec();
    const std::string id = registry.submit(spec);

    // Let it execute at least one quantum, then suspend mid-run.
    wait_for(registry, id, [](const SessionStatus& s) { return s.quanta >= 2; });
    registry.suspend(id);
    const SessionStatus suspended = wait_for(registry, id, [](const SessionStatus& s) {
        return s.state == SessionState::kEvicted || is_terminal(s);
    });
    ASSERT_EQ(suspended.state, SessionState::kEvicted)
        << "run finished before the suspend landed; enlarge the budget";
    EXPECT_LT(suspended.interactions, spec.budget);
    EXPECT_TRUE(registry.store().has_checkpoint(id)) << "eviction did not spill";
    registry.suspend(id);  // idempotent on an already-suspended session

    // Resume faults the checkpoint back in; the completed run must be
    // bit-identical to the run that was never suspended.
    registry.resume(id);
    registry.wait_idle();
    const SessionStatus final_status = registry.status(id);
    EXPECT_EQ(final_status.state, SessionState::kDone);
    expect_matches_direct(final_status, direct_run(spec));
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, CancelIsTerminalAndIdempotentWhereMeaningful) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_cancel");
    RunRegistry registry(options);

    const std::string id = registry.submit(long_running_spec());
    registry.cancel(id);
    const SessionStatus cancelled =
        wait_for(registry, id, [](const SessionStatus& s) { return is_terminal(s); });
    EXPECT_EQ(cancelled.state, SessionState::kCancelled);
    registry.cancel(id);  // cancelling a cancelled session stays cancelled
    EXPECT_THROW(registry.resume(id), std::invalid_argument);
    EXPECT_THROW(registry.suspend(id), std::invalid_argument);
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, DrainThenRestoreLosesNothingAndStaysBitIdentical) {
    const std::string dir = fresh_dir("popproto_registry_drain");
    const SessionSpec long_spec = long_running_spec();

    SessionSpec quick_spec;
    quick_spec.protocol = "counting";
    quick_spec.threshold = 2;
    quick_spec.counts = {10, 2};
    quick_spec.seed = 5;
    quick_spec.engine = "agent";
    quick_spec.name = "quick";

    std::string long_id, quick_id;
    SessionStatus quick_before;
    {
        RegistryOptions options;
        options.spill_dir = dir;
        RunRegistry registry(options);
        long_id = registry.submit(long_spec);
        quick_id = registry.submit(quick_spec);
        wait_for(registry, quick_id, [](const SessionStatus& s) { return is_terminal(s); });
        wait_for(registry, long_id, [](const SessionStatus& s) { return s.quanta >= 2; });
        quick_before = registry.status(quick_id);
        registry.drain();
        const SessionStatus drained = registry.status(long_id);
        EXPECT_FALSE(is_terminal(drained)) << "long run finished before the drain";
        EXPECT_GT(drained.interactions, 0u);
    }  // daemon process "exits" here

    RegistryOptions options;
    options.spill_dir = dir;
    RunRegistry restarted(options);
    EXPECT_EQ(restarted.restore(), 2u);

    // The terminal session survived verbatim.
    const SessionStatus quick_after = restarted.status(quick_id);
    EXPECT_EQ(quick_after.state, SessionState::kDone);
    EXPECT_EQ(quick_after.name, "quick");
    EXPECT_EQ(quick_after.interactions, quick_before.interactions);
    EXPECT_EQ(quick_after.effective_interactions, quick_before.effective_interactions);

    // The in-flight session resumes across the restart and still matches
    // the run that was never interrupted.
    restarted.wait_idle();
    const SessionStatus final_status = restarted.status(long_id);
    EXPECT_EQ(final_status.state, SessionState::kDone);
    expect_matches_direct(final_status, direct_run(long_spec));

    // New submissions do not collide with restored ids.
    const std::string fresh = restarted.submit(quick_spec);
    EXPECT_NE(fresh, long_id);
    EXPECT_NE(fresh, quick_id);
    restarted.wait_idle();
    std::filesystem::remove_all(dir);
}

TEST(RunRegistryTest, HundredsOfConcurrentSessionsAllReachTerminalStates) {
    RegistryOptions options;
    options.workers = 4;
    options.spill_dir = fresh_dir("popproto_registry_many");
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {63, 1};
    spec.engine = "agent";

    std::vector<std::string> ids;
    for (int i = 0; i < 300; ++i) {
        spec.seed = static_cast<std::uint64_t>(i) + 1;
        ids.push_back(registry.submit(spec));
    }
    registry.wait_idle();
    for (const std::string& id : ids) {
        const SessionStatus status = registry.status(id);
        EXPECT_EQ(status.state, SessionState::kDone) << id;
        EXPECT_TRUE(status.stop_reason.has_value()) << id;
    }
    EXPECT_EQ(registry.list().size(), 300u);
    std::filesystem::remove_all(options.spill_dir);
}

/// The mix the metrics test submits: quantum-sliced batch sessions (null
/// skips cut at pause boundaries, snapshots streamed), short agent-array
/// sessions, and adversarial-model sessions.
std::vector<SessionSpec> metrics_mix() {
    std::vector<SessionSpec> specs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SessionSpec sliced;
        sliced.protocol = "epidemic";
        sliced.counts = {4095, 1};
        sliced.engine = "batch";
        sliced.budget = 8 * 4096;
        sliced.quantum = 4096;
        sliced.snapshot_every = 1000;
        sliced.seed = seed;
        specs.push_back(sliced);

        SessionSpec short_run;
        short_run.protocol = "epidemic";
        short_run.counts = {63, 1};
        short_run.engine = "agent";
        short_run.seed = seed;
        specs.push_back(short_run);

        SessionSpec adversarial = short_run;
        adversarial.engine = "auto";
        adversarial.model = "adversarial";
        specs.push_back(adversarial);
    }
    return specs;
}

TEST(RunRegistryTest, MetricsAggregateDoesNotDependOnWorkerCount) {
    // Each settled quantum folds its RunResult, event tallies included, into
    // the aggregate: every quantum must count exactly once however many
    // workers interleave them, and a quantum counts the same events whether
    // a subscriber made it carry a trace observer or not.  Only the
    // wall-clock fields may differ between the registries.
    const auto stats_after_mix = [](unsigned workers, bool watched) {
        RegistryOptions options;
        options.workers = workers;
        options.spill_dir = fresh_dir("popproto_registry_metrics_" + std::to_string(workers));
        // Declared before the registry, whose workers may still publish a
        // final state event after wait_idle returns.
        std::mutex lines_mutex;
        std::size_t lines = 0;
        RunRegistry registry(options);
        for (const SessionSpec& spec : metrics_mix()) {
            const std::string id = registry.submit(spec);
            if (watched)
                registry.subscribe(id, /*token=*/1, [&](const std::string&) {
                    const std::lock_guard<std::mutex> lock(lines_mutex);
                    ++lines;
                });
        }
        registry.wait_idle();
        const JsonValue stats = parse_json(registry.stats_json());
        std::filesystem::remove_all(options.spill_dir);
        if (watched) {
            const std::lock_guard<std::mutex> lock(lines_mutex);
            EXPECT_GT(lines, 0u) << "no watched quantum streamed an event";
        }
        return stats;
    };
    const JsonValue serial = stats_after_mix(1, false);
    const JsonValue parallel = stats_after_mix(4, false);
    const JsonValue watched = stats_after_mix(2, true);

    for (const JsonValue* stats : {&serial, &parallel, &watched}) {
        const JsonValue& metrics = *stats->find("metrics");
        const auto count = [&](const char* key) { return metrics.find(key)->as_u64(key); };
        EXPECT_EQ(count("runs_finished"), stats->find("quanta")->as_u64("quanta"));
        EXPECT_EQ(count("runs_started"), count("runs_finished"));
        EXPECT_EQ(count("stops_silent") + count("stops_stable_outputs") +
                      count("stops_budget") + count("stops_paused"),
                  count("runs_finished"));
        EXPECT_GT(count("stops_paused"), 0u) << "no session was sliced";
        EXPECT_GT(count("null_runs"), 0u);
        EXPECT_GT(count("snapshots"), 0u);
        EXPECT_GT(count("output_changes"), 0u);
    }
    const JsonValue::Object& serial_metrics = serial.find("metrics")->as_object("metrics");
    for (const JsonValue* other : {&parallel, &watched}) {
        const JsonValue::Object& other_metrics = other->find("metrics")->as_object("metrics");
        ASSERT_EQ(serial_metrics.size(), other_metrics.size());
        for (std::size_t i = 0; i < serial_metrics.size(); ++i) {
            const auto& [key, value] = serial_metrics[i];
            EXPECT_EQ(key, other_metrics[i].first);
            if (key.rfind("wall_seconds", 0) == 0) continue;
            EXPECT_EQ(value.to_string(), other_metrics[i].second.to_string()) << key;
        }
    }
}

/// Every field a SessionStatus exposes.
void expect_same_status(const SessionStatus& actual, const SessionStatus& expected) {
    EXPECT_EQ(actual.id, expected.id);
    EXPECT_EQ(actual.name, expected.name) << expected.id;
    EXPECT_EQ(actual.state, expected.state) << expected.id;
    EXPECT_EQ(actual.interactions, expected.interactions) << expected.id;
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions) << expected.id;
    EXPECT_EQ(actual.quanta, expected.quanta) << expected.id;
    EXPECT_EQ(actual.stop_reason, expected.stop_reason) << expected.id;
    EXPECT_EQ(actual.consensus, expected.consensus) << expected.id;
    EXPECT_EQ(actual.last_output_change, expected.last_output_change) << expected.id;
    EXPECT_EQ(actual.error, expected.error) << expected.id;
}

/// The std::invalid_argument message `command` throws, or "" if none.
std::string rejection(const std::function<void()>& command) {
    try {
        command();
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    return "";
}

/// What the wire and the registry API report about finished sessions:
/// status, list, subscribe, the lifecycle errors and the stats counts.
void expect_finished_sessions_answer(RunRegistry& registry,
                                     const std::vector<SessionStatus>& expected) {
    const std::vector<SessionStatus> listed = registry.list();
    ASSERT_EQ(listed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const SessionStatus& want = expected[i];
        const std::string& id = want.id;
        expect_same_status(listed[i], want);
        expect_same_status(registry.status(id), want);

        EXPECT_EQ(rejection([&] { registry.suspend(id); }),
                  "suspend: session " + id + " is terminal");
        EXPECT_EQ(rejection([&] { registry.resume(id); }),
                  "resume: session " + id + " is terminal");
        EXPECT_EQ(rejection([&] { registry.cancel(id); }),
                  want.state == SessionState::kCancelled
                      ? ""
                      : "cancel: session " + id + " is terminal");

        // One synthetic state event, delivered before subscribe returns; the
        // sink (and what it captures) is not kept, since nothing would
        // ever fire it.
        const auto held = std::make_shared<int>(0);
        std::vector<std::string> lines;
        registry.subscribe(id, /*token=*/9,
                           [&lines, held](const std::string& line) { lines.push_back(line); });
        ASSERT_EQ(lines.size(), 1u) << id;
        EXPECT_EQ(lines[0], "{\"session\":\"" + id + "\",\"event\":\"state\",\"state\":\"" +
                                session_state_name(want.state) + "\"}");
        EXPECT_EQ(held.use_count(), 1) << id << ": the registry kept a sink that can never fire";
        registry.unsubscribe(id, 9);
    }

    const JsonValue stats = parse_json(registry.stats_json());
    EXPECT_EQ(stats.find("total_sessions")->as_u64("total_sessions"), expected.size());
    const JsonValue& by_state = *stats.find("sessions");
    for (const char* state : {"queued", "running", "suspended", "evicted"})
        EXPECT_EQ(by_state.find(state)->as_u64(state), 0u) << state;
    for (const char* state : {"done", "failed", "cancelled"})
        EXPECT_EQ(by_state.find(state)->as_u64(state), 1u) << state;
}

TEST(RunRegistryTest, FinishedSessionsAnswerAsBeforeAndSurviveDrainAndRestore) {
    const std::string dir = fresh_dir("popproto_registry_finished");

    SessionSpec done_spec;
    done_spec.protocol = "counting";
    done_spec.threshold = 2;
    done_spec.counts = {10, 2};
    done_spec.seed = 5;
    done_spec.engine = "agent";
    done_spec.name = "finished-done";

    // Submit validates only that phases exist; the unknown topology throws
    // inside the first quantum.
    SessionSpec failed_spec;
    failed_spec.protocol = "epidemic";
    failed_spec.counts = {15, 1};
    failed_spec.model = "dynamic_graph";
    failed_spec.phases = {"nowhere"};
    failed_spec.name = "finished-failed";

    SessionSpec cancelled_spec = long_running_spec();
    cancelled_spec.name = "finished-cancelled";

    std::vector<SessionStatus> before;
    {
        RegistryOptions options;
        options.spill_dir = dir;
        RunRegistry registry(options);
        const std::string done = registry.submit(done_spec);
        const std::string failed = registry.submit(failed_spec);
        const std::string cancelled = registry.submit(cancelled_spec);
        registry.cancel(cancelled);
        registry.wait_idle();

        before = registry.list();
        ASSERT_EQ(before.size(), 3u);
        EXPECT_EQ(before[0].state, SessionState::kDone);
        EXPECT_EQ(before[0].name, "finished-done");
        EXPECT_TRUE(before[0].stop_reason.has_value());
        EXPECT_TRUE(before[0].consensus.has_value());
        EXPECT_GT(before[0].interactions, 0u);
        EXPECT_EQ(before[1].state, SessionState::kFailed);
        EXPECT_NE(before[1].error.find("nowhere"), std::string::npos) << before[1].error;
        EXPECT_FALSE(before[1].stop_reason.has_value());
        EXPECT_EQ(before[2].state, SessionState::kCancelled);
        EXPECT_EQ(before[2].name, "finished-cancelled");
        EXPECT_FALSE(before[2].stop_reason.has_value());
        expect_finished_sessions_answer(registry, before);

        // Finished sessions drain without a spec; the name rides along.
        registry.drain();
        const auto manifests = registry.store().list_manifests();
        ASSERT_EQ(manifests.size(), 3u);
        for (const auto& [id, manifest] : manifests) {
            EXPECT_EQ(manifest.find("\"spec\""), std::string::npos) << manifest;
            EXPECT_NE(manifest.find("\"name\":\"finished-"), std::string::npos) << manifest;
        }
        EXPECT_FALSE(registry.store().has_checkpoint(cancelled));
    }

    RegistryOptions options;
    options.spill_dir = dir;
    RunRegistry restarted(options);
    EXPECT_EQ(restarted.restore(), 3u);
    expect_finished_sessions_answer(restarted, before);
    std::filesystem::remove_all(dir);
}

TEST(RunRegistryTest, RestoreReadsFinishedManifestsWithOrWithoutSpec) {
    const std::string dir = fresh_dir("popproto_registry_manifests");
    {
        CheckpointStore store(dir);
        // The layout older daemons drained finished sessions in: with a spec.
        store.save_manifest(
            "s-4",
            "{\"id\":\"s-4\",\"state\":\"done\",\"spec\":{\"protocol\":\"epidemic\","
            "\"counts\":[15,1],\"name\":\"legacy\"},\"interactions\":120,"
            "\"effective_interactions\":15,\"last_output_change\":97,\"quanta\":1,"
            "\"stop_reason\":\"silent\",\"consensus\":1}");
        // The compact layout: no spec, the name beside the counters.
        store.save_manifest("s-7",
                            "{\"id\":\"s-7\",\"state\":\"failed\",\"name\":\"compact\","
                            "\"interactions\":64,\"effective_interactions\":3,"
                            "\"last_output_change\":0,\"quanta\":1,\"error\":\"boom\"}");
    }
    RegistryOptions options;
    options.spill_dir = dir;
    RunRegistry registry(options);
    EXPECT_EQ(registry.restore(), 2u);

    const SessionStatus legacy = registry.status("s-4");
    EXPECT_EQ(legacy.state, SessionState::kDone);
    EXPECT_EQ(legacy.name, "legacy");
    EXPECT_EQ(legacy.interactions, 120u);
    EXPECT_EQ(legacy.effective_interactions, 15u);
    EXPECT_EQ(legacy.last_output_change, 97u);
    EXPECT_EQ(legacy.stop_reason, StopReason::kSilent);
    EXPECT_EQ(legacy.consensus, Symbol{1});

    const SessionStatus compact = registry.status("s-7");
    EXPECT_EQ(compact.state, SessionState::kFailed);
    EXPECT_EQ(compact.name, "compact");
    EXPECT_EQ(compact.interactions, 64u);
    EXPECT_EQ(compact.error, "boom");
    EXPECT_FALSE(compact.stop_reason.has_value());

    // Fresh ids continue past the restored ones.
    SessionSpec spec;
    spec.counts = {15, 1};
    EXPECT_EQ(registry.submit(spec), "s-8");
    registry.wait_idle();
    std::filesystem::remove_all(dir);

    // A live session still needs its spec to resume.
    const std::string live_dir = fresh_dir("popproto_registry_manifests_live");
    CheckpointStore(live_dir).save_manifest("s-1", "{\"id\":\"s-1\",\"state\":\"suspended\"}");
    RegistryOptions live_options;
    live_options.spill_dir = live_dir;
    RunRegistry live(live_options);
    EXPECT_EQ(rejection([&] { live.restore(); }), "manifest for s-1 has no 'spec'");
    std::filesystem::remove_all(live_dir);
}

TEST(RunRegistryTest, FairSchedulingLetsTinyRunsFinishUnderAHugeRun) {
    // One 2^20-agent run shares two workers with 50 tiny runs; DRR
    // guarantees the tiny runs drain while the huge run is still going.
    RegistryOptions options;
    options.workers = 2;
    options.spill_dir = fresh_dir("popproto_registry_fair");
    RunRegistry registry(options);

    SessionSpec huge;
    huge.protocol = "counting";
    huge.threshold = 5;
    huge.counts = {(std::uint64_t{1} << 20) - 16, 16};
    huge.seed = 9;
    huge.budget = ~std::uint64_t{0};  // effectively unbounded
    const std::string huge_id = registry.submit(huge);

    SessionSpec tiny;
    tiny.protocol = "epidemic";
    tiny.counts = {31, 1};
    tiny.engine = "agent";
    std::vector<std::string> tiny_ids;
    for (int i = 0; i < 50; ++i) {
        tiny.seed = static_cast<std::uint64_t>(i) + 1;
        tiny_ids.push_back(registry.submit(tiny));
    }

    for (const std::string& id : tiny_ids) {
        const SessionStatus status =
            wait_for(registry, id, [](const SessionStatus& s) { return is_terminal(s); });
        EXPECT_EQ(status.state, SessionState::kDone) << id;
    }
    // Nobody starved: the huge run settles a quantum (waited for with a
    // deadline, since its first quantum may still be in flight when the last
    // tiny run finishes) and is nowhere near done, so the tiny runs did not
    // wait for it.
    const SessionStatus huge_status = wait_for(registry, huge_id, [](const SessionStatus& s) {
        return s.quanta > 0 || is_terminal(s);
    });
    EXPECT_GT(huge_status.quanta, 0u);
    EXPECT_FALSE(is_terminal(huge_status));
    registry.cancel(huge_id);
    registry.wait_idle();
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, SubscribersReceiveSessionTaggedEventsThroughStop) {
    RegistryOptions options;
    options.spill_dir = fresh_dir("popproto_registry_events");
    RunRegistry registry(options);

    std::mutex lines_mutex;
    std::vector<std::string> lines;
    const LineSink sink = [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(line);
    };

    SessionSpec spec;
    spec.protocol = "counting";
    spec.threshold = 3;
    spec.counts = {40, 8};
    spec.seed = 11;
    spec.engine = "agent";
    spec.snapshot_every = 64;
    const std::string id = registry.submit(spec);
    registry.subscribe(id, /*token=*/1, sink);
    registry.wait_idle();
    wait_for(registry, id, [](const SessionStatus& s) { return is_terminal(s); });

    // Whether the subscriber attached before or after the run finished, it
    // must observe the session reaching a terminal state; live subscribers
    // see the JSONL trace with the session id spliced into every line.
    const auto saw = [&](const std::string& needle) {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        for (const std::string& line : lines)
            if (line.find(needle) != std::string::npos) return true;
        return false;
    };
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!saw("\"event\":\"stop\"") && !saw("\"state\":\"done\"") &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(saw("\"event\":\"stop\"") || saw("\"state\":\"done\""));
    {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        ASSERT_FALSE(lines.empty());
        for (const std::string& line : lines)
            EXPECT_EQ(line.rfind("{\"session\":\"" + id + "\",", 0), 0u) << line;
    }
    registry.unsubscribe(id, 1);

    // A late subscriber to a terminal session gets the synthetic state
    // event immediately.
    std::vector<std::string> late_lines;
    registry.subscribe(id, /*token=*/2,
                       [&](const std::string& line) { late_lines.push_back(line); });
    ASSERT_EQ(late_lines.size(), 1u);
    EXPECT_NE(late_lines[0].find("\"state\":\"done\""), std::string::npos) << late_lines[0];
    registry.unsubscribe(id, 2);
    std::filesystem::remove_all(options.spill_dir);
}

TEST(RunRegistryTest, MidSessionSubscriberIsServedFromTheNextQuantum) {
    // A quantum dispatched while nobody listens carries no trace observer.
    // A subscriber who attaches to a suspended session therefore receives
    // the trajectory from the next quantum on — every snapshot past the
    // suspension point, no start event — then the stop and done events.
    RegistryOptions options;
    options.workers = 1;
    options.spill_dir = fresh_dir("popproto_registry_mid_subscribe");
    std::mutex lines_mutex;  // outlives the registry's workers
    std::vector<std::string> lines;
    RunRegistry registry(options);

    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.counts = {65535, 1};
    spec.engine = "batch";
    spec.seed = 5;
    spec.quantum = 64;  // about 22,000 quanta, so the suspend lands mid-run
    spec.snapshot_every = 65536;
    const std::string id = registry.submit(spec);
    wait_for(registry, id, [](const SessionStatus& s) { return s.quanta >= 1; });
    registry.suspend(id);
    const SessionStatus suspended = wait_for(registry, id, [](const SessionStatus& s) {
        return s.state == SessionState::kSuspended || is_terminal(s);
    });
    ASSERT_EQ(suspended.state, SessionState::kSuspended) << "the run finished before suspend";

    registry.subscribe(id, /*token=*/1, [&](const std::string& line) {
        const std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(line);
    });
    registry.resume(id);
    const SessionStatus done = wait_for(registry, id, is_terminal);
    // The worker publishes the done event after the status turns terminal.
    const std::string done_event =
        "{\"session\":\"" + id + "\",\"event\":\"state\",\"state\":\"done\"}";
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(lines_mutex);
            if (!lines.empty() && lines.back() == done_event) break;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no done event";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    registry.unsubscribe(id, 1);
    expect_matches_direct(done, direct_run(spec));

    const std::lock_guard<std::mutex> lock(lines_mutex);
    std::vector<std::uint64_t> snapshots;
    for (const std::string& line : lines) {
        const JsonValue event = parse_json(line);
        EXPECT_EQ(event.find("session")->as_string("session"), id);
        const std::string& kind = event.find("event")->as_string("event");
        EXPECT_NE(kind, "start") << line;
        if (kind == "snapshot")
            snapshots.push_back(event.find("t")->as_u64("t"));
    }
    std::vector<std::uint64_t> expected;
    for (std::uint64_t index = (suspended.interactions / 65536 + 1) * 65536;
         index <= done.interactions; index += 65536)
        expected.push_back(index);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(snapshots, expected);
    ASSERT_GE(lines.size(), 2u);
    EXPECT_NE(lines[lines.size() - 2].find("\"event\":\"stop\""), std::string::npos)
        << lines[lines.size() - 2];
    std::filesystem::remove_all(options.spill_dir);
}

}  // namespace
}  // namespace popproto::service
