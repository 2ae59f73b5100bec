// The shared run-loop kernel (core/run_loop.h): RNG stream save/restore,
// checkpoint serialization, and the headline guarantee — suspending a run at
// a checkpoint and resuming it is bit-identical to the uninterrupted run on
// every engine, including cuts inside the batch engine's geometric null
// skips and cuts landing exactly on snapshot boundaries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_simulator.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "graphs/graph_simulation.h"
#include "graphs/interaction_graph.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "protocols/leader_election.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_count_batch;

TEST(RngState, SaveRestoreReproducesStreamBitForBit) {
    Rng rng(42);
    for (int i = 0; i < 100; ++i) rng();  // advance to an arbitrary position

    const Rng::StreamState state = rng.save_state();
    std::vector<std::uint64_t> raw, bounded, skips;
    std::vector<double> uniforms;
    for (int i = 0; i < 50; ++i) {
        raw.push_back(rng());
        bounded.push_back(rng.below(977));
        uniforms.push_back(rng.uniform01());
        skips.push_back(rng.geometric_skips(0.01));
    }

    rng.restore_state(state);
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(rng(), raw[i]) << i;
        EXPECT_EQ(rng.below(977), bounded[i]) << i;
        EXPECT_EQ(rng.uniform01(), uniforms[i]) << i;
        EXPECT_EQ(rng.geometric_skips(0.01), skips[i]) << i;
    }

    // Restoring into a *different* generator works just as well.
    Rng other(7);
    other.restore_state(state);
    EXPECT_EQ(other(), raw[0]);
}

TEST(RngState, AllZeroStateIsNudgedToAValidOne) {
    Rng rng(1);
    rng.restore_state(Rng::StreamState{});  // corrupt checkpoint: all zeros
    // xoshiro256** is stuck at zero forever from the all-zero state; the
    // nudge must make the generator produce varying output again.
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    EXPECT_TRUE(a != 0 || b != 0);
}

TEST(RunCheckpointIO, CountPayloadRoundTrips) {
    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kCountBatch;
    checkpoint.population = 1000;
    checkpoint.num_states = 3;
    checkpoint.rng.words = {1, 2, 0xffffffffffffffffULL, 4};
    checkpoint.interactions = 123456;
    checkpoint.effective_interactions = 789;
    checkpoint.last_output_change = 100000;
    checkpoint.has_pending_skip = true;
    checkpoint.pending_null_skips = 4242;
    checkpoint.counts = {998, 0, 2};

    EXPECT_EQ(checkpoint_from_string(checkpoint_to_string(checkpoint)), checkpoint);
}

TEST(RunCheckpointIO, AgentPayloadRoundTrips) {
    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kGraph;
    checkpoint.population = 5;
    checkpoint.num_states = 8;
    checkpoint.rng.words = {9, 8, 7, 6};
    checkpoint.interactions = 17;
    checkpoint.agent_states = {0, 3, 7, 7, 1};

    EXPECT_EQ(checkpoint_from_string(checkpoint_to_string(checkpoint)), checkpoint);
}

/// Parses malformed checkpoint text and returns the exception message; the
/// parse succeeding is a test failure.
std::string parse_error_message(const std::string& text) {
    try {
        checkpoint_from_string(text);
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    ADD_FAILURE() << "parse unexpectedly succeeded for: " << text;
    return {};
}

TEST(RunCheckpointIO, RejectsMalformedInputWithLineAndToken) {
    // Every diagnostic names the line and the offending token, so a
    // corrupted spill file is diagnosable from the message alone.
    EXPECT_EQ(parse_error_message(""),
              "read_checkpoint: line 1: unexpected end of file, expected "
              "'popproto-checkpoint'");
    EXPECT_EQ(parse_error_message("not a checkpoint"),
              "read_checkpoint: line 1: not a popproto checkpoint (got 'not')");
    EXPECT_EQ(parse_error_message("popproto-checkpoint v999\n"),
              "read_checkpoint: line 1: unsupported checkpoint format version 'v999'");

    RunCheckpoint checkpoint;
    checkpoint.counts = {2, 3};
    const std::string text = checkpoint_to_string(checkpoint);

    // Truncated file: the message points past the last surviving line.
    const std::size_t cut = text.find("interactions ");
    ASSERT_NE(cut, std::string::npos);
    const std::string truncated = text.substr(0, cut);  // ends at a line boundary
    const std::string truncated_message = parse_error_message(truncated);
    EXPECT_EQ(truncated_message.rfind("read_checkpoint: line ", 0), 0u) << truncated_message;
    EXPECT_NE(truncated_message.find("unexpected end of file"), std::string::npos)
        << truncated_message;

    // A corrupted numeric field names the key and echoes the bad token.
    std::string corrupt = text;
    const std::size_t population_at = corrupt.find("population 0");
    ASSERT_NE(population_at, std::string::npos);
    corrupt.replace(population_at, std::string("population 0").size(), "population zero");
    EXPECT_EQ(parse_error_message(corrupt),
              "read_checkpoint: line 3: bad value for 'population': got 'zero'");

    // A misplaced key names what was expected and what was found.
    std::string wrong_key = text;
    const std::size_t engine_at = wrong_key.find("engine ");
    ASSERT_NE(engine_at, std::string::npos);
    wrong_key.replace(engine_at, 7, "motor ");
    EXPECT_EQ(parse_error_message(wrong_key),
              "read_checkpoint: line 2: expected 'engine', got 'motor'");

    // Trailing garbage after a complete line is rejected, not ignored.
    std::string trailing = text;
    const std::size_t interactions_end = trailing.find('\n', trailing.find("interactions "));
    ASSERT_NE(interactions_end, std::string::npos);
    trailing.insert(interactions_end, " 99");
    EXPECT_EQ(parse_error_message(trailing),
              "read_checkpoint: line 6: unexpected trailing token '99'");
}

// The deterministic schedules run as run_scenario pair models, whose
// checkpoints say `engine pair_model`.  Text that names the retired
// `scheduler` engine is rejected with the token, never misread.
TEST(RunCheckpointIO, RejectsRetiredSchedulerEngine) {
    RunCheckpoint checkpoint;
    checkpoint.agent_states = {0, 1};
    std::string text = checkpoint_to_string(checkpoint);
    const std::string engine_line = "engine agent_array";
    const std::size_t at = text.find(engine_line);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, engine_line.size(), "engine scheduler");
    EXPECT_THROW(checkpoint_from_string(text), std::invalid_argument);
    EXPECT_EQ(parse_error_message(text), "read_checkpoint: line 2: unknown engine 'scheduler'");
}

TEST(RunCheckpointIO, AtomicWriteFailurePathNamesTheFile) {
    // write_checkpoint_atomic into a directory that does not exist cannot
    // open its temporary; the exception must name the path it tried.
    RunCheckpoint checkpoint;
    checkpoint.counts = {2, 3};
    const std::string path = "no-such-dir-for-checkpoints/run.ckpt";
    try {
        write_checkpoint_atomic(path, checkpoint);
        FAIL() << "write into a missing directory unexpectedly succeeded";
    } catch (const std::runtime_error& error) {
        const std::string message = error.what();
        const std::string prefix = "write_checkpoint_atomic: cannot open " + path + ".tmp";
        EXPECT_EQ(message.rfind(prefix, 0), 0u) << message;
    }
    // No stray temporary may survive the failure.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    try {
        read_checkpoint_file(path);
        FAIL() << "read of a missing file unexpectedly succeeded";
    } catch (const std::runtime_error& error) {
        const std::string message = error.what();
        const std::string prefix = "read_checkpoint_file: cannot open " + path;
        EXPECT_EQ(message.rfind(prefix, 0), 0u) << message;
    }
}

TEST(RunCheckpointIO, AtomicWriteRoundTripsThroughTheFilesystem) {
    RunCheckpoint checkpoint;
    checkpoint.engine = ObservedEngine::kCountBatch;
    checkpoint.population = 12;
    checkpoint.num_states = 3;
    checkpoint.rng.words = {5, 6, 7, 8};
    checkpoint.interactions = 77;
    checkpoint.counts = {9, 0, 3};

    const std::string path =
        (std::filesystem::temp_directory_path() / "popproto_atomic_roundtrip.ckpt").string();
    write_checkpoint_atomic(path, checkpoint);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // renamed, not left behind
    EXPECT_EQ(read_checkpoint_file(path), checkpoint);
    std::filesystem::remove(path);
}

/// Collects every checkpoint a run emits.
class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

/// Records the snapshot trace (index, configuration) of a run.
class TraceObserver final : public RunObserver {
public:
    void on_snapshot(std::uint64_t interaction_index,
                     const CountConfiguration& configuration) override {
        snapshots.emplace_back(interaction_index, configuration);
    }
    std::vector<std::pair<std::uint64_t, CountConfiguration>> snapshots;
};

void expect_same_run(const RunResult& actual, const RunResult& expected) {
    EXPECT_EQ(actual.stop_reason, expected.stop_reason);
    EXPECT_EQ(actual.interactions, expected.interactions);
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions);
    EXPECT_EQ(actual.last_output_change, expected.last_output_change);
    EXPECT_EQ(actual.final_configuration, expected.final_configuration);
    EXPECT_EQ(actual.consensus, expected.consensus);
}

TEST(CheckpointResume, V1TextWithSilenceProbeStateStillResumes) {
    // Written by `trace_run epidemic --n 12 --engine agent --seed 3
    // --budget 15 --checkpoint-every 10` while agent engines still tested
    // silence every max(4n, 1024) interactions: the probe's next index and
    // change flag are in the text.  The reader ignores both, and the resumed
    // run stops at the first silent configuration, exactly where an
    // uninterrupted run stops.
    const std::string text =
        "popproto-checkpoint v1\n"
        "engine agent_array\n"
        "population 12\n"
        "num_states 2\n"
        "rng 16649701824055254704 3146836141627759675 6025066184782774820 "
        "4055811748698666123\n"
        "interactions 10\n"
        "effective 5\n"
        "last_output_change 10\n"
        "next_silence_check 1024\n"
        "changed_since_check 1\n"
        "pending_skip 0 0\n"
        "agents 12 0 1 1 0 0 0 0 1 0 1 1 1\n"
        "end\n";
    const RunCheckpoint checkpoint = checkpoint_from_string(text);
    EXPECT_EQ(checkpoint.engine, ObservedEngine::kAgentArray);
    EXPECT_EQ(checkpoint.interactions, 10u);

    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {11, 1});
    RunOptions options;
    options.seed = 3;
    const RunResult uninterrupted = simulate(*protocol, initial, options);
    EXPECT_EQ(uninterrupted.stop_reason, StopReason::kSilent);
    EXPECT_EQ(uninterrupted.interactions, uninterrupted.last_output_change);
    options.resume_from = &checkpoint;
    expect_same_run(simulate(*protocol, initial, options), uninterrupted);
}

/// Shared bit-identity harness: runs `run` once uninterrupted, once with
/// checkpointing (must not perturb the result), then resumes from every
/// collected checkpoint and demands the identical RunResult each time.
/// Returns the collected checkpoints for engine-specific assertions.
template <typename RunFn>
std::vector<RunCheckpoint> check_resume_bit_identity(RunFn&& run, RunOptions options,
                                                     std::uint64_t checkpoint_every) {
    const RunResult baseline = run(options);

    CollectingSink sink;
    options.checkpoint_every = checkpoint_every;
    options.checkpoint_sink = &sink;
    const RunResult checkpointed = run(options);
    expect_same_run(checkpointed, baseline);
    EXPECT_FALSE(sink.checkpoints.empty());

    options.checkpoint_every = 0;
    options.checkpoint_sink = nullptr;
    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        // Serialization must not lose precision either: resume from the
        // text round-trip of the checkpoint, exactly as a CLI would.
        const RunCheckpoint reloaded =
            checkpoint_from_string(checkpoint_to_string(checkpoint));
        options.resume_from = &reloaded;
        expect_same_run(run(options), baseline);
    }
    return sink.checkpoints;
}

TEST(CheckpointResume, BitIdenticalOnAgentArray) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {40, 8});
    RunOptions options;
    options.seed = 11;
    check_resume_bit_identity(
        [&](const RunOptions& opts) { return simulate(*protocol, initial, opts); }, options,
        /*checkpoint_every=*/97);  // coprime to everything: cuts land mid-everything
}

TEST(CheckpointResume, BitIdenticalOnCountBatchInsideNullSkips) {
    // Two token holders among 1000 agents: almost every interaction is null,
    // so the checkpoint boundaries overwhelmingly fall *inside* geometric
    // jumps and must materialize the pending remainder exactly.
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {998, 2});
    RunOptions options;
    options.seed = 3;
    const auto checkpoints = check_resume_bit_identity(
        [&](const RunOptions& opts) { return run_count_batch(*protocol, initial, opts); },
        options, /*checkpoint_every=*/10000);

    bool any_pending = false;
    for (const RunCheckpoint& checkpoint : checkpoints)
        any_pending = any_pending || checkpoint.has_pending_skip;
    EXPECT_TRUE(any_pending) << "no cut landed inside a geometric null skip";
}

TEST(CheckpointResume, BitIdenticalOnWeighted) {
    const auto protocol = make_counting_protocol(3);
    std::vector<Symbol> inputs(30, 0);
    for (int i = 0; i < 6; ++i) inputs[i * 5] = 1;
    const auto initial = AgentConfiguration::from_inputs(*protocol, inputs);
    std::vector<double> weights(inputs.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 1.0 + static_cast<double>(i % 7);
    RunOptions options;
    options.seed = 5;
    check_resume_bit_identity(
        [&](const RunOptions& opts) {
            return simulate_weighted(*protocol, initial, weights, opts);
        },
        options, /*checkpoint_every=*/113);
}

TEST(CheckpointResume, BitIdenticalOnGraph) {
    const auto base = make_counting_protocol(2);
    const auto protocol = make_graph_simulation_protocol(*base);
    const InteractionGraph graph = InteractionGraph::ring(12);
    const std::vector<Symbol> inputs(12, 1);
    RunOptions options;
    options.seed = 17;
    options.max_interactions = 5000;  // graph runs never fall silent

    // The graph entry point returns per-agent state, which the RunResult
    // comparison cannot see; compare it through the checkpoint-shaped lens.
    std::vector<State> baseline_states;
    const auto run = [&](const RunOptions& opts) {
        GraphRunResult graph_result = simulate_on_graph(*protocol, graph, inputs, opts);
        if (opts.resume_from == nullptr && opts.checkpoint_sink == nullptr)
            baseline_states = graph_result.final_configuration.states();
        else
            EXPECT_EQ(graph_result.final_configuration.states(), baseline_states);
        return RunResult{graph_result.final_configuration.to_counts(protocol->num_states()),
                         graph_result.stop_reason, graph_result.interactions,
                         graph_result.effective_interactions, graph_result.last_output_change,
                         graph_result.consensus, ObservedEngine::kGraph, nullptr, {}};
    };
    check_resume_bit_identity(run, options, /*checkpoint_every=*/333);
}

TEST(CheckpointResume, CutExactlyOnSnapshotBoundaryPreservesTrace) {
    // checkpoint_every is a multiple of the snapshot period, so every cut
    // lands exactly on a snapshot boundary.  The boundary snapshot belongs
    // to the suspended prefix; the resumed run must emit exactly the
    // remaining suffix of the uninterrupted trace.
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {40, 8});
    RunOptions options;
    options.seed = 23;
    options.snapshots = SnapshotSchedule::every(64);

    TraceObserver uninterrupted;
    options.observer = &uninterrupted;
    const RunResult baseline = simulate(*protocol, initial, options);

    CollectingSink sink;
    TraceObserver checkpointed_trace;
    options.observer = &checkpointed_trace;
    options.checkpoint_every = 256;
    options.checkpoint_sink = &sink;
    expect_same_run(simulate(*protocol, initial, options), baseline);
    EXPECT_EQ(checkpointed_trace.snapshots, uninterrupted.snapshots);
    ASSERT_FALSE(sink.checkpoints.empty());

    options.checkpoint_every = 0;
    options.checkpoint_sink = nullptr;
    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        EXPECT_EQ(checkpoint.interactions % 256, 0u);
        TraceObserver resumed_trace;
        options.observer = &resumed_trace;
        options.resume_from = &checkpoint;
        expect_same_run(simulate(*protocol, initial, options), baseline);

        // prefix (<= cut) + resumed == uninterrupted, with no boundary
        // snapshot duplicated or dropped.
        std::vector<std::pair<std::uint64_t, CountConfiguration>> stitched;
        for (const auto& snapshot : uninterrupted.snapshots)
            if (snapshot.first <= checkpoint.interactions) stitched.push_back(snapshot);
        stitched.insert(stitched.end(), resumed_trace.snapshots.begin(),
                        resumed_trace.snapshots.end());
        EXPECT_EQ(stitched, uninterrupted.snapshots) << "cut at " << checkpoint.interactions;
    }
}

TEST(CheckpointResume, ValidatesCheckpointAgainstTheRun) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 2});
    RunOptions options;
    options.seed = 2;

    CollectingSink sink;
    options.checkpoint_every = 50;
    options.checkpoint_sink = &sink;
    simulate(*protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());
    const RunCheckpoint checkpoint = sink.checkpoints.front();

    options.checkpoint_every = 0;
    options.checkpoint_sink = nullptr;
    options.resume_from = &checkpoint;
    // Wrong engine: an agent-array checkpoint cannot resume the batch engine.
    EXPECT_THROW(run_count_batch(*protocol, initial, options), std::invalid_argument);
    // Wrong population.
    const auto larger = CountConfiguration::from_input_counts(*protocol, {20, 2});
    EXPECT_THROW(simulate(*protocol, larger, options), std::invalid_argument);
    // Budget below the cut.
    options.max_interactions = checkpoint.interactions - 1;
    EXPECT_THROW(simulate(*protocol, initial, options), std::invalid_argument);
    options.max_interactions = 0;
    EXPECT_NO_THROW(simulate(*protocol, initial, options));

    // checkpoint_every without a sink is rejected up front.
    RunOptions no_sink;
    no_sink.checkpoint_every = 10;
    EXPECT_THROW(simulate(*protocol, initial, no_sink), std::invalid_argument);
}

TEST(CheckpointResume, CountEnginesRejectCountsWhoseSumWraps) {
    // {2^64 - 1, n + 1} sums to n modulo 2^64, so a plain uint64 total
    // matched the population.  Count-batch then ran on with ~2^64 agents in
    // state 0, and collapsed tripped its internal matching invariant.
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = 1024;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 1, 1});
    RunOptions options;
    options.seed = 9;
    options.max_interactions = 1'000'000;
    CollectingSink sink;
    options.checkpoint_every = 100;
    options.checkpoint_sink = &sink;
    run_count_batch(*protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());
    RunCheckpoint wrapped = sink.checkpoints.front();
    wrapped.counts = {~std::uint64_t{0}, n + 1};
    wrapped = checkpoint_from_string(checkpoint_to_string(wrapped));
    options.checkpoint_every = 0;
    options.checkpoint_sink = nullptr;

    const auto resume_error = [&](SimulationEngine engine, ObservedEngine written_by) {
        RunCheckpoint checkpoint = wrapped;
        checkpoint.engine = written_by;
        RunOptions resume = options;
        resume.engine = engine;
        resume.resume_from = &checkpoint;
        try {
            run_simulation(*protocol, initial, resume);
        } catch (const std::invalid_argument& error) {
            return std::string(error.what());
        }
        return std::string("resumed without an error");
    };
    EXPECT_EQ(resume_error(SimulationEngine::kCountBatch, ObservedEngine::kCountBatch),
              "count_batch: checkpoint population mismatch");
    EXPECT_EQ(resume_error(SimulationEngine::kCollapsedBatch, ObservedEngine::kCollapsed),
              "collapsed: checkpoint population mismatch");
    EXPECT_EQ(resume_error(SimulationEngine::kAdaptive, ObservedEngine::kCountBatch),
              "count_batch: checkpoint population mismatch");
    EXPECT_EQ(resume_error(SimulationEngine::kAdaptive, ObservedEngine::kCollapsed),
              "collapsed: checkpoint population mismatch");
    EXPECT_EQ(resume_error(SimulationEngine::kAdaptive, ObservedEngine::kAdaptive),
              "adaptive: checkpoint population mismatch");
}

TEST(RunLoop, ResolvesZeroBudgetDefault) {
    RunOptions options;
    EXPECT_EQ(resolved_budget(options, 100), default_budget(100));
    options.max_interactions = 7;
    EXPECT_EQ(resolved_budget(options, 100), 7u);
}

/// Runs `run` to completion in pause_after quanta on the absolute grid
/// `(done/quantum + 1) * quantum` — exactly how the service daemon slices a
/// session — chaining each pause checkpoint into the next segment.  Returns
/// the terminal RunResult and the number of quanta executed.
template <typename RunFn>
std::pair<RunResult, int> run_in_quanta(RunFn&& run, RunOptions options,
                                        std::uint64_t quantum) {
    CollectingSink sink;
    options.checkpoint_sink = &sink;
    RunCheckpoint current;
    bool resuming = false;
    for (int quanta = 1; quanta < 100000; ++quanta) {
        options.resume_from = resuming ? &current : nullptr;
        const std::uint64_t done = resuming ? current.interactions : 0;
        options.pause_after = (done / quantum + 1) * quantum;
        const RunResult result = run(options);
        if (result.stop_reason != StopReason::kPaused) return {result, quanta};
        EXPECT_FALSE(sink.checkpoints.empty());
        EXPECT_EQ(sink.checkpoints.back().interactions, options.pause_after);
        current = sink.checkpoints.back();
        resuming = true;
    }
    ADD_FAILURE() << "run never reached a terminal state";
    options.pause_after = 0;
    options.resume_from = nullptr;
    return {run(options), 0};
}

TEST(PauseResume, ChainedQuantaBitIdenticalOnAgentArray) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {40, 8});
    RunOptions options;
    options.seed = 11;
    const RunResult baseline = simulate(*protocol, initial, options);

    const auto run = [&](const RunOptions& opts) { return simulate(*protocol, initial, opts); };
    const auto [sliced, quanta] = run_in_quanta(run, options, /*quantum=*/97);
    expect_same_run(sliced, baseline);
    EXPECT_GT(quanta, 1) << "quantum too large to exercise slicing";
}

TEST(PauseResume, ChainedQuantaBitIdenticalInsideNullSkips) {
    // Token-sparse population: quantum boundaries overwhelmingly cut inside
    // the batch engine's geometric null skips, which must clamp (not
    // redraw) for the sliced run to stay bit-identical.
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {998, 2});
    RunOptions options;
    options.seed = 3;
    const RunResult baseline = run_count_batch(*protocol, initial, options);

    const auto run = [&](const RunOptions& opts) {
        return run_count_batch(*protocol, initial, opts);
    };
    const auto [sliced, quanta] = run_in_quanta(run, options, /*quantum=*/10000);
    expect_same_run(sliced, baseline);
    EXPECT_GT(quanta, 1);
}

TEST(PauseResume, TerminalRunIgnoresALaterPauseIndex) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 2});
    RunOptions options;
    options.seed = 2;
    const RunResult baseline = simulate(*protocol, initial, options);

    CollectingSink sink;
    options.checkpoint_sink = &sink;
    options.pause_after = baseline.interactions + 1000000;  // beyond the natural stop
    const RunResult result = simulate(*protocol, initial, options);
    expect_same_run(result, baseline);
    EXPECT_NE(result.stop_reason, StopReason::kPaused);
    EXPECT_TRUE(sink.checkpoints.empty());
}

TEST(PauseResume, PauseRequiresACheckpointSink) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 2});
    RunOptions options;
    options.pause_after = 100;  // no checkpoint_sink
    EXPECT_THROW(simulate(*protocol, initial, options), std::invalid_argument);
}

/// Raises a stop flag from inside the run, at the first snapshot at or past
/// a trigger index — a deterministic stand-in for a signal arriving mid-run.
class FlagRaisingObserver final : public RunObserver {
public:
    FlagRaisingObserver(std::atomic<bool>& flag, std::uint64_t trigger)
        : flag_(flag), trigger_(trigger) {}
    void on_snapshot(std::uint64_t interaction_index, const CountConfiguration&) override {
        if (interaction_index >= trigger_) flag_.store(true, std::memory_order_relaxed);
    }

private:
    std::atomic<bool>& flag_;
    std::uint64_t trigger_;
};

TEST(PauseResume, StopFlagDeliversAResumableCheckpoint) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {40, 8});
    RunOptions options;
    options.seed = 7;
    const RunResult baseline = simulate(*protocol, initial, options);
    ASSERT_GT(baseline.interactions, 200u);

    std::atomic<bool> stop{false};
    FlagRaisingObserver raiser(stop, /*trigger=*/100);
    CollectingSink sink;
    options.snapshots = SnapshotSchedule::every(50);
    options.observer = &raiser;
    options.stop_flag = &stop;
    options.checkpoint_sink = &sink;
    const RunResult interrupted = simulate(*protocol, initial, options);
    EXPECT_EQ(interrupted.stop_reason, StopReason::kPaused);
    EXPECT_LT(interrupted.interactions, baseline.interactions);
    ASSERT_FALSE(sink.checkpoints.empty());

    // Resuming from the interrupt checkpoint with the flag lowered finishes
    // exactly like the run that was never interrupted.
    const RunCheckpoint resume_point = sink.checkpoints.back();
    RunOptions resumed_options;
    resumed_options.seed = 7;
    resumed_options.resume_from = &resume_point;
    expect_same_run(simulate(*protocol, initial, resumed_options), baseline);
}

TEST(PauseResume, StopFlagAlreadyRaisedStopsBeforeAnyInteraction) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 2});
    std::atomic<bool> stop{true};
    CollectingSink sink;
    RunOptions options;
    options.seed = 4;
    options.stop_flag = &stop;
    options.checkpoint_sink = &sink;
    const RunResult paused = simulate(*protocol, initial, options);
    EXPECT_EQ(paused.stop_reason, StopReason::kPaused);
    EXPECT_EQ(paused.interactions, 0u);
    ASSERT_FALSE(sink.checkpoints.empty());

    const RunResult baseline = [&] {
        RunOptions plain;
        plain.seed = 4;
        return simulate(*protocol, initial, plain);
    }();
    const RunCheckpoint resume_point = sink.checkpoints.back();
    RunOptions resumed_options;
    resumed_options.seed = 4;
    resumed_options.resume_from = &resume_point;
    expect_same_run(simulate(*protocol, initial, resumed_options), baseline);
}

/// A seeded run's RunResult as the run-loop kernel returned it before its
/// stepping loop lost every per-interaction observer and telemetry call.
struct PinnedRun {
    const char* name;
    StopReason stop;
    std::uint64_t interactions;
    std::uint64_t effective;
    std::uint64_t last_output_change;
    std::vector<std::uint64_t> counts;
};

void expect_pinned(const RunResult& result, const PinnedRun& pinned) {
    SCOPED_TRACE(pinned.name);
    EXPECT_EQ(result.stop_reason, pinned.stop);
    EXPECT_EQ(result.interactions, pinned.interactions);
    EXPECT_EQ(result.effective_interactions, pinned.effective);
    EXPECT_EQ(result.last_output_change, pinned.last_output_change);
    EXPECT_EQ(result.final_configuration.counts(), pinned.counts);
}

TEST(RunLoop, SeededAgentArrayAndCountBatchRunsMatchPinnedResults) {
    // Any change to the kernel's stepping must keep these trajectories
    // byte-identical: silence, stable-output windows (count-batch: cut
    // inside a null skip) and budgets, on both single-step engines.
    const auto epidemic = make_epidemic_protocol();
    const auto counting3 = make_counting_protocol(3);
    const auto counting5 = make_counting_protocol(5);
    const auto leader = make_leader_election_protocol();
    const auto e1000 = CountConfiguration::from_input_counts(*epidemic, {999, 1});
    const auto e100k = CountConfiguration::from_input_counts(*epidemic, {99999, 1});
    const auto options = [](std::uint64_t seed, SimulationEngine engine, std::uint64_t budget,
                            std::uint64_t window) {
        RunOptions result;
        result.seed = seed;
        result.engine = engine;
        result.max_interactions = budget;
        result.stop_after_stable_outputs = window;
        return result;
    };
    constexpr auto kAgent = SimulationEngine::kAgentArray;
    constexpr auto kBatch = SimulationEngine::kCountBatch;
    constexpr auto kSilent = StopReason::kSilent;

    const PinnedRun agent_epidemic[] = {
        {"agent epidemic seed 1", kSilent, 7820, 999, 7820, {0, 1000}},
        {"agent epidemic seed 2", kSilent, 7279, 999, 7279, {0, 1000}},
        {"agent epidemic seed 3", kSilent, 7769, 999, 7769, {0, 1000}},
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        expect_pinned(run_simulation(*epidemic, e1000, options(seed, kAgent, 0, 0)),
                      agent_epidemic[seed - 1]);
    expect_pinned(
        simulate(*counting3, CountConfiguration::from_input_counts(*counting3, {40, 8}),
                 options(7, SimulationEngine::kAuto, 0, 0)),
        {"agent counting3", kSilent, 273, 67, 273, {0, 0, 0, 48}});
    expect_pinned(
        simulate(*counting5, CountConfiguration::from_input_counts(*counting5, {200, 12}),
                 options(5, SimulationEngine::kAuto, 0, 40)),
        {"agent counting5 window", StopReason::kStableOutputs, 6025, 257, 5985,
         {205, 3, 2, 0, 0, 2}});
    expect_pinned(simulate(*epidemic, e1000, options(9, SimulationEngine::kAuto, 2000, 0)),
                  {"agent epidemic budget", StopReason::kBudget, 2000, 20, 1990, {979, 21}});

    const PinnedRun batch_epidemic[] = {
        {"batch epidemic seed 1", kSilent, 1266549, 99999, 1266549, {0, 100000}},
        {"batch epidemic seed 2", kSilent, 1343605, 99999, 1343605, {0, 100000}},
        {"batch epidemic seed 3", kSilent, 1158549, 99999, 1158549, {0, 100000}},
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        expect_pinned(run_simulation(*epidemic, e100k, options(seed, kBatch, 0, 0)),
                      batch_epidemic[seed - 1]);
    expect_pinned(
        run_simulation(*counting5, CountConfiguration::from_input_counts(*counting5, {2000, 12}),
                       options(5, kBatch, 0, 2000)),
        {"batch counting5 window", kSilent, 466570, 2018, 466570, {0, 0, 0, 0, 0, 2012}});
    expect_pinned(run_simulation(*epidemic, e100k, options(11, kBatch, 500000, 0)),
                  {"batch epidemic budget", StopReason::kBudget, 500000, 2669, 499997,
                   {97330, 2670}});
    expect_pinned(
        run_simulation(*leader, CountConfiguration::from_input_counts(*leader, {5000}),
                       options(13, kBatch, 0, 1000000)),
        {"batch leader window", StopReason::kStableOutputs, 5425986, 4996, 4425986, {4996, 4}});
}

TEST(RunLoop, SeededSuperStepRunsMatchPinnedResults) {
    // The collapsed, sharded and adaptive steppers share one count state:
    // these trajectories must stay byte-identical through clamped
    // super-steps, sharded realizations, changes of step kind both ways,
    // and adaptive resumes of the static count engines' checkpoints.  The
    // telemetry counts (which never perturb a run) show each path ran.
    const auto epidemic = make_epidemic_protocol();
    const auto e100k = CountConfiguration::from_input_counts(*epidemic, {99999, 1});
    const auto options = [](std::uint64_t seed, SimulationEngine engine) {
        RunOptions result;
        result.seed = seed;
        result.engine = engine;
        return result;
    };
    constexpr auto kCollapsed = SimulationEngine::kCollapsedBatch;
    constexpr auto kAdaptive = SimulationEngine::kAdaptive;
    constexpr auto kSilent = StopReason::kSilent;
    telemetry::RunTelemetryCollector collector;

    CollectingSink sink;
    RunOptions clamped = options(1, kCollapsed);
    clamped.snapshots = SnapshotSchedule::every(25000);
    clamped.checkpoint_every = 300000;
    clamped.checkpoint_sink = &sink;
    clamped.telemetry = &collector;
    RunResult result = run_simulation(*epidemic, e100k, clamped);
    expect_pinned(result, {"collapsed clamped", kSilent, 1188775, 99999, 1188775, {0, 100000}});
    EXPECT_EQ(result.telemetry->clamped_super_steps, 47u);
    EXPECT_EQ(sink.checkpoints.size(), 3u);

    RunOptions sharded = options(2, kCollapsed);
    sharded.threads = 2;
    expect_pinned(run_simulation(*epidemic, e100k, sharded),
                  {"sharded K=2", kSilent, 1225975, 99999, 1225975, {0, 100000}});

    RunOptions adaptive = options(3, kAdaptive);
    adaptive.telemetry = &collector;
    result = run_simulation(*epidemic, e100k, adaptive);
    expect_pinned(result, {"adaptive", kSilent, 1106422, 99999, 1106422, {0, 100000}});
    EXPECT_EQ(result.telemetry->engine_switches, 2u);

    // The war protocol (an initiator converts its responder) is a fair
    // random walk of the R count, so at x* = 1 its density crosses the
    // crossover back and forth.
    TabulatedProtocol::Tables war_tables;
    war_tables.num_output_symbols = 2;
    war_tables.initial = {0, 1};
    war_tables.output = {0, 1};
    war_tables.delta = {{0, 0}, {0, 0}, {1, 1}, {1, 1}};
    const TabulatedProtocol war(std::move(war_tables));
    RunOptions switching = options(7, kAdaptive);
    switching.adaptive.crossover = 1.0;
    switching.telemetry = &collector;
    result = run_simulation(war, CountConfiguration::from_input_counts(war, {200, 200}), switching);
    expect_pinned(result, {"adaptive war x* = 1", kSilent, 27397, 10968, 27397, {400, 0}});
    EXPECT_EQ(result.telemetry->engine_switches, 5u);

    const PinnedRun resumed[] = {
        {"adaptive from count_batch", kSilent, 1271922, 99999, 1271922, {0, 100000}},
        {"adaptive from collapsed", kSilent, 1198986, 99999, 1198986, {0, 100000}},
    };
    const SimulationEngine checkpointed[] = {SimulationEngine::kCountBatch, kCollapsed};
    for (int k = 0; k < 2; ++k) {
        CollectingSink cuts;
        RunOptions taken = options(4 + k, checkpointed[k]);
        taken.checkpoint_every = 400000;
        taken.checkpoint_sink = &cuts;
        run_simulation(*epidemic, e100k, taken);
        ASSERT_FALSE(cuts.checkpoints.empty());
        RunOptions resume = options(0, kAdaptive);
        resume.resume_from = &cuts.checkpoints.front();
        expect_pinned(run_simulation(*epidemic, e100k, resume), resumed[k]);
    }
}

TEST(RunLoop, DefaultBudgetSaturatesInsteadOfOverflowing) {
    // 64 n^2 (ln n + 1) clears 2^64 before n = 2^28; the old float->int
    // cast was undefined there and resolved n = 2^30 to a budget of 1.
    EXPECT_EQ(default_budget(std::uint64_t{1} << 30), ~std::uint64_t{0});
    EXPECT_EQ(default_budget(std::uint64_t{1} << 40), ~std::uint64_t{0});
    // Below the overflow point the formula is untouched and monotone.
    EXPECT_LT(default_budget(1 << 20), default_budget(1 << 22));
    EXPECT_LT(default_budget(1 << 22), ~std::uint64_t{0});
}

}  // namespace
}  // namespace popproto
