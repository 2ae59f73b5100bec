// The scenario pack (src/scenarios): game-rule compilation, the
// deterministic round-robin and sweep schedules, the adversarial-but-fair
// cover model, time-varying graphs, grid mobility, and the run_scenario
// front door — convergence, validation, and checkpoint/resume bit-identity
// including service-style quantum slicing.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/configuration.h"
#include "core/interaction_model.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "scenarios/adversarial.h"
#include "scenarios/dynamic_graph.h"
#include "scenarios/games.h"
#include "scenarios/mobility.h"
#include "scenarios/scenario_spec.h"

namespace popproto {
namespace {

// --- Game-rule adapter -----------------------------------------------------

TEST(Games, PavlovPrisonersDilemmaDeltaTable) {
    const auto protocol = make_game_protocol(make_pavlov_prisoners_dilemma());
    ASSERT_EQ(protocol->num_states(), 2u);
    const State C = 0, D = 1;
    // (C,C): both meet aspiration (R=3 >= 2) and stay.
    EXPECT_EQ(protocol->apply_fast(C, C), (StatePair{C, C}));
    // (C,D): the cooperator is suckered (S=0 < 2) and shifts; the defector
    // scores T=5 and stays.
    EXPECT_EQ(protocol->apply_fast(C, D), (StatePair{D, D}));
    EXPECT_EQ(protocol->apply_fast(D, C), (StatePair{D, D}));
    // (D,D): both punished (P=1 < 2), both shift back to cooperation.
    EXPECT_EQ(protocol->apply_fast(D, D), (StatePair{C, C}));
}

TEST(Games, PavlovPopulationConvergesToAllCooperate) {
    // All-C is the unique silent configuration (the delta table above shows
    // every other encounter changes someone), and it is reachable from any
    // configuration, so the uniform scheduler converges to it a.s.
    // The drift keeps the strategies mixed in large populations (a mixed
    // encounter mints a defector, a (D,D) encounter removes two), so use a
    // small one where the absorbing fluctuation arrives quickly.
    const auto protocol = make_game_protocol(make_pavlov_prisoners_dilemma());
    const auto initial = CountConfiguration::from_input_counts(*protocol, {4, 2});
    RunOptions options;
    options.seed = 7;
    options.max_interactions = 1000000;
    const RunResult result = simulate(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, 0u);  // everyone plays C
    EXPECT_EQ(result.final_configuration.count(0), 6u);
}

TEST(Games, ImitateAdoptsStrictlyBetterStrategy) {
    GameSpec spec = make_pavlov_prisoners_dilemma();
    spec.rule = UpdateRule::kImitate;
    const auto protocol = make_game_protocol(spec);
    const State C = 0, D = 1;
    // Against (C,D): the defector scored 5 > 0, so the cooperator imitates
    // D; the defector keeps D (0 < 5).
    EXPECT_EQ(protocol->apply_fast(C, D), (StatePair{D, D}));
    // Equal payoffs (C,C) and (D,D): nobody moves.
    EXPECT_EQ(protocol->apply_fast(C, C), (StatePair{C, C}));
    EXPECT_EQ(protocol->apply_fast(D, D), (StatePair{D, D}));
}

TEST(Games, BestResponsePlaysAgainstOpponentsStrategy) {
    GameSpec spec = make_pavlov_prisoners_dilemma();
    spec.rule = UpdateRule::kBestResponse;
    const auto protocol = make_game_protocol(spec);
    const State C = 0, D = 1;
    // D strictly dominates in the PD, so every encounter drives both
    // players to D regardless of what they held.
    EXPECT_EQ(protocol->apply_fast(C, C), (StatePair{D, D}));
    EXPECT_EQ(protocol->apply_fast(C, D), (StatePair{D, D}));
    EXPECT_EQ(protocol->apply_fast(D, D), (StatePair{D, D}));
}

TEST(Games, RejectsMalformedSpecs) {
    GameSpec spec;
    spec.num_strategies = 1;
    spec.payoff = {1.0};
    EXPECT_THROW(make_game_protocol(spec), std::invalid_argument);

    spec = make_pavlov_prisoners_dilemma();
    spec.payoff.pop_back();
    EXPECT_THROW(make_game_protocol(spec), std::invalid_argument);

    spec = make_pavlov_prisoners_dilemma();
    spec.payoff[2] = std::numeric_limits<double>::infinity();
    EXPECT_THROW(make_game_protocol(spec), std::invalid_argument);

    spec = make_pavlov_prisoners_dilemma();
    spec.strategy_names = {"only-one"};
    EXPECT_THROW(make_game_protocol(spec), std::invalid_argument);
}

// --- Deterministic schedules -----------------------------------------------
//
// Stably computing protocols converge under round-robin and sweep
// activation, not only under uniform random pairing.  (The paper's footnote
// 2: "every permitted encounter happens infinitely often" is formally
// neither necessary nor sufficient for its fairness condition, but these
// protocols converge, and the tests document exactly that.)  run_scenario
// places agents in state order, so its round-robin schedule is one fixed,
// fair order among many.

RunResult run_schedule(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const char* model, const RunOptions& options) {
    ScenarioSpec spec;
    spec.model = model;
    return run_scenario(protocol, initial, spec, options);
}

TEST(Schedulers, RoundRobinCyclesAllOrderedPairs) {
    RoundRobinPairModel model(3);
    std::set<AgentPair> seen;
    for (int step = 0; step < 6; ++step) seen.insert(model.next_pair());
    EXPECT_EQ(seen.size(), 6u);  // all 3*2 ordered pairs in one cycle
    // The cycle repeats.
    EXPECT_EQ(model.next_pair(), (AgentPair{0, 1}));
}

TEST(Schedulers, RoundRobinConvergesCounting) {
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {9, 4});
    RunOptions options;
    options.max_interactions = default_budget(13);
    const RunResult result = run_schedule(*protocol, initial, "round_robin", options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

TEST(Schedulers, RoundRobinConvergesMajority) {
    const auto protocol = make_threshold_protocol({1, -1}, 0);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {7, 9});
    RunOptions options;
    options.max_interactions = default_budget(16, 256.0);
    const RunResult result = run_schedule(*protocol, initial, "round_robin", options);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);  // 7 < 9
}

TEST(Schedulers, SweepConverges) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 3});
    RunOptions options;
    options.seed = 5;  // seeds the sweep's private shuffle stream
    options.max_interactions = default_budget(13);
    const RunResult result = run_schedule(*protocol, initial, "sweep", options);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, kOutputTrue);
}

TEST(Schedulers, SweepCoversEveryPairEachSweep) {
    SweepPairModel model(4, 9);
    std::set<AgentPair> seen;
    for (int step = 0; step < 12; ++step) seen.insert(model.next_pair());
    EXPECT_EQ(seen.size(), 12u);
}

TEST(Schedulers, DeterministicRoundRobinIsReproducible) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {6, 2});
    RunOptions options;
    options.max_interactions = default_budget(8);
    const RunResult ra = run_schedule(*protocol, initial, "round_robin", options);
    const RunResult rb = run_schedule(*protocol, initial, "round_robin", options);
    EXPECT_EQ(ra.interactions, rb.interactions);
    EXPECT_EQ(ra.final_configuration, rb.final_configuration);
}

// --- Adversarial cover -----------------------------------------------------

TEST(Adversarial, EveryEpochCoversAllOrderedPairs) {
    // With probing disabled the model is a pure random-permutation cover:
    // each block of n(n-1) proposals plays every ordered pair exactly once.
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = 4;
    AdversarialCoverModel model(*protocol, n, /*probe_window=*/0);
    Rng rng(3);
    const std::vector<State> states(n, 0);
    for (int epoch = 0; epoch < 3; ++epoch) {
        std::set<AgentPair> seen;
        for (std::uint64_t step = 0; step < n * (n - 1); ++step) {
            const AgentPair pair = model.propose_pair(rng, states);
            EXPECT_NE(pair.first, pair.second);
            EXPECT_TRUE(seen.insert(pair).second)
                << "pair repeated within epoch " << epoch;
        }
        EXPECT_EQ(seen.size(), n * (n - 1));
    }
}

TEST(Adversarial, ProbingPrefersNullInteractions) {
    // Epidemic: (infected, x) infects x; (susceptible, susceptible) and
    // (x, infected-initiator)... the only null pairs are those whose delta
    // is the identity.  With one infected agent and a full probe window, the
    // adversary must play a null pair whenever the upcoming window holds
    // one, slowing the epidemic relative to the friendly scheduler.
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = 6;
    std::vector<State> states(n, 0);
    const auto initial_counts = CountConfiguration::from_input_counts(*protocol, {5, 1});
    states = AgentConfiguration::from_counts(initial_counts).states();

    AdversarialCoverModel eager(*protocol, n, /*probe_window=*/0);
    AdversarialCoverModel lazy(*protocol, n, /*probe_window=*/n * (n - 1));
    Rng rng_eager(11), rng_lazy(11);

    const auto first_change_step = [&](AdversarialCoverModel& model, Rng& rng) {
        std::vector<State> working = states;
        for (int step = 0; step < 60; ++step) {
            const AgentPair pair = model.propose_pair(rng, working);
            const StatePair next = protocol->apply_fast(working[pair.first],
                                                        working[pair.second]);
            const bool changed = next.initiator != working[pair.first] ||
                                 next.responder != working[pair.second];
            working[pair.first] = next.initiator;
            working[pair.second] = next.responder;
            if (changed) return step;
        }
        return 60;
    };
    // Exactly 10 of the 30 ordered pairs are infecting at the start (the
    // two-way epidemic fires on (I, S) and (S, I)), so a full-window probe
    // plays the 20 null pairs first: the lazy adversary cannot change any
    // state before step 20.  The friendly permutation hits an infecting
    // pair far sooner.
    const int eager_first = first_change_step(eager, rng_eager);
    const int lazy_first = first_change_step(lazy, rng_lazy);
    EXPECT_EQ(lazy_first, 20);
    EXPECT_LT(eager_first, lazy_first);
}

// --- Dynamic graph ---------------------------------------------------------

TEST(DynamicGraph, CyclesPhasesOnSchedule) {
    const std::uint64_t n = 5;
    std::vector<std::vector<Edge>> phases = {
        InteractionGraph::ring(n).edges(),
        InteractionGraph::star(n).edges(),
    };
    DynamicGraphModel model(std::move(phases), /*phase_length=*/3, n);
    Rng rng(1);
    const std::vector<State> states(n, 0);
    std::vector<std::uint64_t> expected_phase = {0, 0, 0, 1, 1, 1, 0, 0, 0, 1};
    for (std::size_t step = 0; step < expected_phase.size(); ++step) {
        EXPECT_EQ(model.phase(), expected_phase[step]) << "step " << step;
        model.propose_pair(rng, states);
    }
}

TEST(DynamicGraph, ValidatesConstruction) {
    EXPECT_THROW(DynamicGraphModel({}, 1, 4), std::invalid_argument);
    EXPECT_THROW(DynamicGraphModel({{}}, 1, 4), std::invalid_argument);
    EXPECT_THROW(DynamicGraphModel({{{0, 0}}}, 1, 4), std::invalid_argument);  // self-loop
    EXPECT_THROW(DynamicGraphModel({{{0, 9}}}, 1, 4), std::invalid_argument);  // out of range
    EXPECT_THROW(DynamicGraphModel({{{0, 1}}}, 0, 4), std::invalid_argument);  // zero length
}

// --- Grid mobility ---------------------------------------------------------

TEST(GridMobility, ProposesOnlyProximatePairs) {
    const std::uint64_t n = 8, width = 5, height = 5, radius = 1;
    GridMobilityModel model(n, width, height, radius);
    Rng rng(42);
    const std::vector<State> states(n, 0);
    for (int step = 0; step < 50; ++step) {
        const AgentPair pair = model.propose_pair(rng, states);
        ASSERT_NE(pair.first, pair.second);
        const std::uint64_t a = model.positions()[pair.first];
        const std::uint64_t b = model.positions()[pair.second];
        // Chebyshev distance on the torus.
        const auto axis_dist = [](std::uint64_t p, std::uint64_t q, std::uint64_t extent) {
            const std::uint64_t d = p > q ? p - q : q - p;
            return std::min(d, extent - d);
        };
        const std::uint64_t dx = axis_dist(a % width, b % width, width);
        const std::uint64_t dy = axis_dist(a / width, b / width, height);
        EXPECT_LE(std::max(dx, dy), radius) << "contact beyond the radius";
    }
}

// --- run_scenario front door -----------------------------------------------

/// Epidemic convergence is the cross-scenario smoke test: one infected
/// agent must eventually infect everyone under any fair pairing.
void expect_epidemic_converges(const ScenarioSpec& spec, std::uint64_t n) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 1, 1});
    RunOptions options;
    options.seed = 13;
    options.max_interactions = 400 * n;
    if (spec.model == "dynamic_graph") options.stop_after_stable_outputs = 16 * n;
    const RunResult result = run_scenario(*protocol, initial, spec, options);
    EXPECT_NE(result.stop_reason, StopReason::kBudget) << "did not converge: " << spec.model;
    ASSERT_TRUE(result.consensus.has_value()) << spec.model;
    EXPECT_EQ(*result.consensus, 1u) << spec.model;  // everyone infected
}

TEST(RunScenario, EpidemicConvergesUnderEveryModel) {
    for (const std::string& model : scenario_model_names()) {
        ScenarioSpec spec;
        spec.model = model;
        if (model == "dynamic_graph") spec.phases = {"ring", "star"};
        expect_epidemic_converges(spec, 24);
    }
}

TEST(RunScenario, ValidatesSpecAndOptions) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {9, 1});
    RunOptions options;

    ScenarioSpec spec;
    spec.model = "no_such_model";
    EXPECT_THROW(run_scenario(*protocol, initial, spec, options), std::invalid_argument);

    spec.model = "dynamic_graph";  // no phases
    EXPECT_THROW(run_scenario(*protocol, initial, spec, options), std::invalid_argument);

    spec.phases = {"moebius"};  // unknown topology
    EXPECT_THROW(run_scenario(*protocol, initial, spec, options), std::invalid_argument);

    spec = ScenarioSpec{};
    spec.model = "round_robin";
    options.engine = SimulationEngine::kAgentArray;  // scenarios pick their own pairing
    EXPECT_THROW(run_scenario(*protocol, initial, spec, options), std::invalid_argument);
}

// --- Checkpoint/resume bit-identity ----------------------------------------

void expect_same_run(const RunResult& actual, const RunResult& expected) {
    EXPECT_EQ(actual.stop_reason, expected.stop_reason);
    EXPECT_EQ(actual.interactions, expected.interactions);
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions);
    EXPECT_EQ(actual.last_output_change, expected.last_output_change);
    EXPECT_EQ(actual.final_configuration, expected.final_configuration);
    EXPECT_EQ(actual.consensus, expected.consensus);
}

class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

/// Periodic-checkpoint bit-identity plus service-style quantum slicing:
/// every cut must resume onto the baseline trajectory exactly, and chaining
/// quanta on the absolute pause grid must reproduce the terminal result.
void check_scenario_bit_identity(const ScenarioSpec& spec, RunOptions options,
                                 std::uint64_t checkpoint_every, std::uint64_t quantum) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {19, 1});
    const auto run = [&](const RunOptions& opts) {
        return run_scenario(*protocol, initial, spec, opts);
    };
    const RunResult baseline = run(options);

    CollectingSink sink;
    options.checkpoint_every = checkpoint_every;
    options.checkpoint_sink = &sink;
    expect_same_run(run(options), baseline);
    ASSERT_FALSE(sink.checkpoints.empty()) << spec.model;

    options.checkpoint_every = 0;
    options.checkpoint_sink = nullptr;
    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        EXPECT_EQ(checkpoint.engine, ObservedEngine::kPairModel);
        EXPECT_EQ(checkpoint.interaction_model, spec.model);
        const RunCheckpoint reloaded = checkpoint_from_string(checkpoint_to_string(checkpoint));
        options.resume_from = &reloaded;
        expect_same_run(run(options), baseline);
    }
    options.resume_from = nullptr;

    // Service-daemon slicing: chain pause_after quanta on the absolute grid.
    CollectingSink pause_sink;
    options.checkpoint_sink = &pause_sink;
    RunCheckpoint current;
    bool resuming = false;
    int quanta = 0;
    for (;; ++quanta) {
        ASSERT_LT(quanta, 100000) << "never reached a terminal state";
        options.resume_from = resuming ? &current : nullptr;
        const std::uint64_t done = resuming ? current.interactions : 0;
        options.pause_after = (done / quantum + 1) * quantum;
        const RunResult result = run(options);
        if (result.stop_reason != StopReason::kPaused) {
            expect_same_run(result, baseline);
            break;
        }
        ASSERT_FALSE(pause_sink.checkpoints.empty());
        current = pause_sink.checkpoints.back();
        resuming = true;
    }
    EXPECT_GT(quanta, 1) << "quantum too large to exercise slicing: " << spec.model;
}

TEST(ScenarioCheckpoint, AdversarialResumesBitIdenticallyMidEpoch) {
    ScenarioSpec spec;
    spec.model = "adversarial";
    spec.probe = 8;
    RunOptions options;
    options.seed = 31;
    options.max_interactions = 4000;
    // 20 agents -> 380-pair epochs; 97 is coprime, so cuts land mid-epoch
    // and the permutation + cursor must serialize exactly.
    check_scenario_bit_identity(spec, options, /*checkpoint_every=*/97, /*quantum=*/101);
}

TEST(ScenarioCheckpoint, AdversarialCheckpointWordsArePinned) {
    // The model's checkpoint words (cursor, round keys, the displaced
    // entries ahead of the cursor) as the overlay implementation wrote them:
    // the window ring buffer must serialize identically, so files written
    // before it still resume.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {39, 1});
    ScenarioSpec spec;
    spec.model = "adversarial";
    CollectingSink sink;
    RunOptions options;
    options.seed = 5;
    options.checkpoint_every = 97;
    options.checkpoint_sink = &sink;
    const RunResult baseline = run_scenario(*protocol, initial, spec, options);
    EXPECT_EQ(baseline.interactions, 750u);
    ASSERT_EQ(sink.checkpoints.size(), 7u);
    const RunCheckpoint& cut = sink.checkpoints[2];
    EXPECT_EQ(cut.interactions, 291u);
    const std::vector<std::uint64_t> pinned = {
        291, 5320248114040590185ULL, 11106458710588138716ULL, 11982022302389484462ULL,
        15154927347600407493ULL, 9531689329179025993ULL, 14471912560152521095ULL,
        9295126279674440255ULL, 14917173486637513096ULL, 12,
        291, 77, 293, 1525, 294, 1548, 295, 584, 297, 1130, 298, 1547,
        299, 1403, 301, 1554, 302, 116, 303, 1247, 304, 1551, 305, 577};
    EXPECT_EQ(cut.model_state, pinned);

    const RunCheckpoint reloaded = checkpoint_from_string(checkpoint_to_string(cut));
    RunOptions resumed;
    resumed.resume_from = &reloaded;
    expect_same_run(run_scenario(*protocol, initial, spec, resumed), baseline);
}

TEST(ScenarioCheckpoint, DynamicGraphResumesBitIdenticallyMidPhase) {
    ScenarioSpec spec;
    spec.model = "dynamic_graph";
    spec.phases = {"ring", "complete", "star"};
    spec.phase_length = 50;
    RunOptions options;
    options.seed = 8;
    options.max_interactions = 3000;
    options.stop_after_stable_outputs = 500;
    // Neither 73 nor 89 divides the 50-step phase: every cut is mid-phase,
    // so the {phase, step-in-phase} counters must restore exactly.
    check_scenario_bit_identity(spec, options, /*checkpoint_every=*/73, /*quantum=*/89);
}

TEST(ScenarioCheckpoint, GridMobilityResumesBitIdenticallyMidWalk) {
    ScenarioSpec spec;
    spec.model = "grid_mobility";
    spec.torus_width = 6;
    spec.torus_height = 6;
    spec.radius = 1;
    RunOptions options;
    options.seed = 19;
    options.max_interactions = 3000;
    // The run stops at its first silent configuration (t = 47 for this
    // seed), so the cuts must be tighter than that to land inside it.
    check_scenario_bit_identity(spec, options, /*checkpoint_every=*/7, /*quantum=*/11);
}

TEST(ScenarioCheckpoint, RoundRobinAndSweepResumeThroughRunScenario) {
    for (const char* model : {"round_robin", "sweep"}) {
        ScenarioSpec spec;
        spec.model = model;
        RunOptions options;
        options.seed = 3;
        options.max_interactions = 4000;
        // Exact silence halts these runs at the first silent configuration
        // (t = 37 / 53 for this seed), so cuts must be tighter than the
        // old 53/59 grid to land inside the run.
        check_scenario_bit_identity(spec, options, /*checkpoint_every=*/7, /*quantum=*/11);
    }
}

TEST(ScenarioCheckpoint, ResumeRejectsWrongModel) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {19, 1});
    ScenarioSpec spec;
    spec.model = "round_robin";
    CollectingSink sink;
    RunOptions options;
    options.seed = 2;
    options.max_interactions = 500;
    options.checkpoint_every = 10;  // exact silence halts well before 100
    options.checkpoint_sink = &sink;
    run_scenario(*protocol, initial, spec, options);
    ASSERT_FALSE(sink.checkpoints.empty());

    RunOptions resume;
    resume.max_interactions = 500;
    resume.resume_from = &sink.checkpoints.front();
    spec.model = "sweep";
    EXPECT_THROW(run_scenario(*protocol, initial, spec, resume), std::invalid_argument);
}

}  // namespace
}  // namespace popproto
