// The collapsed super-step engine (core/collapsed_simulator.h).
//
// Correctness is a *distributional* contract — the engine must sample final
// configurations from exactly the law of the uniform ordered-pair chain —
// so the centerpiece is an exact small-population check: a dynamic program
// over count vectors computes the true k-step distribution, and the
// empirical distribution of collapsed runs is held to it by chi-square,
// under several observation setups (unobserved, snapshot-clamped at every
// index, mixed, checkpoint-clamped).  Each setup exercises a different code
// path — full super-steps with their events vs. boundary clamps — and all
// must agree with the same exact law.
//
// Pathwise guarantees are thinner by design (super-step boundaries shape
// the RNG stream), but checkpoint/resume *is* bit-identical against a
// baseline with the same checkpoint schedule, including cuts that land
// inside a super-step; that is tested here too, plus the engine-selection
// plumbing (run_simulation's kAuto size dispatch and RunResult::engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_simulator.h"
#include "core/collapsed_simulator.h"
#include "core/adaptive_simulator.h"
#include "core/observer.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "observe/trace_recorder.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::chi_square_gof;
using testutil::ChiSquareResult;
using testutil::run_collapsed;
using testutil::run_count_batch;

// ---------------------------------------------------------------------------
// Exact k-step distribution of the uniform ordered-pair chain
// (testutil::exact_chain_distribution, shared with parallel_collapsed_test)

using CountVector = std::vector<std::uint64_t>;
using Distribution = std::map<CountVector, double>;

class CollectingSink final : public CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        checkpoints.push_back(checkpoint);
    }
    std::vector<RunCheckpoint> checkpoints;
};

/// How the exact-law runs are observed; each shape clamps super-steps at a
/// different boundary pattern (see the file comment).
enum class ObservationSetup { kUnobserved, kSnapshotEveryOne, kSnapshotEveryTwo, kCheckpointed };

const char* setup_label(ObservationSetup setup) {
    switch (setup) {
        case ObservationSetup::kUnobserved: return "unobserved";
        case ObservationSetup::kSnapshotEveryOne: return "snapshot_every_1";
        case ObservationSetup::kSnapshotEveryTwo: return "snapshot_every_2";
        case ObservationSetup::kCheckpointed: return "checkpoint_every_2";
    }
    return "?";
}

void expect_matches_exact_law(const TabulatedProtocol& protocol, const CountVector& initial_counts,
                              std::uint64_t steps, ObservationSetup setup,
                              std::uint64_t runs = 4000) {
    SCOPED_TRACE(setup_label(setup));
    const Distribution exact = testutil::exact_chain_distribution(protocol, initial_counts, steps);
    const auto initial = CountConfiguration::from_state_counts(initial_counts);

    std::map<CountVector, std::uint64_t> tally;
    for (std::uint64_t seed = 1; seed <= runs; ++seed) {
        RunOptions options;
        options.max_interactions = steps;
        options.seed = seed;
        TraceRecorder recorder;
        CollectingSink sink;
        switch (setup) {
            case ObservationSetup::kUnobserved: break;
            case ObservationSetup::kSnapshotEveryOne:
                options.observer = &recorder;
                options.snapshots = SnapshotSchedule::every(1);
                break;
            case ObservationSetup::kSnapshotEveryTwo:
                options.observer = &recorder;
                options.snapshots = SnapshotSchedule::every(2);
                break;
            case ObservationSetup::kCheckpointed:
                options.checkpoint_every = 2;
                options.checkpoint_sink = &sink;
                break;
        }
        const RunResult result = run_collapsed(protocol, initial, options);
        // A silent stop before the budget freezes the configuration, so the
        // final counts still equal the configuration at index `steps`.
        ++tally[result.final_configuration.counts()];
    }

    // Every reachable configuration is in the exact support.
    std::vector<std::uint64_t> observed;
    std::vector<double> expected;
    for (const auto& [config, prob] : exact) {
        const auto it = tally.find(config);
        observed.push_back(it == tally.end() ? 0 : it->second);
        expected.push_back(prob);
        if (it != tally.end()) tally.erase(it);
    }
    EXPECT_TRUE(tally.empty()) << tally.size() << " configurations outside the exact support";

    const ChiSquareResult gof = chi_square_gof(observed, expected, runs);
    EXPECT_TRUE(gof.pass) << gof.summary();
}

constexpr ObservationSetup kEverySetup[] = {
    ObservationSetup::kUnobserved, ObservationSetup::kSnapshotEveryOne,
    ObservationSetup::kSnapshotEveryTwo, ObservationSetup::kCheckpointed};

TEST(CollapsedExactLaw, EpidemicMatchesEnumeratedDistribution) {
    // n = 5: a super-step is T = 4 interactions among five agents, so
    // nearly every unclamped super-step resolves events — the event
    // resolver and the bulk realization are both load-bearing here.
    const auto protocol = make_epidemic_protocol();
    const CountVector initial = {4, 1};
    for (const ObservationSetup setup : kEverySetup) {
        expect_matches_exact_law(*protocol, initial, /*steps=*/6, setup);
    }
}

TEST(CollapsedExactLaw, MajorityMatchesEnumeratedDistribution) {
    // Multi-state protocol ([x_0 - x_1 < 0] threshold atom): the
    // state-pair matrix cascade runs over more than two states.
    const auto protocol = make_threshold_protocol({1, -1}, 0);
    const auto config = CountConfiguration::from_input_counts(*protocol, {2, 3});
    for (const ObservationSetup setup :
         {ObservationSetup::kUnobserved, ObservationSetup::kSnapshotEveryOne,
          ObservationSetup::kCheckpointed}) {
        expect_matches_exact_law(*protocol, config.counts(), /*steps=*/5, setup);
    }
}

// T = ceil(1.5 sqrt(n)) >= n/2 for n = 5..8, so an unclamped super-step
// touches most agents and every event class occurs: fresh-deferred,
// deferred-deferred within one pair and across two, fresh-realized,
// deferred-realized and realized-realized.  The pair-marking protocol
// (test_util.h) makes them tell apart: a deferred agent's state is its role
// in its pair, and a pair that meets again changes nothing where two pairs
// that meet can mark X.
TEST(CollapsedExactLaw, PairMarkingAtFiveToEightAgents) {
    const auto protocol = testutil::make_pair_marking_protocol();
    for (const auto& [n, steps] : {std::pair<std::uint64_t, std::uint64_t>{5, 4}, {6, 4}, {8, 5},
                                   {8, 10}}) {
        SCOPED_TRACE("n = " + std::to_string(n) + ", steps = " + std::to_string(steps));
        for (const ObservationSetup setup : kEverySetup) {
            expect_matches_exact_law(*protocol, {n, 0, 0, 0}, steps, setup);
        }
    }
}

// One super-step from all-0 at n = 5 and 7: the third interaction finds two
// deferred pairs and no or one fresh agent often enough that the rate at
// which a pair meets again, 1/(2D - 1) among deferred responders, is held
// to the exact law; a rate of 1/(2D) fails here.  Unobserved only: the
// boundary setups split the super-step before that event.
TEST(CollapsedExactLaw, DeferredPairsMeetAgainAtTheExactRate) {
    const auto protocol = testutil::make_pair_marking_protocol();
    for (const std::uint64_t n : {5u, 7u}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        expect_matches_exact_law(*protocol, {n, 0, 0, 0}, /*steps=*/4,
                                 ObservationSetup::kUnobserved, /*runs=*/160000);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

void expect_same_run(const RunResult& actual, const RunResult& expected) {
    EXPECT_EQ(actual.stop_reason, expected.stop_reason);
    EXPECT_EQ(actual.interactions, expected.interactions);
    EXPECT_EQ(actual.effective_interactions, expected.effective_interactions);
    EXPECT_EQ(actual.last_output_change, expected.last_output_change);
    EXPECT_EQ(actual.final_configuration, expected.final_configuration);
    EXPECT_EQ(actual.consensus, expected.consensus);
    EXPECT_EQ(actual.engine, expected.engine);
}

// ---------------------------------------------------------------------------
// The fresh-fresh run law

// The largest l <= limit with chain[2l] > u chain[0], by a linear scan.
std::uint64_t brute_force_run(const std::vector<double>& entries, std::uint64_t touched,
                              std::uint64_t limit, double u) {
    const double threshold = u * entries[touched];
    std::uint64_t l = 0;
    while (l < limit && entries[touched + 2 * (l + 1)] > threshold) ++l;
    return l;
}

// The O(1) inversion lands exactly where a linear scan does, started at
// each fresh count a super-step can reach and capped at every limit the
// rest of the table allows, for every u: 0, each chain value, the doubles
// on either side of each, and uniform draws.
TEST(SurvivalTable, InversionMatchesBruteForceAtEveryFreshCount) {
    const std::vector<std::uint64_t> populations = {
        2, 3, 4, 5, 6, 7, 8, 1000, std::uint64_t{1} << 20, std::uint64_t{1} << 31};
    for (const std::uint64_t n : populations) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const std::uint64_t length = engine_detail::super_step_length(n);
        const engine_detail::SurvivalTable table(n, length);
        const std::vector<double>& entries = table.entries();
        ASSERT_EQ(entries.size(), 2 * length + 1);
        ASSERT_EQ(entries[0], 1.0);
        ASSERT_EQ(entries[2], 1.0);  // at f = n the first pair is always fresh-fresh

        // Every touched count at small n; a spread including both ends at
        // large n, where a scan per probe costs O(sqrt(n)).
        const std::uint64_t max_touched = std::min(n, 2 * length);
        const std::uint64_t stride = n <= 1000 ? 1 : max_touched / 7;
        Rng rng(n);
        for (std::uint64_t touched = 0; touched <= max_touched; touched += stride) {
            SCOPED_TRACE("touched = " + std::to_string(touched));
            const std::uint64_t full = (2 * length - touched) / 2;
            std::vector<double> probes = {0.0, std::nextafter(0.0, 1.0)};
            for (std::uint64_t l = 0; l <= full && (n <= 1000 || l < 64); ++l) {
                const double ratio = entries[touched + 2 * l] / entries[touched];
                probes.push_back(ratio);
                probes.push_back(std::nextafter(ratio, 0.0));
                probes.push_back(std::nextafter(ratio, 1.0));
            }
            for (int i = 0; i < (n <= 1000 ? 2000 : 200); ++i) probes.push_back(rng.uniform01());
            for (const std::uint64_t limit : {full, full / 2, std::uint64_t{1}, std::uint64_t{0}}) {
                // invert's precondition, touched + 2 limit < entries.size(),
                // is limit <= full: a limit of 1 past the last full pair
                // would read one entry past the table.
                if (limit > full) continue;
                for (const double u : probes) {
                    if (u >= 1.0) continue;  // uniform01 never returns 1
                    ASSERT_EQ(table.invert(touched, limit, u),
                              brute_force_run(entries, touched, limit, u))
                        << "u = " << u << ", limit = " << limit;
                }
            }
        }
    }
}

// The table's chain ratios are the birthday product from every fresh
// count f = n - a: P(run >= l) = prod_{i<l} (f-2i)(f-2i-1) / (n(n-1)).
TEST(SurvivalTable, ChainRatiosAreTheBirthdayProduct) {
    for (const std::uint64_t n : {std::uint64_t{5}, std::uint64_t{8}, std::uint64_t{4096},
                                  std::uint64_t{1} << 24}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        const std::uint64_t length = engine_detail::super_step_length(n);
        EXPECT_EQ(length,
                  static_cast<std::uint64_t>(std::ceil(1.5 * std::sqrt(static_cast<double>(n)))));
        const engine_detail::SurvivalTable table(n, length);
        const std::vector<double>& entries = table.entries();
        const long double total = static_cast<long double>(n) * static_cast<long double>(n - 1);
        const std::uint64_t stride = n <= 4096 ? 1 : 1021;  // odd: both parities
        for (std::uint64_t touched = 0; touched <= std::min(n, 2 * length); touched += stride) {
            long double direct = 1.0L;
            const long double fresh = static_cast<long double>(n - touched);
            for (std::uint64_t l = 0; touched + 2 * l < entries.size(); ++l) {
                const double ratio = entries[touched + 2 * l] / entries[touched];
                ASSERT_NEAR(ratio, static_cast<double>(direct), 1e-11 * static_cast<double>(direct))
                    << "touched = " << touched << ", l = " << l;
                const long double f = fresh - 2.0L * static_cast<long double>(l);
                direct *= f >= 2.0L ? f * (f - 1.0L) / total : 0.0L;
            }
        }
    }
}

TEST(CollapsedCheckpointResume, BitIdenticalAgainstCheckpointedBaseline) {
    // Unlike the per-interaction engines, the collapsed baseline must
    // itself be checkpointed: checkpoint boundaries clamp super-steps, so
    // only a resumed run with the *same* boundary sequence replays the
    // stream bit for bit (run_loop_test's harness, which compares against
    // an un-checkpointed baseline, intentionally does not apply).  With
    // checkpoint_every = 7 and T = 1.5 sqrt(64) = 12, every boundary cuts a
    // super-step short, exercising the clamped path.
    const auto protocol = make_counting_protocol(3);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    RunOptions options;
    options.seed = 11;
    options.max_interactions = 600;

    CollectingSink sink;
    options.checkpoint_every = 7;
    options.checkpoint_sink = &sink;
    const RunResult baseline = run_collapsed(*protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());

    for (const RunCheckpoint& checkpoint : sink.checkpoints) {
        EXPECT_EQ(checkpoint.interactions % 7, 0u);
        // Resume from the text round-trip, exactly as a CLI would.
        const RunCheckpoint reloaded = checkpoint_from_string(checkpoint_to_string(checkpoint));
        CollectingSink resumed_sink;
        RunOptions resumed = options;
        resumed.checkpoint_sink = &resumed_sink;
        resumed.resume_from = &reloaded;
        expect_same_run(run_collapsed(*protocol, initial, resumed), baseline);

        // The resumed run's checkpoints must be the exact suffix of the
        // baseline's — same cuts, same RNG positions, same counts.
        std::vector<RunCheckpoint> expected_suffix;
        for (const RunCheckpoint& later : sink.checkpoints)
            if (later.interactions > checkpoint.interactions) expected_suffix.push_back(later);
        EXPECT_EQ(resumed_sink.checkpoints, expected_suffix)
            << "resumed from cut at " << checkpoint.interactions;
    }
}

TEST(CollapsedCheckpointResume, RejectsForeignCheckpoints) {
    const auto protocol = make_counting_protocol(2);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {10, 2});
    RunOptions options;
    options.seed = 2;
    CollectingSink sink;
    options.checkpoint_every = 20;
    options.checkpoint_sink = &sink;
    run_count_batch(*protocol, initial, options);
    ASSERT_FALSE(sink.checkpoints.empty());

    RunOptions resume;
    resume.resume_from = &sink.checkpoints.front();
    EXPECT_THROW(run_collapsed(*protocol, initial, resume), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Silence, validation, and accounting

TEST(CollapsedSimulator, EpidemicRunsSilentWithExactEffectiveCount) {
    // Every effective epidemic interaction infects exactly one susceptible,
    // so the aggregate effective count across events and bulk realizations
    // must come out to the initial susceptible count on the nose.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {25, 5});
    RunOptions options;
    options.seed = 5;
    const RunResult result = run_collapsed(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.final_configuration.counts(), (CountVector{0, 30}));
    EXPECT_EQ(result.effective_interactions, 25u);
    ASSERT_TRUE(result.consensus.has_value());
    EXPECT_EQ(*result.consensus, 1u);
}

TEST(CollapsedSimulator, InitiallySilentConfigurationStopsAtZero) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {0, 30});
    RunOptions options;
    options.seed = 9;
    const RunResult result = run_collapsed(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, StopReason::kSilent);
    EXPECT_EQ(result.interactions, 0u);
    EXPECT_EQ(result.effective_interactions, 0u);
}

TEST(CollapsedSimulator, ValidatesInputs) {
    const auto protocol = make_epidemic_protocol();
    RunOptions options;
    // Population of one.
    EXPECT_THROW(run_collapsed(
                     *protocol, CountConfiguration::from_input_counts(*protocol, {1, 0}), options),
                 std::invalid_argument);
    // Configuration from a different protocol shape.
    const auto counting = make_counting_protocol(4);
    EXPECT_THROW(
        run_collapsed(*protocol, CountConfiguration::from_input_counts(*counting, {5, 5}), options),
        std::invalid_argument);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {5, 5});
    EXPECT_NO_THROW(run_collapsed(*protocol, initial, options));
}

TEST(CollapsedSimulator, EngineNameRoundTrips) {
    EXPECT_STREQ(observed_engine_name(ObservedEngine::kCollapsed), "collapsed");
    ObservedEngine parsed = ObservedEngine::kAgentArray;
    ASSERT_TRUE(observed_engine_from_name("collapsed", parsed));
    EXPECT_EQ(parsed, ObservedEngine::kCollapsed);
}

// ---------------------------------------------------------------------------
// run_simulation dispatch (RunResult::engine reports the executed engine)

TEST(RunSimulationDispatch, AutoSelectsBySize) {
    const auto protocol = make_epidemic_protocol();
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 200;

    const auto run_auto = [&](std::uint64_t susceptible) {
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {susceptible, 1});
        return run_simulation(*protocol, initial, options).engine;
    };

    // Below the count-batch threshold: the reference agent array.
    EXPECT_EQ(run_auto(100), ObservedEngine::kAgentArray);
    EXPECT_EQ(run_auto(kAutoCountBatchThreshold - 2), ObservedEngine::kAgentArray);
    // At and above it: count-batch, up to the collapsed threshold.
    EXPECT_EQ(run_auto(kAutoCountBatchThreshold - 1), ObservedEngine::kCountBatch);
    EXPECT_EQ(run_auto(kAutoCollapsedThreshold - 2), ObservedEngine::kCountBatch);
    // At and above the collapsed threshold: the phase-adaptive dispatcher
    // (which picks collapsed or count-batch segments by density).
    EXPECT_EQ(run_auto(kAutoCollapsedThreshold - 1), ObservedEngine::kAdaptive);
}

TEST(RunSimulationDispatch, PinnedEnginesAreHonoredAtAnySize) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {60, 4});
    RunOptions options;
    options.seed = 3;
    options.max_interactions = 100;

    options.engine = SimulationEngine::kAgentArray;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine, ObservedEngine::kAgentArray);
    options.engine = SimulationEngine::kCountBatch;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine, ObservedEngine::kCountBatch);
    options.engine = SimulationEngine::kCollapsedBatch;
    EXPECT_EQ(run_simulation(*protocol, initial, options).engine, ObservedEngine::kCollapsed);
}

TEST(RunSimulationDispatch, DirectEntryPointsReportTheirEngine) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {20, 2});
    RunOptions options;
    options.seed = 4;
    options.max_interactions = 50;
    EXPECT_EQ(simulate(*protocol, initial, options).engine, ObservedEngine::kAgentArray);
    EXPECT_EQ(run_count_batch(*protocol, initial, options).engine, ObservedEngine::kCountBatch);
    EXPECT_EQ(run_collapsed(*protocol, initial, options).engine, ObservedEngine::kCollapsed);
}

}  // namespace
}  // namespace popproto
