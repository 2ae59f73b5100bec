// Mean-field engine: drift extraction, RK45 integration, and simulation
// cross-validation (src/meanfield; DESIGN.md "The mean-field engine").

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/batch_simulator.h"
#include "core/configuration.h"
#include "core/observer.h"
#include "core/simulator.h"
#include "meanfield/comparator.h"
#include "meanfield/drift.h"
#include "meanfield/integrator.h"
#include "presburger/atom_protocols.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "protocols/leader_election.h"
#include "randomized/trials.h"
#include "test_util.h"

namespace popproto {
namespace {

using testutil::run_count_batch;

/// The built-in protocol zoo the drift property tests sweep over.
std::vector<std::pair<std::string, std::unique_ptr<TabulatedProtocol>>> builtin_protocols() {
    std::vector<std::pair<std::string, std::unique_ptr<TabulatedProtocol>>> zoo;
    zoo.emplace_back("epidemic", make_epidemic_protocol());
    zoo.emplace_back("one_way_epidemic", make_one_way_epidemic_protocol());
    zoo.emplace_back("counting5", make_counting_protocol(5));
    zoo.emplace_back("majority", make_threshold_protocol({1, -1}, 0));
    zoo.emplace_back("leader_election", make_leader_election_protocol());
    zoo.emplace_back("remainder_mod3", make_remainder_protocol({1}, 0, 3));
    zoo.emplace_back("threshold_signed", make_threshold_protocol({2, -3}, 1));
    return zoo;
}

/// Random density vector (uniform on the simplex via exponential spacings).
std::vector<double> random_density(std::size_t dim, std::mt19937_64& rng) {
    std::exponential_distribution<double> exponential(1.0);
    std::vector<double> density(dim);
    double total = 0.0;
    for (double& x : density) {
        x = exponential(rng);
        total += x;
    }
    for (double& x : density) x /= total;
    return density;
}

// --- Drift properties (satellite: all built-in protocols) ---------------

TEST(MeanfieldDrift, ConservesDensityOnAllBuiltins) {
    std::mt19937_64 rng(20040725);
    for (const auto& [name, protocol] : builtin_protocols()) {
        const DriftField drift(*protocol);
        for (int trial = 0; trial < 32; ++trial) {
            const std::vector<double> x = random_density(protocol->num_states(), rng);
            const std::vector<double> f = drift(x);
            double total = 0.0;
            for (double component : f) total += component;
            EXPECT_NEAR(total, 0.0, 1e-12) << name << " trial " << trial;
        }
    }
}

TEST(MeanfieldDrift, VanishesAtSingleStateFixedPointsOnAllBuiltins) {
    for (const auto& [name, protocol] : builtin_protocols()) {
        const DriftField drift(*protocol);
        for (State q = 0; q < protocol->num_states(); ++q) {
            std::vector<double> pure(protocol->num_states(), 0.0);
            pure[q] = 1.0;
            const StatePair next = protocol->apply(q, q);
            if (next == StatePair{q, q}) {
                // delta fixes (q, q): the all-q configuration is silent and
                // its density must be exactly stationary.
                EXPECT_EQ(drift.sup_norm(pure), 0.0)
                    << name << " state " << protocol->state_name(q);
            } else {
                // delta moves (q, q): the fluid limit must flow away.
                EXPECT_GT(drift.sup_norm(pure), 0.0)
                    << name << " state " << protocol->state_name(q);
            }
        }
    }
}

TEST(MeanfieldDrift, EpidemicDriftIsLogisticField) {
    const auto protocol = make_epidemic_protocol();
    const DriftField drift(*protocol);
    EXPECT_EQ(drift.num_states(), 2u);
    // Ordered pairs (S,I) and (I,S) each infect one agent: dI/dt = 2 S I.
    for (double y : {0.015625, 0.25, 0.5, 0.875}) {
        const std::vector<double> f = drift({1.0 - y, y});
        EXPECT_NEAR(f[1], 2.0 * y * (1.0 - y), 1e-15);
        EXPECT_NEAR(f[0], -2.0 * y * (1.0 - y), 1e-15);
    }
}

// --- Integrator accuracy ------------------------------------------------

double logistic(double y0, double rate, double t) {
    return y0 / (y0 + (1.0 - y0) * std::exp(-rate * t));
}

TEST(MeanfieldIntegrator, EpidemicMatchesClosedFormLogistic) {
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = 4096;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 64, 64});
    FluidOptions options;
    options.t_end = 6.0;
    const FluidResult result = solve_fluid(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, FluidStopReason::kHorizon);
    EXPECT_DOUBLE_EQ(result.t_reached, 6.0);

    // Dense output vs the logistic closed form on a fine grid: the
    // acceptance bar of the engine is sup-norm <= 1e-6.
    const double y0 = 64.0 / static_cast<double>(n);
    double sup = 0.0;
    for (int i = 0; i <= 2000; ++i) {
        const double t = 6.0 * i / 2000.0;
        const double exact = logistic(y0, 2.0, t);
        const std::vector<double> density = result.solution.density_at(t);
        sup = std::max(sup, std::abs(density[1] - exact));
        sup = std::max(sup, std::abs(density[0] - (1.0 - exact)));
    }
    EXPECT_LE(sup, 1e-6);
    EXPECT_NEAR(result.final_density[1], logistic(y0, 2.0, 6.0), 1e-8);
}

TEST(MeanfieldIntegrator, OneWayEpidemicHalvesTheRate) {
    const auto protocol = make_one_way_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {96, 32});
    FluidOptions options;
    options.t_end = 8.0;
    const FluidResult result = solve_fluid(*protocol, initial, options);
    // Only (I, S) infects: dI/dt = S I, the rate-1 logistic curve.
    for (int i = 0; i <= 100; ++i) {
        const double t = 8.0 * i / 100.0;
        EXPECT_NEAR(result.solution.density_at(t, 1), logistic(0.25, 1.0, t), 1e-7) << t;
    }
}

TEST(MeanfieldIntegrator, LeaderElectionMatchesHyperbolicDecay) {
    const auto protocol = make_leader_election_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {256});
    FluidOptions options;
    options.t_end = 50.0;
    const FluidResult result = solve_fluid(*protocol, initial, options);
    // The only effective ordered pair is (L, L) -> (L, F), so the fluid
    // limit is dL/dt = -L^2 with exact solution L(t) = 1 / (1/L0 + t).
    for (double t : {0.0, 0.5, 2.0, 10.0, 50.0}) {
        const State leader = 1;  // state/output 1 = leader
        EXPECT_NEAR(result.solution.density_at(t, leader), 1.0 / (1.0 + t), 1e-7) << t;
    }
}

TEST(MeanfieldIntegrator, EquilibriumDetectorStopsEarly) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {192, 64});
    FluidOptions options;
    options.t_end = 1000.0;
    // eps must sit above the solver's own error floor (~abs_tol): below
    // it the integrated density jitters across the threshold forever.
    options.equilibrium_eps = 1e-6;
    options.equilibrium_window = 2.0;
    const FluidResult result = solve_fluid(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, FluidStopReason::kEquilibrium);
    EXPECT_LT(result.t_reached, 100.0);
    EXPECT_NEAR(result.final_density[1], 1.0, 1e-5);
    EXPECT_LT(result.final_drift_norm, 1e-6);
}

TEST(MeanfieldIntegrator, SilentInitialDensityIsStationary) {
    // All agents already infected: the configuration is silent, the drift
    // is identically zero, and the detector fires after exactly the window.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {0, 64});
    FluidOptions options;
    options.t_end = 100.0;
    options.equilibrium_eps = 1e-12;
    options.equilibrium_window = 1.0;
    const FluidResult result = solve_fluid(*protocol, initial, options);
    EXPECT_EQ(result.stop_reason, FluidStopReason::kEquilibrium);
    EXPECT_EQ(result.final_density[1], 1.0);
    EXPECT_EQ(result.final_drift_norm, 0.0);
}

TEST(MeanfieldIntegrator, DenseOutputClampsOutsideSpan) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {3, 1});
    FluidOptions options;
    options.t_end = 2.0;
    const FluidResult result = solve_fluid(*protocol, initial, options);
    EXPECT_EQ(result.solution.density_at(-1.0), result.solution.density_at(0.0));
    EXPECT_EQ(result.solution.density_at(99.0), result.final_density);
    EXPECT_DOUBLE_EQ(result.solution.density_at(0.0, 1), 0.25);
}

TEST(MeanfieldIntegrator, RejectsBadInputs) {
    const auto protocol = make_epidemic_protocol();
    const DriftField drift(*protocol);
    FluidOptions options;  // t_end unset
    EXPECT_THROW(solve_fluid(drift, {0.5, 0.5}, options), std::invalid_argument);
    options.t_end = 1.0;
    EXPECT_THROW(solve_fluid(drift, {0.9, 0.9}, options), std::invalid_argument);
    EXPECT_THROW(solve_fluid(drift, {0.5, 0.5, 0.0}, options), std::invalid_argument);
    const auto empty = CountConfiguration(2);
    EXPECT_THROW(solve_fluid(*protocol, empty, options), std::invalid_argument);
}

// --- Cross-validation against the simulation engines --------------------

TEST(MeanfieldComparator, NormalizedTrajectoryRescalesARecordedRun) {
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = 1024;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 16, 16});
    TraceRecorder recorder;
    RunOptions options;
    options.max_interactions = 16 * n;
    options.seed = 7;
    options.observer = &recorder;
    options.snapshots = SnapshotSchedule::every(n);
    run_count_batch(*protocol, initial, options);

    const EmpiricalTrajectory trajectory = normalized_trajectory(recorder);
    ASSERT_GE(trajectory.times.size(), 3u);
    EXPECT_EQ(trajectory.population, n);
    EXPECT_DOUBLE_EQ(trajectory.times.front(), 0.0);
    EXPECT_DOUBLE_EQ(trajectory.densities.front()[1], 16.0 / static_cast<double>(n));
    // Fluid times are interaction indices over n; snapshot 1 sits at t = 1.
    EXPECT_DOUBLE_EQ(trajectory.times[1], 1.0);
    for (std::size_t k = 0; k < trajectory.times.size(); ++k) {
        double total = 0.0;
        for (double x : trajectory.densities[k]) total += x;
        EXPECT_NEAR(total, 1.0, 1e-12);
    }
}

TEST(MeanfieldComparator, DeviationShrinksWithPopulation) {
    // The Bournez et al. fluid limit: the same initial *density* simulated
    // at growing n must hug the ODE ever tighter (O(1/sqrt(n))).  The
    // seeds are fixed, so this is deterministic.
    const auto protocol = make_epidemic_protocol();
    FluidOptions fluid_options;
    fluid_options.t_end = 8.0;

    double previous = std::numeric_limits<double>::infinity();
    for (const std::uint64_t n : {std::uint64_t{256}, std::uint64_t{2048}, std::uint64_t{16384}}) {
        const auto initial = CountConfiguration::from_input_counts(*protocol, {n - n / 64, n / 64});
        const FluidResult fluid = solve_fluid(*protocol, initial, fluid_options);

        TrialOptions trial_options;
        trial_options.trials = 4;
        trial_options.base.engine = SimulationEngine::kCountBatch;
        trial_options.base.seed = 1;
        trial_options.base.max_interactions = 8 * n + 1;
        trial_options.base.snapshots = SnapshotSchedule::every(std::max<std::uint64_t>(1, n / 8));
        const EmpiricalTrajectory simulated =
            mean_normalized_trajectory(*protocol, initial, trial_options);
        const TrajectoryDeviation deviation = compare_to_fluid(fluid.solution, simulated);

        // Runs go silent before the 8n budget, so the shared snapshot grid
        // truncates at the earliest-stopping trial; it still has to cover a
        // meaningful stretch of the trajectory.
        EXPECT_GT(deviation.points, 20u);
        EXPECT_LT(deviation.sup, previous) << "n=" << n;
        previous = deviation.sup;
    }
    // At the largest size the trajectory is already tight in absolute terms.
    EXPECT_LT(previous, 0.02);
}

TEST(MeanfieldComparator, AgentAndBatchEnginesValidateEqually) {
    // The comparator is engine-agnostic: both engines' mean trajectories
    // stay within the same O(1/sqrt(n)) band of the ODE.
    const auto protocol = make_epidemic_protocol();
    const std::uint64_t n = 2048;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n - 32, 32});
    FluidOptions fluid_options;
    fluid_options.t_end = 8.0;
    const FluidResult fluid = solve_fluid(*protocol, initial, fluid_options);

    for (const SimulationEngine engine :
         {SimulationEngine::kAgentArray, SimulationEngine::kCountBatch}) {
        TrialOptions trial_options;
        trial_options.trials = 4;
        trial_options.base.engine = engine;
        trial_options.base.seed = 11;
        trial_options.base.max_interactions = 8 * n + 1;
        trial_options.base.snapshots = SnapshotSchedule::every(n / 8);
        const EmpiricalTrajectory simulated =
            mean_normalized_trajectory(*protocol, initial, trial_options);
        const TrajectoryDeviation deviation = compare_to_fluid(fluid.solution, simulated);
        EXPECT_LT(deviation.sup, 0.05) << static_cast<int>(engine);
        EXPECT_GT(deviation.points, 20u);
    }
}

TEST(MeanfieldComparator, MajorityFluidLimitPredictsConsensusDensities) {
    // Lemma 5 majority (x1 > x0): at a 3:1 vote split the fluid limit and
    // the simulated runs must agree on the final output densities.
    const auto protocol = make_threshold_protocol({1, -1}, 0);
    const std::uint64_t n = 4096;
    const auto initial = CountConfiguration::from_input_counts(*protocol, {n / 4, 3 * n / 4});
    FluidOptions fluid_options;
    fluid_options.t_end = 64.0;
    fluid_options.equilibrium_eps = 1e-9;
    const FluidResult fluid = solve_fluid(*protocol, initial, fluid_options);

    TrialOptions trial_options;
    trial_options.trials = 2;
    trial_options.base.engine = SimulationEngine::kCountBatch;
    trial_options.base.seed = 3;
    trial_options.base.max_interactions = 64 * n + 1;
    trial_options.base.snapshots = SnapshotSchedule::every(n);
    const EmpiricalTrajectory simulated =
        mean_normalized_trajectory(*protocol, initial, trial_options);
    const TrajectoryDeviation deviation = compare_to_fluid(fluid.solution, simulated);
    EXPECT_LT(deviation.sup, 0.1);

    // Both sides agree the "true" output dominates at the end: sum the
    // final densities of output-1 states.
    double ode_true = 0.0;
    const std::vector<double>& last = simulated.densities.back();
    double sim_true = 0.0;
    for (State q = 0; q < protocol->num_states(); ++q) {
        if (protocol->output(q) == kOutputTrue) {
            ode_true += fluid.solution.density_at(simulated.times.back(), q);
            sim_true += last[q];
        }
    }
    EXPECT_GT(ode_true, 0.95);
    EXPECT_GT(sim_true, 0.95);
}

}  // namespace
}  // namespace popproto
