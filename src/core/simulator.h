// Random-scheduling simulator (the conjugating-automata model, Sect. 6).
//
// At each step an ordered pair of distinct agents is chosen independently and
// uniformly at random from the complete interaction graph and delta is
// applied.  Random pairing guarantees fairness with probability 1, so any
// protocol that stably computes a predicate converges to the correct answer
// along almost every run; the simulator additionally measures *when*.
//
// There are five ways to start a run.  `run_simulation`
// (batch_simulator.h) is the one way to choose a complete-graph engine: it
// dispatches on RunOptions::engine.  `simulate` runs the reference
// agent-array engine directly.  `simulate_weighted` (below) and
// `simulate_on_graph` (graphs/graph_simulation.h) take per-agent inputs
// that a CountConfiguration cannot carry.  `run_scenario`
// (scenarios/scenario_spec.h) runs every named pairing model, including the
// deterministic round-robin and sweep schedules.  All of them share one
// run-loop kernel (core/run_loop.h) that owns every piece of run policy: the
// interaction budget, the silence stop, the stable-output window,
// observer dispatch, geometric-skip clamping at snapshot boundaries, and
// deterministic checkpoint/resume.  They only differ in how the next
// interaction is sampled.

#ifndef POPPROTO_CORE_SIMULATOR_H
#define POPPROTO_CORE_SIMULATOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/configuration.h"
#include "core/observer.h"
#include "core/rng.h"
#include "core/tabulated_protocol.h"

namespace popproto {

namespace telemetry {
struct RunTelemetry;
class RunTelemetryCollector;
}  // namespace telemetry

class CheckpointSink;
struct RunCheckpoint;

/// Which execution engine carries out a run on the complete graph.
///
/// Resolution contract: `run_simulation` is the only function that chooses
/// an engine, and it dispatches on this field.  Every other entry point
/// *checks* the field, so a RunOptions that asks for an engine is never
/// executed by another one unnoticed: `simulate` accepts kAuto (the
/// default) or kAgentArray, and the engines without an enum value
/// (weighted, graph, scenario models) require kAuto.
enum class SimulationEngine {
    /// Let `run_simulation` select by population size (agent array below
    /// kAutoCountBatchThreshold, count-batch up to kAutoCollapsedThreshold,
    /// the phase-adaptive engine beyond — threads > 1 still pins the
    /// collapsed engine, the only parallel one).  The other entry points
    /// read kAuto as "run yourself".
    kAuto,
    /// Expanded agent array, one RNG draw per agent per interaction.  The
    /// reference implementation: O(n) memory, O(1) per interaction.
    kAgentArray,
    /// Count-based batch engine (batch_simulator.h): simulates directly on
    /// the multiset of states and skips runs of null interactions with
    /// exact geometric jumps.  O(|Q|) memory, O(|Q|) per *effective*
    /// interaction; the distribution of observables is identical.
    kCountBatch,
    /// Collapsed super-step engine (collapsed_simulator.h): executes
    /// ~1.5 sqrt(n) interactions per super-step — the few that touch an
    /// already-touched agent one by one, the rest in one O(|Q|^2) cascade
    /// of exact hypergeometric count splits — amortized
    /// O(|Q|^2 / sqrt(n)) per interaction.  Equivalence with the other
    /// engines is distributional (super-steps also make the *pathwise*
    /// trajectory sensitive to snapshot/checkpoint boundary placement; see
    /// collapsed_simulator.h).
    kCollapsedBatch,
    /// Phase-adaptive engine (adaptive_simulator.h): one count stepper that
    /// chooses at every step between a collapsed super-step and a
    /// count-batch step, by comparing the live density signal against the
    /// crossover in RunOptions::adaptive.  Serial only (threads <= 1).
    kAdaptive,
};

/// `run_simulation` auto-selection crossovers (populations at or above the
/// threshold use the faster engine).  Chosen from bench_throughput /
/// bench_collapsed: the count-batch engine wins from a few thousand agents
/// (PR 1 measured ~70000x at n = 2^20 on sparse phases), and the collapsed
/// engine overtakes it on dense phases around n = 2^20 (>= 10x there, no
/// regression above ~2^12; below that count-batch's O(1)-per-skipped-null
/// geometric jumps win on sparse tails).  At or above
/// kAutoCollapsedThreshold the regime *within* a run matters more than its
/// size, so kAuto hands those runs to the phase-adaptive engine
/// (adaptive_simulator.h), which re-decides the step kind at every step.
inline constexpr std::uint64_t kAutoCountBatchThreshold = std::uint64_t{1} << 12;
inline constexpr std::uint64_t kAutoCollapsedThreshold = std::uint64_t{1} << 20;

/// Tuning of the phase-adaptive engine (RunOptions::adaptive).
struct AdaptiveOptions {
    /// x*: a step is a collapsed super-step when the density signal
    /// x = W / (n(n-1)) * T, with T = ceil(1.5 sqrt(n)) the super-step
    /// length, is at least this, and a count-batch step otherwise.  The default is priced in EXPERIMENTS.md.
    double crossover = 12.0;

    friend bool operator==(const AdaptiveOptions&, const AdaptiveOptions&) = default;
};

/// Knobs controlling a single simulated execution.
struct RunOptions {
    /// Hard cap on interactions; the run reports `hit_budget` if reached.
    /// 0 selects `default_budget(n)` for the population at hand.
    std::uint64_t max_interactions = 0;

    /// If nonzero, additionally stop once no agent's *output* has changed for
    /// this many consecutive interactions.  This is a heuristic stopping rule
    /// for protocols that never become silent (e.g. the Theorem 7 simulator,
    /// which swaps states forever); choose the window large enough for the
    /// experiment at hand.
    std::uint64_t stop_after_stable_outputs = 0;

    /// RNG seed for this run (ignored when `resume_from` is set: the
    /// checkpoint carries the exact RNG stream position instead).
    std::uint64_t seed = 1;

    /// Engine selection; see the SimulationEngine resolution contract.
    SimulationEngine engine = SimulationEngine::kAuto;

    /// Intra-run worker threads.  Only the collapsed engine parallelizes
    /// (collapsed_simulator.h: super-steps are sharded across this many
    /// workers); every other engine is inherently sequential and rejects
    /// values > 1.  0 resolves to the hardware concurrency (clamped by
    /// measure_trials so trials x shards never oversubscribes), 1 (the
    /// default) is the serial engine.  For a fixed (seed, threads) the run
    /// is bit-identical across machines and pool schedules; changing
    /// `threads` changes the consumed RNG streams, so results across thread
    /// counts agree in distribution, not bit for bit (threads >= 2 all
    /// consume the same *parent* stream, but shard streams differ).
    unsigned threads = 1;

    /// Run-trace instrumentation hook (core/observer.h); borrowed, may be
    /// nullptr (the default: the kernel then steps with no observer call at
    /// all).  Observation never changes the RNG stream, so a run's RunResult
    /// is bit-identical with and without an observer.  When
    /// `measure_trials` fans trials across threads, the observer receives
    /// concurrent callbacks and must be thread-safe.
    RunObserver* observer = nullptr;

    /// Interaction indices at which `observer->on_snapshot` fires.  They are
    /// kernel boundaries with or without an observer: RunResult::tallies
    /// counts them, and super-steps end on them, so attaching an observer
    /// never moves a trajectory.  Defaults to no snapshots.
    SnapshotSchedule snapshots;

    /// If nonzero, deliver a deterministic RunCheckpoint (core/run_loop.h)
    /// to `checkpoint_sink` at every multiple of this interaction count.
    /// Checkpoints land *exactly* on the multiples — a boundary that falls
    /// inside the batch engine's geometric null skip is materialized by
    /// recording the not-yet-executed remainder of the skip — and never
    /// perturb the RNG stream, so a checkpointed run's RunResult is
    /// bit-identical to an unobserved one.  Requires `checkpoint_sink`.
    std::uint64_t checkpoint_every = 0;

    /// Receiver for the checkpoints above; borrowed, may be nullptr only
    /// when `checkpoint_every` is 0.
    CheckpointSink* checkpoint_sink = nullptr;

    /// Resume a suspended run from this checkpoint (borrowed) instead of
    /// starting fresh.  The checkpoint must come from the same engine,
    /// protocol shape, and population; the initial configuration argument
    /// of the entry point is only used for those validity checks.  A
    /// suspend-at-k + resume pair is bit-identical to the uninterrupted
    /// run on every engine.
    const RunCheckpoint* resume_from = nullptr;

    /// If nonzero, execute up to this *absolute* interaction index, deliver
    /// one checkpoint exactly there to `checkpoint_sink`, and stop with
    /// StopReason::kPaused — the primitive behind bounded work quanta (the
    /// service daemon slices a long run into pause_after segments and
    /// re-queues the checkpoint).  The pause checkpoint is the same
    /// checkpoint a checkpoint_every boundary at that index would deliver,
    /// so chained pause/resume segments are bit-identical to the
    /// uninterrupted run (super-step engines: to a run checkpointed at the
    /// same boundaries; see collapsed_simulator.h).  Requires
    /// `checkpoint_sink`, and must lie strictly beyond the resume point.
    /// A run that terminates (silent / stable outputs / budget) before the
    /// pause index simply reports its terminal result.
    std::uint64_t pause_after = 0;

    /// Borrowed cooperative-stop flag, polled with a relaxed load at every
    /// boundary the kernel stops stepping at, and at least every 4096 steps
    /// (core/run_loop.h; nullptr, the default, is never polled).
    /// When found true the kernel delivers a final checkpoint to
    /// `checkpoint_sink` (if one is configured) at the current loop
    /// boundary and stops with StopReason::kPaused.  This is how a signal
    /// handler (trace_run SIGINT/SIGTERM) or the service daemon's
    /// suspend/cancel commands interrupt an in-flight run without losing
    /// its exact state; resuming from the delivered checkpoint is
    /// bit-identical to never having stopped.
    const std::atomic<bool>* stop_flag = nullptr;

    /// Performance-telemetry collector (telemetry/telemetry.h); borrowed,
    /// may be nullptr (the default — costs one branch per probe site).
    /// Like observers, telemetry never touches the RNG stream or the
    /// configuration: the RunResult is bit-identical with and without a
    /// collector.  One collector instruments one run at a time (it resets
    /// itself in begin_run), so `measure_trials` rejects it.
    telemetry::RunTelemetryCollector* telemetry = nullptr;

    /// Phase-adaptive engine tuning (engine == kAdaptive, or kAuto runs
    /// large enough that run_simulation routes them adaptively).
    AdaptiveOptions adaptive;
};

/// Why a run stopped.
enum class StopReason {
    kSilent,         ///< no interaction can change any state; outputs final
    kStableOutputs,  ///< heuristic output-stability window elapsed
    kBudget,         ///< max_interactions reached
    /// Suspended, not finished: RunOptions::pause_after was reached or
    /// RunOptions::stop_flag was raised; a checkpoint capturing the exact
    /// state was delivered to checkpoint_sink (when configured) and the run
    /// can be resumed bit-identically.
    kPaused,
};

/// Stable lowercase identifier ("silent", "stable_outputs", "budget",
/// "paused"): the one spelling of a stop reason in the JSONL trace, the
/// wire protocol and the service's session manifests.
const char* stop_reason_label(StopReason reason);

/// Inverse of `stop_reason_label`; throws std::invalid_argument naming an
/// unknown label.
StopReason parse_stop_reason_label(const std::string& label);

/// The events of one run, counted by the run-loop kernel whether or not an
/// observer is attached: what RunObserver callbacks a run delivers, without
/// the calls.  A resumed run (a service quantum, say) counts only its own
/// stretch; observe/metrics.h sums them across runs.
struct RunTallies {
    /// Output-change events: one per interaction that changed an output
    /// (one per super-step that did, on the super-step engines).
    std::uint64_t output_changes = 0;

    /// Scheduled snapshot indices the run crossed (RunOptions::snapshots),
    /// delivered to on_snapshot when an observer is attached.
    std::uint64_t snapshots = 0;

    /// Runs of null interactions that count-batch steps jumped in one
    /// geometric draw.  A run is split where a checkpoint or pause cuts it,
    /// and only its executed part counts when a stop rule cuts it short;
    /// bucket b of the histogram counts runs of length in [2^b, 2^(b+1)).
    std::uint64_t null_runs = 0;
    std::uint64_t null_interactions = 0;
    std::array<std::uint64_t, 64> null_run_length_log2{};

    friend bool operator==(const RunTallies&, const RunTallies&) = default;
};

/// Outcome of a simulated execution.
struct RunResult {
    CountConfiguration final_configuration;
    StopReason stop_reason = StopReason::kBudget;

    /// Total interactions performed, including null interactions.
    std::uint64_t interactions = 0;

    /// Interactions that changed at least one agent's state.
    std::uint64_t effective_interactions = 0;

    /// 1-based index of the last interaction that changed any agent's
    /// output symbol; 0 if outputs never changed.  For a run that converges
    /// to the correct stable output this is the empirical convergence time.
    std::uint64_t last_output_change = 0;

    /// Consensus output of the final configuration, if all agents agree.
    std::optional<Symbol> consensus;

    /// Which engine actually executed the run — `run_simulation`'s kAuto
    /// dispatch reports its size-based choice here (every entry point fills
    /// the field, so it is also a cross-check for pinned engines).
    ObservedEngine engine = ObservedEngine::kAgentArray;

    /// Finished performance telemetry when RunOptions::telemetry was set
    /// (phase timers, shard utilization, super-step/skip accounting);
    /// nullptr otherwise.  Shared with the collector, so it outlives both.
    std::shared_ptr<const telemetry::RunTelemetry> telemetry;

    /// The run's event tallies (output changes, snapshots, null runs).
    RunTallies tallies;
};

/// Simulates `protocol` from `initial` under uniform random pairing.
/// Requires a population of at least 2 agents and
/// options.engine in {kAuto, kAgentArray}.
RunResult simulate(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                   const RunOptions& options);

/// A generous default interaction budget for experiments expecting
/// Theta(n^2 log n) convergence: `factor * n^2 * (ln n + 1)`.  This is the
/// budget a RunOptions with max_interactions == 0 resolves to
/// (core/run_loop.h owns that plumbing).
std::uint64_t default_budget(std::uint64_t population, double factor = 64.0);

/// Weighted sampling (the Sect. 8 open direction): the ordered pair (i, j),
/// i != j, interacts with probability proportional to
/// weights[i] * weights[j].  Uniform weights reduce to `simulate`.  The
/// paper conjectures that reasonable weights do not change computational
/// power; bench_weighted_sampling probes this empirically.  `initial` fixes
/// per-agent states (weights are per agent, so agents are not anonymous
/// here); all weights must be positive and finite.  Requires
/// options.engine == kAuto.
RunResult simulate_weighted(const TabulatedProtocol& protocol,
                            const AgentConfiguration& initial,
                            const std::vector<double>& weights, const RunOptions& options);

}  // namespace popproto

#endif  // POPPROTO_CORE_SIMULATOR_H
