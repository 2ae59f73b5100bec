// The run-loop kernel: one stepping policy for every simulation engine.
//
// The fairness model of the paper (Sect. 2, and the conjugating-automata
// randomized scheduler of Sect. 6) is *one* semantics with several samplers:
// uniform agent pairs (simulate), the count-based multiset sampler and the
// collapsed super-step sampler (both behind run_simulation), weighted pairs
// (simulate_weighted), uniform edges on a restricted graph
// (simulate_on_graph), and the named pairing models of run_scenario,
// deterministic round-robin and sweep schedules included.  Everything those
// loops used to duplicate — the interaction budget, the silence stop, the
// stable-output window, observer dispatch, snapshot-boundary clamping of
// geometric null skips — is policy, not sampling, and lives here exactly
// once.
//
// Silence has one rule on every engine: the run stops at its first silent
// configuration.  A silent configuration is one no interaction can change, so
// its outputs are stable (Lemma 1), and each stepper keeps an exact O(1)
// is_silent() up to date as it steps.
//
// An engine contributes a *Stepper* (see the concept below): how to draw
// and apply one interaction, how to test silence, and how to export /
// restore its configuration.  `run_loop(stepper, protocol, options)` drives
// it and returns the engine-independent RunResult.
//
// On top of the unified loop sits deterministic checkpoint/resume: with
// RunOptions::checkpoint_every = c, a RunCheckpoint is delivered to
// RunOptions::checkpoint_sink at every interaction index that is a multiple
// of c.  A checkpoint captures the complete loop state — configuration,
// exact RNG stream position, counters, stop-tracker state — so that
// resuming from it (RunOptions::resume_from) replays the identical RNG
// stream and produces a RunResult and trajectory bit-identical to the
// uninterrupted run.  Two subtleties make this exact:
//
//  * A checkpoint boundary that falls inside the batch engine's geometric
//    null skip does not redraw: the checkpoint records the not-yet-executed
//    remainder of the skip (`pending_null_skips`), and the resumed loop
//    consumes it before drawing again.  This mirrors how snapshots are
//    clamped at schedule boundaries.
//  * A resumed run tests silence at the cut, as a fresh run does at index 0.
//    The loop takes checkpoints only while the run is not silent, so the
//    test passes on every checkpoint this kernel writes.  A checkpoint whose
//    configuration is already silent stops at the cut with kSilent.
//
// The only observable difference a checkpointed run may exhibit is that its
// null-run tally (RunResult::tallies) is split at checkpoint boundaries
// (total length is unchanged).
//
// Between the indices it must act on — budget, checkpoint or pause,
// snapshot, stable-output deadline — and short of silence, a step-kind
// switch or a stop-flag poll, the kernel's stepping loop only draws, steps
// and counts.  It keeps the run's event tallies itself (RunResult::tallies),
// and compiles the observer and telemetry calls in only for a run that has
// one of them attached, so an unwatched run makes no call but the
// stepper's.

#ifndef POPPROTO_CORE_RUN_LOOP_H
#define POPPROTO_CORE_RUN_LOOP_H

#include <array>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/configuration.h"
#include "core/observer.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"
#include "telemetry/telemetry.h"

namespace popproto {

// ---------------------------------------------------------------------------
// Shared policy defaults (the former per-engine copy-paste)

/// The effective interaction budget: options.max_interactions, or
/// default_budget(population) when the option is 0.
std::uint64_t resolved_budget(const RunOptions& options, std::uint64_t population);

/// Throws unless options.engine is kAuto or `accepted`; `entry_point` names
/// the caller in the message.  Pass kAuto as `accepted` for engines that
/// have no SimulationEngine value (weighted, graph, scenario models).
void require_engine_field(const RunOptions& options, SimulationEngine accepted,
                          const char* entry_point);

/// The count engines' restore check: throws std::invalid_argument unless
/// `counts` holds `num_states` entries summing to exactly `population`.  The
/// sum is checked_sum's, so counts whose uint64 sum wraps around to
/// `population` are rejected too.
/// `engine` prefixes the message ("count_batch", "collapsed").
void require_checkpoint_counts(const std::vector<std::uint64_t>& counts, std::size_t num_states,
                               std::uint64_t population, const char* engine);

// ---------------------------------------------------------------------------
// Checkpoints

/// Complete, serializable state of a suspended run.  Exactly one of
/// `counts` / `agent_states` is populated, per the engine's representation.
struct RunCheckpoint {
    /// Schema version of the serialized form.
    static constexpr int kFormatVersion = 1;

    ObservedEngine engine = ObservedEngine::kAgentArray;
    std::uint64_t population = 0;
    std::uint64_t num_states = 0;

    /// Exact RNG stream position (Rng::save_state / restore_state).
    Rng::StreamState rng;

    // RunResult counters at the cut.
    std::uint64_t interactions = 0;
    std::uint64_t effective_interactions = 0;
    std::uint64_t last_output_change = 0;

    /// Batch engine only: the geometric null-skip draw preceding the next
    /// effective interaction was already consumed from the RNG stream, and
    /// `pending_null_skips` of it remain unexecuted at the cut.  The
    /// resumed loop replays the remainder without redrawing.
    bool has_pending_skip = false;
    std::uint64_t pending_null_skips = 0;

    /// Parallel collapsed engine only: the per-shard child RNG streams, in
    /// shard order (size == the run's thread count K).  Shards keep drawing
    /// from their own streams across super-steps, so a checkpoint must
    /// carry all K positions alongside the parent stream in `rng`; resuming
    /// requires the same K (the serial engine leaves this empty).
    std::vector<Rng::StreamState> shard_rngs;

    /// Interaction-model section: which pairing model drove the run and the
    /// model's serialized word state (cursor positions, permutations, agent
    /// positions — see interaction_model.h).  Stateless built-in models
    /// (uniform, weighted, static graph) leave the name empty and the line
    /// is omitted, keeping their serialized form byte-identical to
    /// checkpoints written before the interaction-model layer existed.
    std::string interaction_model;
    std::vector<std::uint64_t> model_state;

    /// Multiset configuration (count engines: count_batch, collapsed).
    std::vector<std::uint64_t> counts;
    /// Per-agent configuration (agent engines: simulate, simulate_weighted,
    /// simulate_on_graph, run_scenario).
    std::vector<State> agent_states;

    friend bool operator==(const RunCheckpoint&, const RunCheckpoint&) = default;
};

/// Receives checkpoints as the run crosses checkpoint_every boundaries.
/// Called synchronously from the simulating thread; the reference is only
/// valid for the duration of the call.
class CheckpointSink {
public:
    virtual ~CheckpointSink() = default;
    virtual void on_checkpoint(const RunCheckpoint& checkpoint) = 0;
};

/// Writes `checkpoint` in the line-oriented text format (versioned, self-
/// describing; see run_loop.cpp for the grammar).
void write_checkpoint(std::ostream& out, const RunCheckpoint& checkpoint);

/// Parses a checkpoint previously written by `write_checkpoint`; throws
/// std::invalid_argument on malformed input.
RunCheckpoint read_checkpoint(std::istream& in);

/// Convenience string round-trip of write_checkpoint / read_checkpoint.
std::string checkpoint_to_string(const RunCheckpoint& checkpoint);
RunCheckpoint checkpoint_from_string(const std::string& text);

/// Persists `checkpoint` to `path` atomically: the serialized form is
/// written to `path` + ".tmp" and renamed over `path`, so an interrupt or
/// crash mid-write never clobbers the previous good checkpoint.  Used by
/// trace_run's --checkpoint sink and the service daemon's eviction spill.
/// Throws std::runtime_error naming the failing path (and errno text) when
/// the temporary cannot be written or the rename fails.
void write_checkpoint_atomic(const std::string& path, const RunCheckpoint& checkpoint);

/// The tmp + rename writer behind write_checkpoint_atomic, for every file
/// that must never be seen torn (the service daemon's manifests too):
/// `write` streams the content into `path` + ".tmp", which is then renamed
/// over `path`.  On failure the temporary is removed and the
/// std::runtime_error starts with `caller` and names the failing path.
void write_file_atomic(const std::string& path, const char* caller,
                       const std::function<void(std::ostream&)>& write);

/// Reads a checkpoint file previously produced by `write_checkpoint_atomic`
/// (or any stream written by `write_checkpoint`).  Throws
/// std::runtime_error naming `path` when the file cannot be opened, and
/// std::invalid_argument with the line number and offending token on
/// malformed content.
RunCheckpoint read_checkpoint_file(const std::string& path);

// ---------------------------------------------------------------------------
// The Stepper concept

/// One interaction's outcome, reported by Stepper::step.
struct StepOutcome {
    /// The interaction changed the engine's configuration (state multiset
    /// or some agent's state, per the engine's bookkeeping contract).
    bool changed = false;
    /// The interaction changed an output (implies `changed`).
    bool output_changed = false;
};

/// One super-step's aggregate outcome, reported by
/// Stepper::apply_super_step (super-step engines only).
struct BatchOutcome {
    /// How many of the executed interactions changed the state multiset.
    std::uint64_t effective = 0;
    /// Some executed interaction changed the multiset of outputs.  The
    /// kernel stamps last_output_change at the *end* of the super-step (the
    /// exact interaction index inside the batch is not resolved — a
    /// documented coarsening; see collapsed_simulator.h).
    bool output_changed = false;
};

/// Requirements common to both stepper flavours.  The kernel owns *when* to
/// step, check, snapshot, stop, and checkpoint; the stepper owns *how* to
/// sample and apply interactions.
///
/// RNG discipline: the kernel never consumes randomness itself.  Exactly
/// the stepper's proposal/step methods draw from the stream, in loop order,
/// which is what makes checkpoints (a stream position plus the stepper
/// state) exact.
template <typename S>
concept StepperBase = requires(S stepper, const S const_stepper, RunCheckpoint& checkpoint,
                               const RunCheckpoint& const_checkpoint) {
    { S::kEngine } -> std::convertible_to<ObservedEngine>;
    /// Whether propose_skip can return nonzero.  False compiles the whole
    /// skip/clamp machinery out of the loop, keeping per-interaction
    /// engines on the same tight hot path their private loops had.
    { S::kGeometricSkips } -> std::convertible_to<bool>;
    /// Whether the stepper advances in multi-interaction super-steps
    /// (super_step_length / apply_super_step).  Only a mixed stepper (see
    /// MixedStepper) sets both this and kGeometricSkips.
    { S::kSuperSteps } -> std::convertible_to<bool>;
    { const_stepper.population() } -> std::convertible_to<std::uint64_t>;
    /// Exact and O(1), kept up to date by the stepping methods; the kernel
    /// reads it at the start and after every step that changed the
    /// configuration.  A stepper whose configuration cannot fall silent
    /// (graph runs: group (d) swaps fire forever) returns false.
    { const_stepper.is_silent() } -> std::convertible_to<bool>;
    /// Current configuration as a state multiset (snapshots, final result).
    { const_stepper.counts() } -> std::same_as<CountConfiguration>;
    /// Export / import the engine-specific configuration payload of a
    /// checkpoint (the kernel fills every other field).
    { const_stepper.save(checkpoint) };
    { stepper.restore(const_checkpoint) };
};

/// The classic flavour: one step() per interaction, optionally preceded by
/// a geometric null-skip proposal.
template <typename S>
concept SingleStepStepper = StepperBase<S> &&
    requires(S stepper, Rng& rng) {
        /// Number of consecutive null interactions to jump before the next
        /// step() (only called when kGeometricSkips; must be 0 for engines
        /// that execute every interaction explicitly).
        { stepper.propose_skip(rng) } -> std::convertible_to<std::uint64_t>;
        { stepper.step(rng) } -> std::same_as<StepOutcome>;
    };

/// The super-step flavour (collapsed_simulator.cpp): super_step_length() is
/// the number of interactions T an unclamped super-step executes (a
/// function of n alone); the kernel clamps it at the earliest boundary it
/// must observe exactly (snapshot, checkpoint, stable-output window,
/// budget) and calls apply_super_step(rng, m), which executes exactly m
/// interactions.  Clamping is exact, not approximate: a super-step of m
/// interactions samples the configuration m interactions on for every m,
/// and the count process is Markov, so the next super-step restarts fresh
/// (this does make the *pathwise* trajectory sensitive to boundary
/// placement — equivalence across observation setups is distributional,
/// not stream-level).
template <typename S>
concept SuperStepStepper = StepperBase<S> && S::kSuperSteps &&
    requires(S stepper, const S const_stepper, Rng& rng, std::uint64_t m) {
        /// T >= 1, drawing nothing.
        { const_stepper.super_step_length() } -> std::convertible_to<std::uint64_t>;
        { stepper.apply_super_step(rng, m) } -> std::same_as<BatchOutcome>;
    };

/// The mixed flavour (the adaptive stepper, adaptive_simulator.h): both of
/// the above over one count configuration.  At every loop top the kernel
/// asks super_step_due() — a function of the configuration alone, so the
/// choice keeps the law of the run — and hands the configuration to the
/// other step kind with set_step_kind() when the answer changes.  The two
/// kinds are reported as the engines kSingleStepEngine / kSuperStepEngine
/// (observer switch events, telemetry segments); signal() and crossover()
/// are the compared quantities, for the switch event.
template <typename S>
concept MixedStepper = SingleStepStepper<S> && SuperStepStepper<S> &&
    requires(S stepper, const S const_stepper, bool super_step) {
        { S::kSingleStepEngine } -> std::convertible_to<ObservedEngine>;
        { S::kSuperStepEngine } -> std::convertible_to<ObservedEngine>;
        { const_stepper.super_step_due() } -> std::convertible_to<bool>;
        { stepper.set_step_kind(super_step) };
        { const_stepper.signal() } -> std::convertible_to<double>;
        { const_stepper.crossover() } -> std::convertible_to<double>;
    };

/// What an engine supplies to the kernel: one of the flavours above.  A
/// stepper of both flavours must be a MixedStepper.
template <typename S>
concept Stepper = (SingleStepStepper<S> || SuperStepStepper<S>) &&
                  (!(SingleStepStepper<S> && SuperStepStepper<S>) || MixedStepper<S>);

/// Steppers that honour RunOptions::threads > 1 declare `static constexpr
/// bool kParallel = true` (the sharded collapsed stepper is the only one).
/// For every other stepper the kernel rejects threads > 1 up front, so a
/// thread request can never be silently ignored by a sequential engine —
/// the same never-ignore contract as SimulationEngine resolution.
template <typename S>
concept ParallelStepper = Stepper<S> && requires {
    { S::kParallel } -> std::convertible_to<bool>;
} && S::kParallel;

// ---------------------------------------------------------------------------
// The kernel

namespace run_loop_detail {

inline double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// require() for the kernel's checks: the message is `entry_point` + `what`,
/// built only when `condition` fails, so a passing run or resume allocates
/// nothing here.
inline void require_at(bool condition, const char* entry_point, std::string_view what) {
    if (!condition) throw std::invalid_argument(std::string(entry_point).append(what));
}

/// With RunOptions::stop_flag set, the stepping loop returns to the loop
/// top, where the flag is polled, after at most this many steps.
inline constexpr std::uint64_t kStopPollSteps = std::uint64_t{1} << 12;

/// Books `count` null runs into `tallies`, given by their bit widths (0
/// for a zero length, which books nothing), `length` null interactions in
/// all.  The stepping loop buffers the widths and books them in batches:
/// a run takes one byte store on the loop's critical path instead of a
/// histogram increment.  (Against a bare draw-and-step loop, a count-batch
/// run read 0.92 batched and 0.85 with one increment per step.)
inline void book_null_runs(RunTallies& tallies, const std::uint8_t* widths, std::size_t count,
                           std::uint64_t length) {
    std::uint64_t runs = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t run = widths[i] != 0;
        runs += run;
        tallies.null_run_length_log2[(widths[i] - 1u) % 64] += run;
    }
    tallies.null_runs += runs;
    tallies.null_interactions += length;
}

/// `limit`, lowered to the stable-output deadline `from + window` when that
/// comes first (window 0: no deadline).  Never overflows.
inline std::uint64_t clamp_to_deadline(std::uint64_t limit, std::uint64_t from,
                                       std::uint64_t window) {
    return window != 0 && limit > from && window < limit - from ? from + window : limit;
}

/// A run's counters while the kernel steps it (the RunResult fields but
/// the configuration, which the kernel reads from the stepper at the end).
struct RunProgress {
    StopReason stop_reason = StopReason::kBudget;
    std::uint64_t interactions = 0;
    std::uint64_t effective_interactions = 0;
    std::uint64_t last_output_change = 0;
    RunTallies tallies;
};

/// The kernel proper.  `kWatched` compiles the observer and telemetry calls
/// in; run_loop instantiates it so only when one of them is attached, and
/// an unwatched run's stepping loop makes no call but the stepper's.
template <bool kWatched, Stepper S>
RunResult drive(S& stepper, const TabulatedProtocol& protocol, const RunOptions& options,
                const char* entry_point) {
    const std::uint64_t n = stepper.population();
    require_at(n >= 2, entry_point, ": need at least two agents");
    const std::uint64_t budget = resolved_budget(options, n);
    const std::uint64_t window = options.stop_after_stable_outputs;
    const std::uint64_t checkpoint_every = options.checkpoint_every;
    require_at(checkpoint_every == 0 || options.checkpoint_sink != nullptr, entry_point,
               ": checkpoint_every requires a checkpoint_sink");
    require_at(options.pause_after == 0 || options.checkpoint_sink != nullptr, entry_point,
               ": pause_after requires a checkpoint_sink");
    if constexpr (!ParallelStepper<S>) {
        // threads == 0 (auto) is fine — it resolves to 1 for sequential
        // engines — but an explicit request for parallelism is not.
        require_at(options.threads <= 1, entry_point,
                   ": this engine is sequential; threads > 1 is only supported by the "
                   "collapsed engine");
    }

    Rng rng(options.seed);
    // The run's counters; the RunResult is assembled from them at the end,
    // so a run allocates its final configuration once.
    RunProgress progress;

    // Observer and performance probes, both null in an unwatched run, whose
    // per-step and per-event sites are compiled out.  Telemetry never draws
    // randomness and never reads the stepper configuration, so the
    // RunResult is bit-identical with and without it
    // (tests/telemetry_test.cpp).
    RunObserver* const observer = options.observer;
    telemetry::RunTelemetryCollector* const collector = options.telemetry;
    if (collector) {
        unsigned run_threads = 1;
        if constexpr (requires { { stepper.threads() } -> std::convertible_to<unsigned>; })
            run_threads = stepper.threads();
        collector->begin_run(observed_engine_name(S::kEngine), n, run_threads);
    }

    std::uint64_t pending_skip = 0;
    bool has_pending_skip = false;

    if (options.resume_from != nullptr) {
        const RunCheckpoint& checkpoint = *options.resume_from;
        // A mixed stepper also adopts the checkpoints of its two step kinds'
        // static engines: they suspend to the same payload.
        bool own_engine = checkpoint.engine == S::kEngine;
        if constexpr (MixedStepper<S>)
            own_engine = own_engine || checkpoint.engine == S::kSingleStepEngine ||
                         checkpoint.engine == S::kSuperStepEngine;
        if (!own_engine)
            throw std::invalid_argument(std::string(entry_point) +
                                        ": checkpoint was taken by the " +
                                        observed_engine_name(checkpoint.engine) + " engine");
        require_at(checkpoint.population == n, entry_point, ": checkpoint population mismatch");
        require_at(checkpoint.num_states == protocol.num_states(), entry_point,
                   ": checkpoint state-count mismatch");
        require_at(checkpoint.interactions <= budget, entry_point,
                   ": checkpoint lies beyond max_interactions");
        stepper.restore(checkpoint);
        rng.restore_state(checkpoint.rng);
        progress.interactions = checkpoint.interactions;
        progress.effective_interactions = checkpoint.effective_interactions;
        progress.last_output_change = checkpoint.last_output_change;
        has_pending_skip = checkpoint.has_pending_skip;
        pending_skip = checkpoint.pending_null_skips;
    }

    // The pause index (RunOptions::pause_after) is one extra checkpoint
    // boundary: it participates in the same schedule (and super-step /
    // null-skip clamping) as the periodic checkpoints, and taking the
    // checkpoint there additionally ends the run with kPaused.
    const std::uint64_t pause_at =
        options.pause_after != 0 ? options.pause_after : SnapshotSchedule::kNever;
    require_at(pause_at == SnapshotSchedule::kNever || pause_at > progress.interactions,
               entry_point, ": pause_after lies at or before the resume point");
    bool paused = false;

    std::uint64_t next_checkpoint = SnapshotSchedule::kNever;
    const auto advance_checkpoint_schedule = [&] {
        next_checkpoint = SnapshotSchedule::kNever;
        if (checkpoint_every != 0 &&
            progress.interactions / checkpoint_every <
                SnapshotSchedule::kNever / checkpoint_every - 1)
            next_checkpoint = (progress.interactions / checkpoint_every + 1) * checkpoint_every;
        if (pause_at > progress.interactions && pause_at < next_checkpoint)
            next_checkpoint = pause_at;
    };
    advance_checkpoint_schedule();

    const auto make_checkpoint = [&](std::uint64_t pending, bool has_pending) {
        RunCheckpoint checkpoint;
        checkpoint.engine = S::kEngine;
        checkpoint.population = n;
        checkpoint.num_states = protocol.num_states();
        checkpoint.rng = rng.save_state();
        checkpoint.interactions = progress.interactions;
        checkpoint.effective_interactions = progress.effective_interactions;
        checkpoint.last_output_change = progress.last_output_change;
        checkpoint.has_pending_skip = has_pending;
        checkpoint.pending_null_skips = pending;
        stepper.save(checkpoint);
        return checkpoint;
    };
    const auto take_checkpoint = [&](std::uint64_t pending, bool has_pending) {
        options.checkpoint_sink->on_checkpoint(make_checkpoint(pending, has_pending));
        if (progress.interactions >= pause_at) paused = true;
        advance_checkpoint_schedule();
    };

    // Scheduled snapshots are boundaries whether or not an observer takes
    // them.  Clamping a geometric jump at a snapshot reduces to this: a
    // scheduled index inside a run of null interactions sees the
    // configuration unchanged since the last effective interaction, so the
    // jump is kept (no extra randomness is drawn — observed and unobserved
    // runs are bit-identical) and each boundary is stamped with its exact
    // index.
    std::uint64_t next_snapshot = progress.interactions == 0
                                      ? options.snapshots.first_index()
                                      : options.snapshots.next_after(progress.interactions);
    // Counts (and, watched, emits) every scheduled snapshot with index <=
    // `limit` from the current configuration.
    const auto emit_snapshots_through = [&](std::uint64_t limit) {
        if (next_snapshot > limit) return;
        [[maybe_unused]] std::optional<telemetry::ScopedTimer> timer;
        if constexpr (kWatched)
            if (observer) timer.emplace(collector, telemetry::Phase::kSnapshotDispatch);
        do {
            if constexpr (kWatched)
                if (observer) observer->on_snapshot(next_snapshot, stepper.counts());
            ++progress.tallies.snapshots;
            next_snapshot = options.snapshots.next_after(next_snapshot);
        } while (next_snapshot <= limit);
    };
    // Books one null run of `length` >= 1 interactions.
    const auto tally_null_run = [&](std::uint64_t length) {
        const auto width = static_cast<std::uint8_t>(std::bit_width(length));
        book_null_runs(progress.tallies, &width, 1, length);
    };

    std::chrono::steady_clock::time_point wall_start;
    std::optional<CountConfiguration> initial_counts;
    if (observer) {
        wall_start = std::chrono::steady_clock::now();
        initial_counts.emplace(stepper.counts());
        RunStartInfo info;
        info.engine = S::kEngine;
        info.population = n;
        info.num_states = protocol.num_states();
        info.seed = options.seed;
        info.max_interactions = budget;
        info.initial = &*initial_counts;
        info.protocol = &protocol;
        observer->on_start(info);
    }

    bool silent = stepper.is_silent();  // a silent start or resume stops at once

    // A mixed stepper's current step kind and the telemetry segment it runs
    // in.  The kind is a function of the configuration, except that a
    // pending null skip is finished first, as the run that drew it did.
    [[maybe_unused]] bool super_kind = false;
    [[maybe_unused]] std::uint64_t switches = 0;
    [[maybe_unused]] std::uint64_t segment_start = progress.interactions;
    [[maybe_unused]] std::uint64_t segment_start_ns = 0;
    [[maybe_unused]] const auto close_segment = [&] {
        if constexpr (MixedStepper<S>) {
            if (collector)
                collector->record_engine_segment(
                    observed_engine_name(super_kind ? S::kSuperStepEngine : S::kSingleStepEngine),
                    progress.interactions - segment_start, segment_start_ns);
            segment_start = progress.interactions;
        }
    };
    if constexpr (MixedStepper<S>) {
        super_kind = !has_pending_skip && stepper.super_step_due();
        stepper.set_step_kind(super_kind);
        if (collector) segment_start_ns = collector->now_ns();
    }

    const std::atomic<bool>* const stop_flag = options.stop_flag;
    [[maybe_unused]] const std::uint64_t poll_steps = stop_flag != nullptr ? kStopPollSteps : 0;
    while (!silent && progress.interactions < budget) {
        // Cooperative stop: a raised flag ends the run at this loop
        // boundary.  The final checkpoint carries any not-yet-consumed
        // pending skip (a resume right after restoring one lands here
        // before the skip is executed), so resuming is exact.
        if (stop_flag != nullptr && stop_flag->load(std::memory_order_relaxed)) {
            if (options.checkpoint_sink != nullptr)
                take_checkpoint(has_pending_skip ? pending_skip : 0, has_pending_skip);
            paused = true;
            break;
        }
        // Checkpoint due at a loop boundary.  The stepping loops stop on
        // every multiple of the period they reach, so this lands exactly on
        // it; a multiple inside a geometric null skip is handled below and
        // also lands exactly.
        if (progress.interactions >= next_checkpoint) {
            take_checkpoint(has_pending_skip ? pending_skip : 0, has_pending_skip);
            if (paused) break;
        }

        // The step kind: fixed for a static stepper, so this test folds to a
        // constant; chosen afresh at every loop top by a mixed one.
        bool super_step = SuperStepStepper<S>;
        if constexpr (MixedStepper<S>) {
            super_step = !has_pending_skip && stepper.super_step_due();
            if (super_step != super_kind) {
                close_segment();
                EngineSwitchInfo info;
                info.interactions = progress.interactions;
                info.from = super_kind ? S::kSuperStepEngine : S::kSingleStepEngine;
                info.to = super_step ? S::kSuperStepEngine : S::kSingleStepEngine;
                info.signal = stepper.signal();
                info.enter_threshold = info.exit_threshold = stepper.crossover();
                info.switch_index = ++switches;
                {
                    const telemetry::ScopedTimer timer(collector,
                                                       telemetry::Phase::kEngineSwitch);
                    stepper.set_step_kind(super_step);
                }
                super_kind = super_step;
                if (collector) segment_start_ns = collector->now_ns();
                if (observer) observer->on_engine_switch(info);
            }
        }

        // The nearest index the kernel must act on.  Each boundary lies
        // strictly ahead of the current index (due snapshots and checkpoints
        // were handled above or at the end of the last pass, stop rules
        // would have fired), so at least one interaction fits.
        std::uint64_t limit = budget;
        if (next_snapshot < limit) limit = next_snapshot;
        if (next_checkpoint < limit) limit = next_checkpoint;
        if (progress.last_output_change != 0)
            limit = clamp_to_deadline(limit, progress.last_output_change, window);

        if (super_step) {
            if constexpr (SuperStepStepper<S>) {
                // One super-step of T interactions, clamped at the boundary.
                const std::uint64_t room = limit - progress.interactions;
                const std::uint64_t length = stepper.super_step_length();
                const bool clamped = room < length;
                const std::uint64_t m = clamped ? room : length;
                BatchOutcome outcome;
                {
                    const telemetry::ScopedTimer timer(collector,
                                                       telemetry::Phase::kSuperStepApply);
                    outcome = stepper.apply_super_step(rng, m);
                }
                progress.interactions += m;
                if (collector) collector->record_super_step(m, clamped);
                progress.effective_interactions += outcome.effective;
                if (outcome.output_changed) {
                    progress.last_output_change = progress.interactions;
                    ++progress.tallies.output_changes;
                    if constexpr (kWatched)
                        if (observer) observer->on_output_change(progress.interactions);
                }
                silent = stepper.is_silent();
            }
        } else if constexpr (SingleStepStepper<S>) {
            // Steps until `limit`, silence, a step-kind switch or a stop-flag
            // poll; the loop below only draws, steps and counts.  An output
            // change pulls `limit` in to its stable-output deadline.
            std::uint64_t t = progress.interactions;
            std::uint64_t effective = progress.effective_interactions;
            std::uint64_t last = progress.last_output_change;
            std::uint64_t output_changes = 0;
            const auto count_step = [&](StepOutcome outcome) {
                if (!outcome.changed) return;
                ++effective;
                if (outcome.output_changed) {
                    last = t;
                    ++output_changes;
                    if constexpr (kWatched)
                        if (observer) observer->on_output_change(t);
                    limit = clamp_to_deadline(limit, t, window);
                }
                silent = stepper.is_silent();
            };
            const auto sync = [&] {
                progress.interactions = t;
                progress.effective_interactions = effective;
                progress.last_output_change = last;
                progress.tallies.output_changes += output_changes;
                output_changes = 0;
            };
            // A count-batch step first jumps the geometric run of null
            // interactions preceding its effective one.  A run that would
            // reach `limit` ends the loop with its length in `skips`, for the
            // clamping path below; so does a pending skip from a resume.
            std::uint64_t skips = 0;
            bool clamp_skip = false;
            if constexpr (S::kGeometricSkips) {
                skips = pending_skip;
                clamp_skip = has_pending_skip;
                has_pending_skip = false;
            }
            if (!clamp_skip) {
                // The log2 buckets of the null runs not yet booked.
                [[maybe_unused]] std::array<std::uint8_t, 256> widths;
                [[maybe_unused]] std::size_t buffered = 0;
                [[maybe_unused]] std::uint64_t skipped = 0;
                for (std::uint64_t steps = 1;; ++steps) {
                    if constexpr (S::kGeometricSkips) {
                        skips = stepper.propose_skip(rng);
                        if (t + skips >= limit) {
                            clamp_skip = true;
                            break;
                        }
                        skipped += skips;
                        // bit_width without a branch on a zero length, which
                        // is a coin flip in a dense phase.
                        widths[buffered] =
                            static_cast<std::uint8_t>(std::bit_width(skips | 1) - (skips == 0));
                        if (++buffered == widths.size()) {
                            book_null_runs(progress.tallies, widths.data(), buffered, skipped);
                            buffered = 0;
                            skipped = 0;
                        }
                        t += skips;
                    }
                    ++t;
                    count_step(stepper.step(rng));
                    if constexpr (kWatched)
                        if (collector) collector->publish_interactions(t);
                    bool stop = silent || t >= limit || steps == poll_steps;
                    if constexpr (MixedStepper<S>) stop = stop || stepper.super_step_due();
                    if (stop) break;
                }
                if constexpr (S::kGeometricSkips)
                    book_null_runs(progress.tallies, widths.data(), buffered, skipped);
            }

            if (clamp_skip) {
                // Where does the null run actually end?  `target_end` is the
                // index of its last null interaction; the effective
                // interaction would land at target_end + 1.  The
                // stable-output window and the budget can both cut the run
                // inside the nulls (which change nothing, so the stop index
                // is exact); the window wins ties, as it always has.
                const std::uint64_t target_end = t + skips;
                std::uint64_t stop_at = 0;
                if (window != 0 && last != 0) stop_at = last + window;

                enum class SkipEnd { kRunOn, kStableOutputs, kBudget };
                SkipEnd skip_end = SkipEnd::kRunOn;
                std::uint64_t end_index = target_end;
                if (stop_at != 0 && stop_at <= target_end && stop_at <= budget) {
                    skip_end = SkipEnd::kStableOutputs;
                    end_index = stop_at;
                } else if (target_end >= budget) {
                    skip_end = SkipEnd::kBudget;
                    end_index = budget;
                }

                // Checkpoint boundaries inside the null run: materialize each
                // multiple of checkpoint_every strictly before the run's end
                // (or up to and including target_end when the run
                // continues), recording the unexecuted remainder of the
                // skip.  This splits the run's null-run tally; the total
                // length is unchanged.
                while (next_checkpoint <= end_index &&
                       (skip_end == SkipEnd::kRunOn || next_checkpoint < end_index)) {
                    emit_snapshots_through(next_checkpoint);
                    if (next_checkpoint > t) tally_null_run(next_checkpoint - t);
                    t = next_checkpoint;
                    sync();
                    take_checkpoint(target_end - t, true);
                    if (paused) break;
                }
                if (paused) break;  // pause boundary inside the null run

                if (skip_end != SkipEnd::kRunOn) {
                    emit_snapshots_through(end_index);
                    if (end_index > t) tally_null_run(end_index - t);
                    t = end_index;
                    sync();
                    if (skip_end == SkipEnd::kStableOutputs)
                        progress.stop_reason = StopReason::kStableOutputs;
                    break;  // kBudget: stop_reason already defaults to kBudget
                }
                if (skips != 0) {
                    emit_snapshots_through(target_end);
                    if (target_end > t) tally_null_run(target_end - t);
                }

                // The effective interaction terminating the null run.
                t = target_end + 1;
                count_step(stepper.step(rng));
            }
            sync();
        }

        if (progress.interactions >= next_snapshot) emit_snapshots_through(progress.interactions);

        if (window != 0 && progress.last_output_change != 0 &&
            progress.interactions - progress.last_output_change >= window) {
            progress.stop_reason = StopReason::kStableOutputs;
            break;
        }

        if constexpr (kWatched)
            if (collector) collector->publish_interactions(progress.interactions);
    }

    // Silence outranks a stable-output window or a budget that expires at
    // the same index.
    if (silent) progress.stop_reason = StopReason::kSilent;
    // A pause is never also a terminal stop: the loop breaks before
    // stepping, so `silent` cannot have been set in the same iteration.
    if (paused) progress.stop_reason = StopReason::kPaused;

    RunResult result{stepper.counts(),
                     progress.stop_reason,
                     progress.interactions,
                     progress.effective_interactions,
                     progress.last_output_change,
                     std::nullopt,
                     S::kEngine,
                     nullptr,
                     progress.tallies};
    result.consensus = result.final_configuration.consensus_output(protocol);
    // Telemetry finishes before on_stop so stop-time consumers (e.g. the
    // JSONL writer's "telemetry" event) see the completed RunTelemetry.
    if (collector) {
        close_segment();
        collector->finish_run(result.interactions, result.effective_interactions,
                              progress.tallies.null_runs, progress.tallies.null_interactions,
                              progress.tallies.null_run_length_log2);
        result.telemetry = collector->share();
    }
    if (observer) observer->on_stop(result, seconds_since(wall_start));
    return result;
}

}  // namespace run_loop_detail

/// Drives `stepper` under the full run policy and returns the result.
/// `entry_point` names the public API for error messages.  A run with
/// neither an observer nor a telemetry collector takes the instantiation
/// with every probe compiled out.
template <Stepper S>
RunResult run_loop(S& stepper, const TabulatedProtocol& protocol, const RunOptions& options,
                   const char* entry_point) {
    if (options.observer != nullptr || options.telemetry != nullptr)
        return run_loop_detail::drive<true>(stepper, protocol, options, entry_point);
    return run_loop_detail::drive<false>(stepper, protocol, options, entry_point);
}

}  // namespace popproto

#endif  // POPPROTO_CORE_RUN_LOOP_H
