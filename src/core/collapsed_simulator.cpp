#include "core/collapsed_simulator.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/adaptive_simulator.h"
#include "core/count_batch_stepper.h"
#include "core/effect_tables.h"
#include "core/fast_log.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/thread_pool.h"
#include "telemetry/telemetry.h"

namespace popproto {

namespace {

/// c in T = ceil(c sqrt(n)): about 2c^2 events per super-step against one
/// cascade (EXPERIMENTS.md "Multibatch super-steps").
constexpr double kSuperStepScale = 1.5;

class ParallelCollapsedStepper;

/// The super-step sampler of the collapsed, sharded and adaptive steppers:
/// the sequential pass of a super-step (fresh-fresh run lengths and the
/// events between them), the multivariate-hypergeometric cascade, and the
/// split-and-match of a pool of deferred pairs.  It keeps no configuration:
/// a super-step copies the stepper's counts into its scratch P and hands the
/// new counts back to the stepper's tracker.  The sharded stepper, a
/// friend, composes the same pieces, so it cannot drift from the serial law.
class SuperStepSampler {
public:
    /// `collector` times the super-step sub-phases (nullptr = disabled).
    /// Probes never touch the RNG stream, so results are bit-identical
    /// either way.
    SuperStepSampler(const TabulatedProtocol& protocol, std::uint64_t population,
                     telemetry::RunTelemetryCollector* collector)
        : protocol_(protocol),
          num_states_(protocol.num_states()),
          population_(population),
          length_(engine_detail::super_step_length(population)),
          survival_(population, length_),
          collector_(collector) {}

    /// T: the interactions of an unclamped super-step.
    std::uint64_t super_step_length() const { return length_; }

    /// Executes exactly `m` interactions of `state`'s configuration as one
    /// super-step: its events are resolved one by one, and its deferred
    /// pairs are realized by one pool/split/match cascade and applied as one
    /// aggregate delta.
    BatchOutcome apply(Rng& rng, std::uint64_t m, EffectivePairTracker& state) {
        BatchOutcome outcome;
        Touches at;
        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kRunLengthDraw);
            at = run_events(rng, m, state.counts(), outcome);
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kPairCascade);
            // The deferred pairs' 2D agents: one without-replacement pool
            // drawn out of P (which keeps the fresh agents), then split into
            // initiators and responders and matched.
            batch_.m = at.deferred;
            draw_without_replacement(rng, unrealized_, at.unrealized(), 2 * at.deferred,
                                     batch_.pool);
            split_and_match(rng, batch_);
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kDeltaMerge);
            merge({&batch_, 1}, outcome);
        }
        hand_back(state);
        return outcome;
    }

private:
    friend class ParallelCollapsedStepper;

    /// A batch of m deferred pairs: the pool of its 2m agents (by
    /// pre-transition state) and the split_and_match results.
    struct PairBatch {
        std::uint64_t m = 0;
        std::vector<std::uint64_t> pool;
        std::vector<std::uint64_t> initiators;
        std::vector<std::uint64_t> remainder;  // responders not yet matched
        std::vector<std::uint64_t> touched;    // the pool's post-transition states
        BatchOutcome outcome;
    };

    /// Where a super-step's agents stand: `fresh` untouched agents,
    /// `deferred` pairs of fresh agents that interacted and are not yet
    /// realized, and `realized` agents whose state is in realized_ (R).
    /// unrealized_ holds P, the states of the fresh and deferred agents, of
    /// size fresh + 2 deferred.
    struct Touches {
        std::uint64_t fresh = 0;
        std::uint64_t deferred = 0;
        std::uint64_t realized = 0;
        std::uint64_t unrealized() const { return fresh + 2 * deferred; }
    };

    /// The sequential pass of a super-step of m interactions from the
    /// configuration `counts`, copied into P: fresh-fresh runs from the
    /// birthday law at the current fresh count, deferred, and each
    /// interaction between them resolved on its own.  Returns where the
    /// agents stand after the m-th interaction; unrealized_ is then P and
    /// realized_ is R.
    Touches run_events(Rng& rng, std::uint64_t m, const std::vector<std::uint64_t>& counts,
                       BatchOutcome& outcome) {
        unrealized_.assign(counts.begin(), counts.end());
        realized_.assign(num_states_, 0);
        Touches at{population_, 0, 0};
        std::uint64_t done = 0;
        while (true) {
            const std::uint64_t run =
                survival_.invert(population_ - at.fresh, m - done, rng.uniform01());
            at.deferred += run;
            at.fresh -= 2 * run;
            done += run;
            if (done == m) return at;
            resolve_event(rng, at, outcome);
            if (++done == m) return at;
        }
    }

    /// Splits the batch's pool of 2m agents into m initiators (a uniform
    /// m-subset) and m responders, matches them uniformly (match_rows), and
    /// books the result into batch.touched / batch.outcome.  The agents of
    /// a without-replacement sample are exchangeable, so conditioned on the
    /// pool this is the law of drawing the m pairs one by one — for the
    /// serial super-step's single pool and for each shard's carved pool alike.
    void split_and_match(Rng& rng, PairBatch& batch) const {
        batch.outcome = BatchOutcome{};
        batch.touched.assign(num_states_, 0);
        batch.remainder = batch.pool;
        draw_without_replacement(rng, batch.remainder, 2 * batch.m, batch.m, batch.initiators);
        match_rows(rng, batch.initiators, batch.remainder, batch.m, batch.touched,
                   batch.outcome);
    }

    /// New counts after the bulk realization, in fixed batch order: P (the
    /// fresh agents, left in it by the pool draws) + R + each batch's
    /// post-transition states; each batch's outcome joins `outcome`.
    void merge(std::span<const PairBatch> batches, BatchOutcome& outcome) {
        for (std::size_t s = 0; s < num_states_; ++s) unrealized_[s] += realized_[s];
        for (const PairBatch& batch : batches) {
            for (std::size_t s = 0; s < num_states_; ++s) unrealized_[s] += batch.touched[s];
            outcome.effective += batch.outcome.effective;
            outcome.output_changed = outcome.output_changed || batch.outcome.output_changed;
        }
    }

    /// Hands the merged counts back to the stepper's tracker, which recounts
    /// W in O(|Q| + effective pairs), amortized over ~sqrt(n) interactions.
    void hand_back(EffectivePairTracker& state) const {
        const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kWRecompute);
        state.reset_counts(unrealized_);
    }

    /// Multivariate hypergeometric cascade: moves `draws` items, drawn
    /// without replacement, out of the multiset `from` (per-state counts
    /// summing to `total_items`) into `out`, as a cascade of exact
    /// univariate splits.
    static void draw_without_replacement(Rng& rng, std::vector<std::uint64_t>& from,
                                         std::uint64_t total_items, std::uint64_t draws,
                                         std::vector<std::uint64_t>& out) {
        out.assign(from.size(), 0);
        std::uint64_t remaining_items = total_items;
        std::uint64_t remaining_draws = draws;
        for (State s = 0; s < from.size() && remaining_draws > 0; ++s) {
            const std::uint64_t available = from[s];
            if (available == 0) continue;
            const std::uint64_t k =
                rng.hypergeometric(available, remaining_items - available, remaining_draws);
            out[s] = k;
            from[s] -= k;
            remaining_draws -= k;
            remaining_items -= available;
        }
    }

    /// Row-matching cascade: conditioned on the initiator multiset A and the
    /// responder multiset (passed as `remainder`, consumed in place), the
    /// bipartite initiator-responder matching is uniform, so row p of the
    /// pair-count matrix is a hypergeometric split of A[p] draws over the
    /// not-yet-matched responders.  Rows are applied on the fly into
    /// `touched` / `outcome`.
    void match_rows(Rng& rng, const std::vector<std::uint64_t>& initiators,
                    std::vector<std::uint64_t>& remainder, std::uint64_t m,
                    std::vector<std::uint64_t>& touched, BatchOutcome& outcome) const {
        std::uint64_t unmatched = m;
        for (State p = 0; p < num_states_; ++p) {
            std::uint64_t left = initiators[p];
            if (left == 0) continue;
            // Row cascade: `pool` counts the unmatched responders in states
            // not yet classified for this row, so each split is an exact
            // univariate hypergeometric of the row's remaining draws.
            std::uint64_t pool = unmatched;
            for (State q = 0; q < num_states_ && left > 0; ++q) {
                const std::uint64_t available = remainder[q];
                if (available == 0) continue;
                const std::uint64_t k = rng.hypergeometric(available, pool - available, left);
                pool -= available;
                if (k != 0) {
                    remainder[q] -= k;
                    unmatched -= k;
                    left -= k;
                    const StatePair next = protocol_.apply_fast(p, q);
                    touched[next.initiator] += k;
                    touched[next.responder] += k;
                    book(p, q, next, k, outcome);
                }
            }
            ensure(left == 0, "collapsed: internal matching invariant violated");
        }
    }

    /// Books `k` executed interactions (p, q) -> next into `outcome`: the
    /// effective count, read off the delta result, and the output-change flag
    /// (an identity or a swap leaves the output multiset as it was, so only
    /// effective pairs can set it).
    void book(State p, State q, StatePair next, std::uint64_t k, BatchOutcome& outcome) const {
        if (changes_multiset(p, q, next)) outcome.effective += k;
        outcome.output_changed |= changes_outputs(protocol_, p, q, next);
    }

    /// One interaction that touches an already-touched agent: a uniform
    /// ordered pair of distinct agents, conditioned on not both being fresh,
    /// resolved by exact without-replacement draws.  Its two results join R.
    /// The t touched agents are indexed deferred first, pair k as 2k
    /// (initiator) and 2k + 1 (responder), so a deferred index's parity is
    /// its role: the fair initiator/responder draw.
    void resolve_event(Rng& rng, Touches& at, BatchOutcome& outcome) {
        // Of the t(2f + t - 1) ordered pairs that touch a touched agent, 2ft
        // hold one fresh agent, first or second alike, and t(t - 1) two
        // touched ones.
        const std::uint64_t touched = population_ - at.fresh;
        const std::uint64_t r = rng.below(2 * at.fresh + touched - 1);
        State xs = 0;
        State ys = 0;
        if (r < 2 * at.fresh) {
            const State other = touched_state(rng, at, rng.below(touched), outcome);
            std::uint64_t left = at.unrealized();
            const State fresh = take(rng, unrealized_, left);
            --at.fresh;
            const bool fresh_first = (r & 1) != 0;
            xs = fresh_first ? fresh : other;
            ys = fresh_first ? other : fresh;
        } else {
            const std::uint64_t deferred_agents = 2 * at.deferred;
            const std::uint64_t xi = rng.below(touched);
            std::uint64_t yi = rng.below(touched - 1);
            yi += yi >= xi;
            if (xi < deferred_agents && (xi ^ 1) == yi) {
                // The two agents of one deferred pair meet again.
                const StatePair pair = realize_pair(rng, at, outcome);
                xs = (xi & 1) != 0 ? pair.responder : pair.initiator;
                ys = (xi & 1) != 0 ? pair.initiator : pair.responder;
            } else {
                // Realized agents are drawn from R as it stood before this
                // event, so before the partner of a realized pair joins it.
                if (xi >= deferred_agents) xs = take(rng, realized_, at.realized);
                if (yi >= deferred_agents) ys = take(rng, realized_, at.realized);
                if (xi < deferred_agents) xs = realize_one(rng, at, (xi & 1) != 0, outcome);
                if (yi < deferred_agents) ys = realize_one(rng, at, (yi & 1) != 0, outcome);
            }
        }

        const StatePair next = protocol_.apply_fast(xs, ys);
        book(xs, ys, next, 1, outcome);
        ++realized_[next.initiator];
        ++realized_[next.responder];
        at.realized += 2;
    }

    /// The state of touched agent `index`: a deferred one's pair is
    /// realized, a realized one is drawn from R.
    State touched_state(Rng& rng, Touches& at, std::uint64_t index, BatchOutcome& outcome) {
        if (index < 2 * at.deferred) return realize_one(rng, at, (index & 1) != 0, outcome);
        return take(rng, realized_, at.realized);
    }

    /// Realizes one deferred pair: its initiator's and responder's states
    /// are two draws from P, and it executes now.
    StatePair realize_pair(Rng& rng, Touches& at, BatchOutcome& outcome) {
        std::uint64_t left = at.unrealized();
        const State p = take(rng, unrealized_, left);
        const State q = take(rng, unrealized_, left);
        --at.deferred;
        const StatePair next = protocol_.apply_fast(p, q);
        book(p, q, next, 1, outcome);
        return next;
    }

    /// Realizes the pair of a deferred agent in the given role: returns that
    /// agent's state, and its partner joins R.
    State realize_one(Rng& rng, Touches& at, bool responder, BatchOutcome& outcome) {
        const StatePair next = realize_pair(rng, at, outcome);
        ++realized_[responder ? next.initiator : next.responder];
        ++at.realized;
        return responder ? next.responder : next.initiator;
    }

    /// Removes a uniform item from the multiset `items` of size `size`
    /// (decremented) and returns its state.  The scan has no data-dependent
    /// exit: a mispredicted branch per draw would cost more than the O(|Q|)
    /// adds at the sizes where super-steps pay.
    static State take(Rng& rng, std::vector<std::uint64_t>& items, std::uint64_t& size) {
        const std::uint64_t index = rng.below(size);
        State s = 0;
        std::uint64_t below_next = 0;
        for (std::size_t k = 0; k + 1 < items.size(); ++k) {
            below_next += items[k];
            s += index >= below_next ? 1 : 0;
        }
        --items[s];
        --size;
        return s;
    }

    const TabulatedProtocol& protocol_;
    std::size_t num_states_;
    std::uint64_t population_;
    std::uint64_t length_;
    engine_detail::SurvivalTable survival_;
    telemetry::RunTelemetryCollector* collector_;
    std::vector<std::uint64_t> unrealized_;  // P, per super-step (members: no reallocation)
    std::vector<std::uint64_t> realized_;    // R
    PairBatch batch_;                        // the serial super-step's one pool
};

/// The serial collapsed stepper (collapsed_simulator.h): the shared count
/// state, stepped by super-steps only.
class CollapsedStepper : public engine_detail::CountStepperBase {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kCollapsed;
    static constexpr bool kGeometricSkips = false;
    static constexpr bool kSuperSteps = true;

    CollapsedStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                     telemetry::RunTelemetryCollector* collector)
        : CountStepperBase(protocol, initial), sampler_(protocol, population_, collector) {}

    std::uint64_t super_step_length() const { return sampler_.super_step_length(); }

    /// Executes exactly `m` interactions as one super-step.
    BatchOutcome apply_super_step(Rng& rng, std::uint64_t m) {
        return sampler_.apply(rng, m, tracker_);
    }

private:
    SuperStepSampler sampler_;
};

/// The sharded collapsed stepper (RunOptions::threads = K >= 2): each
/// super-step's events run on the parent stream as in the serial stepper,
/// and its D deferred pairs are split across K shards and realized
/// concurrently.
///
/// Exchangeability argument: the deferred pairs are a uniform ordered
/// sample of 2D of the unrealized agents — D initiators, D responders,
/// uniformly matched.  Partitioning the D pair slots into K contiguous
/// blocks of sizes D_k and drawing, on the *parent* stream, the pooled 2D_k
/// agents of each block as a sequential multivariate-hypergeometric cascade
/// over P yields the exact joint law of the per-shard pools (agents of a
/// without-replacement sample are exchangeable).  Conditioned on its pool,
/// shard k's initiator multiset is a uniform 2D_k-choose-D_k split and its
/// matching is uniform — both sampled on shard k's private *child* stream
/// with the same cascades the serial stepper uses.  The union of the
/// shards' pair-type counts therefore has the serial distribution for
/// every K.
///
/// Determinism contract: shard k always consumes shard stream k and writes
/// shard scratch k, and the merge is a fixed-order reduction, so the result
/// is bit-identical for a fixed (seed, K) across machines, pool schedules,
/// and the inline small-batch path.  Different K consume different
/// streams: agreement across thread counts is distributional.
class ParallelCollapsedStepper : public engine_detail::CountStepperBase {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kParallelCollapsed;
    static constexpr bool kGeometricSkips = false;
    static constexpr bool kSuperSteps = true;
    static constexpr bool kParallel = true;

    ParallelCollapsedStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                             unsigned threads, telemetry::RunTelemetryCollector* collector)
        : CountStepperBase(protocol, initial),
          sampler_(protocol, population_, collector),
          collector_(collector),
          shard_rngs_(threads),
          shard_batches_(threads),
          pool_(threads) {
        require(threads >= 2, "collapsed: parallel stepper needs threads >= 2");
    }

    /// Resolved shard count, reported into RunTelemetry::threads.
    unsigned threads() const { return static_cast<unsigned>(shard_rngs_.size()); }

    std::uint64_t super_step_length() const { return sampler_.super_step_length(); }

    /// Executes exactly `m` interactions as one super-step.  The first call
    /// also carves the K shard streams off the parent stream (K splits = K
    /// disjoint 2^128-draw blocks; see Rng::split).  Splitting at a fixed
    /// point of the parent stream keeps the whole run deterministic in
    /// (seed, K).
    BatchOutcome apply_super_step(Rng& rng, std::uint64_t m) {
        const std::size_t num_shards = shard_rngs_.size();
        if (!shard_streams_ready_) {
            for (Rng& shard_rng : shard_rngs_) shard_rng = rng.split();
            shard_streams_ready_ = true;
        }

        // Deferred until the first super-step: the collector's epoch is set
        // by begin_run, which runs after the stepper is built.
        if (collector_ != nullptr && !pool_telemetry_ready_) {
            collector_->pool().configure(num_shards, collector_->epoch(),
                                         collector_->max_spans());
            pool_.set_telemetry(&collector_->pool());
            pool_telemetry_ready_ = true;
        }

        BatchOutcome outcome;
        SuperStepSampler::Touches at;
        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kRunLengthDraw);
            at = sampler_.run_events(rng, m, tracker_.counts(), outcome);
        }
        const std::uint64_t deferred = at.deferred;

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kShardCarve);
            // Phase 1, parent stream: carve the 2D deferred agents into
            // per-shard pools by a sequential multivariate-hypergeometric
            // cascade out of P, which keeps the fresh agents.  Shard sizes
            // D_k = D/K rounded, sum D; shards with D_k = 0 draw nothing.
            std::uint64_t remaining_items = at.unrealized();
            for (std::size_t k = 0; k < num_shards; ++k) {
                SuperStepSampler::PairBatch& batch = shard_batches_[k];
                batch.m = deferred / num_shards + (k < deferred % num_shards ? 1 : 0);
                SuperStepSampler::draw_without_replacement(rng, sampler_.unrealized_,
                                                           remaining_items, 2 * batch.m,
                                                           batch.pool);
                remaining_items -= 2 * batch.m;
            }
        }

        // Phase 2, child streams, in parallel: each shard splits its pool
        // into initiators and responders and runs the matching cascade on
        // its own scratch.  Small batches skip the pool's wakeup round-trip
        // and run inline — bit-identical, since the pool never influences
        // what a shard computes, only where it runs.
        const auto run_shard = [this](std::size_t k) {
            sampler_.split_and_match(shard_rngs_[k], shard_batches_[k]);
        };
        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kShardTasks);
            if (deferred >= kMinPairsPerWorker * num_shards) {
                pool_.run(num_shards, run_shard);
            } else {
                for (std::size_t k = 0; k < num_shards; ++k) run_shard(k);
                if (collector_ != nullptr) collector_->record_inline_round();
            }
        }

        {
            // Phase 3: the shards merge in fixed order.
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kDeltaMerge);
            sampler_.merge(shard_batches_, outcome);
        }
        sampler_.hand_back(tracker_);
        return outcome;
    }

    /// A checkpoint taken before the first super-step (a stop flag raised
    /// at the first loop top) carries no shard streams: none are carved yet.
    void save(RunCheckpoint& checkpoint) const {
        CountStepperBase::save(checkpoint);
        if (!shard_streams_ready_) return;
        checkpoint.shard_rngs.reserve(shard_rngs_.size());
        for (const Rng& shard_rng : shard_rngs_)
            checkpoint.shard_rngs.push_back(shard_rng.save_state());
    }

    /// A checkpoint without shard streams leaves them to the first
    /// super-step, which carves them at the parent-stream position where the
    /// interrupted run would have.
    void restore(const RunCheckpoint& checkpoint) {
        CountStepperBase::restore(checkpoint);
        if (checkpoint.shard_rngs.empty()) return;
        require(checkpoint.shard_rngs.size() == shard_rngs_.size(),
                "collapsed: checkpoint was taken with " +
                    std::to_string(checkpoint.shard_rngs.size()) +
                    " shard streams; resume with RunOptions::threads equal to that count");
        for (std::size_t k = 0; k < shard_rngs_.size(); ++k)
            shard_rngs_[k].restore_state(checkpoint.shard_rngs[k]);
        shard_streams_ready_ = true;
    }

private:
    /// Below this many deferred pairs per worker the fork-merge wakeup costs
    /// more than the shard work; the inline path keeps tiny populations
    /// fast.
    static constexpr std::uint64_t kMinPairsPerWorker = 64;

    SuperStepSampler sampler_;
    telemetry::RunTelemetryCollector* collector_;
    std::vector<Rng> shard_rngs_;  // split off the parent stream before use
    std::vector<SuperStepSampler::PairBatch> shard_batches_;
    ThreadPool pool_;
    bool shard_streams_ready_ = false;
    bool pool_telemetry_ready_ = false;
};

/// The phase-adaptive stepper (adaptive_simulator.h): the count-batch
/// stepper plus the super-step sampler.  Count-batch steps while the density
/// signal is below the crossover, collapsed super-steps at or above it; both
/// kinds step the one count state, so a change of kind hands nothing over.
/// The sampler, with its survival table, is built on the first super-step,
/// so a run that never turns dense never pays for it.
class AdaptiveStepper : public engine_detail::CountBatchStepper {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kAdaptive;
    static constexpr ObservedEngine kSingleStepEngine = ObservedEngine::kCountBatch;
    static constexpr ObservedEngine kSuperStepEngine = ObservedEngine::kCollapsed;
    static constexpr bool kSuperSteps = true;

    AdaptiveStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                    double crossover, telemetry::RunTelemetryCollector* collector)
        : CountBatchStepper(protocol, initial),
          crossover_(crossover),
          crossover_pairs_(engine_detail::crossover_pairs(population_, crossover)),
          collector_(collector) {}

    bool super_step_due() const { return effective_pairs() >= crossover_pairs_; }

    double signal() const {
        return engine_detail::crossover_signal(population_, effective_pairs());
    }

    double crossover() const { return crossover_; }

    void set_step_kind(bool super) {
        if (super && !sampler_) sampler_.emplace(protocol_, population_, collector_);
    }

    std::uint64_t super_step_length() const { return sampler_->super_step_length(); }
    BatchOutcome apply_super_step(Rng& rng, std::uint64_t m) {
        return sampler_->apply(rng, m, tracker_);
    }

private:
    std::optional<SuperStepSampler> sampler_;
    double crossover_;
    std::uint64_t crossover_pairs_;
    telemetry::RunTelemetryCollector* collector_;
};

/// RunOptions::threads with 0 resolved to the hardware concurrency.
unsigned resolved_threads(const RunOptions& options) {
    if (options.threads != 0) return options.threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

}  // namespace

namespace engine_detail {

std::uint64_t super_step_length(std::uint64_t population) {
    const double length = std::ceil(kSuperStepScale * std::sqrt(static_cast<double>(population)));
    return length >= 1.0 ? static_cast<std::uint64_t>(length) : 1;
}

SurvivalTable::SurvivalTable(std::uint64_t population, std::uint64_t length)
    : entries_(2 * length + 1, 1.0), population_(static_cast<double>(population)) {
    const double n = population_;
    const double total_pairs = n * (n - 1.0);
    for (std::size_t a = 2; a < entries_.size(); ++a) {
        // Entry a extends entry a - 2 by the run's pair at f = n - a + 2.
        const double fresh = n - static_cast<double>(a - 2);
        entries_[a] = fresh >= 2.0 ? entries_[a - 2] * (fresh * (fresh - 1.0) / total_pairs) : 0.0;
    }
}

std::uint64_t SurvivalTable::invert(std::uint64_t touched, std::uint64_t limit, double u) const {
    const double* chain = entries_.data() + touched;  // chain[2l] / chain[0] = P(run >= l)
    const double threshold = u * chain[0];
    if (chain[2 * limit] > threshold) return limit;
    // The first l with chain[2l] <= threshold lies in [1, limit].  It sits
    // within a step or two of the root l* of 2l^2 + 2al + n ln u = 0 (u = 0
    // gives l* = +inf, which clamps to the cap); the two walks then land on
    // the exact partition point of the non-increasing chain, so the error of
    // the estimated -ln u costs walk steps, never exactness (the full
    // negative_log made a dense super-step a few percent slower).
    const double a = static_cast<double>(touched);
    const double minus_log_u = u > 0.0 ? rng_detail::negative_log_estimate(u)
                                       : std::numeric_limits<double>::infinity();
    const double root = 0.5 * (std::sqrt(a * a + 2.0 * population_ * minus_log_u) - a);
    std::uint64_t l = root < static_cast<double>(limit) ? static_cast<std::uint64_t>(root) + 1 : limit;
    while (l > 1 && chain[2 * (l - 1)] <= threshold) --l;
    while (chain[2 * l] > threshold) ++l;
    return l - 1;
}

void require_count_engine_input(const TabulatedProtocol& protocol,
                                const CountConfiguration& initial) {
    require(initial.num_states() == protocol.num_states(),
            "run_simulation: configuration does not match protocol");
    const std::uint64_t n = initial.population_size();
    require(n >= 2, "run_simulation: need at least two agents");
    require(n < (std::uint64_t{1} << 32), "run_simulation: population must fit 32 bits");
}

RunResult run_collapsed(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                        const RunOptions& options) {
    require_count_engine_input(protocol, initial);
    const unsigned threads = resolved_threads(options);
    require(threads <= 4096, "run_simulation: threads must be at most 4096");
    if (threads <= 1) {
        CollapsedStepper stepper(protocol, initial, options.telemetry);
        return run_loop(stepper, protocol, options, "run_simulation");
    }
    ParallelCollapsedStepper stepper(protocol, initial, threads, options.telemetry);
    return run_loop(stepper, protocol, options, "run_simulation");
}

double crossover_signal(std::uint64_t population, std::uint64_t effective_pairs) {
    const double n = static_cast<double>(population);
    return (static_cast<double>(effective_pairs) / (n * (n - 1.0))) *
           static_cast<double>(super_step_length(population));
}

std::uint64_t crossover_pairs(std::uint64_t population, double crossover) {
    // Nudge the float inverse of crossover_signal until the exact compare
    // flips.
    const std::uint64_t max_pairs = population * (population - 1);  // n < 2^32
    const double n = static_cast<double>(population);
    const double inverse =
        crossover * (n * (n - 1.0)) / static_cast<double>(super_step_length(population));
    std::uint64_t w = max_pairs;
    if (inverse <= 0.0) {
        w = 0;
    } else if (inverse < static_cast<double>(max_pairs)) {
        w = static_cast<std::uint64_t>(inverse);
    }
    while (w != 0 && crossover_signal(population, w - 1) >= crossover) --w;
    while (w <= max_pairs && crossover_signal(population, w) < crossover) ++w;
    return w > max_pairs ? ~std::uint64_t{0} : w;
}

RunResult run_adaptive(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const RunOptions& options) {
    require_count_engine_input(protocol, initial);
    require(options.adaptive.crossover >= 0.0,
            "run_simulation: the adaptive crossover must be at least 0");
    AdaptiveStepper stepper(protocol, initial, options.adaptive.crossover, options.telemetry);
    return run_loop(stepper, protocol, options, "run_simulation");
}

}  // namespace engine_detail

}  // namespace popproto
