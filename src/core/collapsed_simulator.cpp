#include "core/collapsed_simulator.h"

#include <cmath>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/adaptive_simulator.h"
#include "core/count_batch_stepper.h"
#include "core/effect_tables.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/thread_pool.h"
#include "telemetry/telemetry.h"

namespace popproto {

namespace {

/// Machinery shared by the serial and the sharded collapsed steppers: the
/// birthday-law survival table, the multivariate-hypergeometric cascade,
/// the split-and-match of a pool of touched agents, the colliding-
/// interaction fixup, and the W recompute.  Both steppers compose exactly
/// these pieces, so the sharded engine cannot drift from the serial law by
/// re-implementing a sampler.
class CollapsedEngineBase {
public:
    std::uint64_t population() const { return population_; }

    bool is_silent() const { return effective_pairs_ == 0; }

    /// Exact W, maintained by the per-super-step recompute.
    std::uint64_t effective_pairs() const { return effective_pairs_; }

    const std::vector<std::uint64_t>& count_vector() const { return counts_; }

    /// Takes over a valid count vector of this population and its exact W
    /// (the adaptive stepper's change of step kind; O(|Q|)).
    void adopt(const std::vector<std::uint64_t>& counts, std::uint64_t effective_pairs) {
        counts_.assign(counts.begin(), counts.end());
        effective_pairs_ = effective_pairs;
    }

    /// Attaches the run's telemetry collector (nullptr = disabled); the
    /// steppers time the super-step sub-phases against it.  Probes never
    /// touch the RNG stream, so results are bit-identical either way.
    void set_telemetry(telemetry::RunTelemetryCollector* collector) { collector_ = collector; }

    /// Draws the length L >= 1 of the maximal collision-free run: one
    /// uniform01 inverted through the precomputed survival table.
    std::uint64_t propose_super_step(Rng& rng) {
        // L = max{t : P(L >= t) > u}, the index of the first entry <= u; a u
        // below the truncated table's last entry clamps to the end.
        const std::uint64_t t = survival_.invert(rng.uniform01());
        return t > 0 ? t : std::uint64_t{1};  // entries[0] = 1 > u always
    }

    CountConfiguration counts() const { return CountConfiguration::from_state_counts(counts_); }

protected:
    CollapsedEngineBase(const TabulatedProtocol& protocol, const CountConfiguration& initial)
        : protocol_(protocol),
          eff_(protocol),
          counts_(initial.counts()),
          population_(initial.population_size()),
          survival_(population_) {
        recompute_effective_pairs();
    }

    /// One collision-free batch of m pairs: the pool of its 2m touched
    /// agents (by pre-transition state) and the split_and_match results.
    struct PairBatch {
        std::uint64_t m = 0;
        std::vector<std::uint64_t> pool;
        std::vector<std::uint64_t> initiators;
        std::vector<std::uint64_t> remainder;  // responders not yet matched
        std::vector<std::uint64_t> touched;    // the pool's post-transition states
        BatchOutcome outcome;
    };

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

    /// Splits the batch's pool of 2m agents into m initiators (a uniform
    /// m-subset) and m responders, matches them uniformly (match_rows), and
    /// books the result into batch.touched / batch.outcome.  The agents of
    /// a without-replacement sample are exchangeable, so conditioned on the
    /// pool this is the law of drawing the m pairs one by one — for the
    /// serial stepper's single pool and for each shard's carved pool alike.
    void split_and_match(Rng& rng, PairBatch& batch) const {
        batch.outcome = BatchOutcome{};
        batch.touched.assign(eff_.num_states, 0);
        batch.remainder = batch.pool;
        draw_without_replacement(rng, batch.remainder, 2 * batch.m, batch.m, batch.initiators);
        match_rows(rng, batch.initiators, batch.remainder, batch.m, batch.touched,
                   batch.outcome);
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
        const std::size_t num_states = eff_.num_states;
        std::uint64_t unmatched = m;
        for (State p = 0; p < num_states; ++p) {
            std::uint64_t left = initiators[p];
            if (left == 0) continue;
            // Row cascade: `pool` counts the unmatched responders in states
            // not yet classified for this row, so each split is an exact
            // univariate hypergeometric of the row's remaining draws.
            std::uint64_t pool = unmatched;
            for (State q = 0; q < num_states && left > 0; ++q) {
                const std::uint64_t available = remainder[q];
                if (available == 0) continue;
                const std::uint64_t k = rng.hypergeometric(available, pool - available, left);
                pool -= available;
                if (k != 0) {
                    remainder[q] -= k;
                    unmatched -= k;
                    left -= k;
                    apply_pair_type(p, q, k, touched, outcome);
                }
            }
            ensure(left == 0, "collapsed: internal matching invariant violated");
        }
    }

    /// Books `k` executed interactions of ordered pair type (p, q):
    /// accumulates the post-transition states into `touched` and the
    /// effective / output-change aggregates into `outcome`.
    void apply_pair_type(State p, State q, std::uint64_t k, std::vector<std::uint64_t>& touched,
                         BatchOutcome& outcome) const {
        const StatePair next = protocol_.apply_fast(p, q);
        touched[next.initiator] += k;
        touched[next.responder] += k;
        if (!eff_.effective(p, q)) return;
        outcome.effective += k;
        const Symbol out_p = protocol_.output_fast(p);
        const Symbol out_q = protocol_.output_fast(q);
        const Symbol out_pn = protocol_.output_fast(next.initiator);
        const Symbol out_qn = protocol_.output_fast(next.responder);
        if (!((out_pn == out_p && out_qn == out_q) || (out_pn == out_q && out_qn == out_p)))
            outcome.output_changed = true;
    }

    /// The ordered pair that terminated the collision-free run: uniform over
    /// the n(n-1) - (n-2m)(n-2m-1) ordered pairs touching at least one of
    /// the 2m used agents, whose post-batch states are the `touched`
    /// multiset; the untouched remainder is counts_ - touched.  Requires
    /// counts_ already updated for the batch and `touched` holding the full
    /// (merged) post-transition multiset of the 2m touched agents.
    void resolve_collision(Rng& rng, std::uint64_t m, std::vector<std::uint64_t>& touched,
                           BatchOutcome& outcome) {
        const std::size_t num_states = eff_.num_states;
        untouched_.resize(num_states);
        for (State s = 0; s < num_states; ++s) untouched_[s] = counts_[s] - touched[s];

        const std::uint64_t touched_total = 2 * m;
        const std::uint64_t untouched_total = population_ - touched_total;
        const std::uint64_t w_tt = touched_total * (touched_total - 1);
        const std::uint64_t w_tu = touched_total * untouched_total;  // == w_ut
        const std::uint64_t which = rng.below(w_tt + 2 * w_tu);

        State p = 0;
        State q = 0;
        if (which < w_tt) {
            p = pick(touched, rng.below(touched_total));
            --touched[p];
            q = pick(touched, rng.below(touched_total - 1));
            ++touched[p];
        } else if (which < w_tt + w_tu) {
            p = pick(touched, rng.below(touched_total));
            q = pick(untouched_, rng.below(untouched_total));
        } else {
            p = pick(untouched_, rng.below(untouched_total));
            q = pick(touched, rng.below(touched_total));
        }

        const StatePair next = protocol_.apply_fast(p, q);
        --counts_[p];
        --counts_[q];
        ++counts_[next.initiator];
        ++counts_[next.responder];
        if (eff_.effective(p, q)) {
            ++outcome.effective;
            const Symbol out_p = protocol_.output_fast(p);
            const Symbol out_q = protocol_.output_fast(q);
            const Symbol out_pn = protocol_.output_fast(next.initiator);
            const Symbol out_qn = protocol_.output_fast(next.responder);
            if (!((out_pn == out_p && out_qn == out_q) ||
                  (out_pn == out_q && out_qn == out_p)))
                outcome.output_changed = true;
        }
    }

    /// The state of the `index`-th item (0-based) of the multiset `counts`.
    static State pick(const std::vector<std::uint64_t>& counts, std::uint64_t index) {
        for (State s = 0; s < counts.size(); ++s) {
            if (index < counts[s]) return s;
            index -= counts[s];
        }
        ensure(false, "collapsed: internal multiset-pick invariant violated");
        return 0;
    }

    // W = number of effective ordered agent pairs; W == 0 iff silent.
    // Recomputed O(|Q|^2) once per super-step (amortized over ~sqrt(n)
    // interactions, unlike the count-batch engine's per-step bookkeeping).
    void recompute_effective_pairs() {
        const std::size_t num_states = eff_.num_states;
        std::uint64_t w = 0;
        for (State p = 0; p < num_states; ++p) {
            if (counts_[p] == 0) continue;
            const std::uint8_t* row =
                eff_.eff_row.data() + static_cast<std::size_t>(p) * num_states;
            std::uint64_t row_sum = 0;
            for (State q = 0; q < num_states; ++q)
                if (row[q]) row_sum += counts_[q];
            w += counts_[p] * (row_sum - (row[p] ? 1 : 0));
        }
        effective_pairs_ = w;
    }

    /// Checkpoint payload shared by both steppers: the count vector (the
    /// sharded stepper additionally carries its shard streams).
    void save_counts(RunCheckpoint& checkpoint) const { checkpoint.counts = counts_; }

    void restore_counts(const RunCheckpoint& checkpoint) {
        require_checkpoint_counts(checkpoint.counts, counts_.size(), population_, "collapsed");
        counts_ = checkpoint.counts;
        recompute_effective_pairs();
    }

    const TabulatedProtocol& protocol_;
    EffectTables eff_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t population_;
    std::uint64_t effective_pairs_ = 0;
    telemetry::RunTelemetryCollector* collector_ = nullptr;

    // Per-super-step scratch (a member to avoid reallocation).
    std::vector<std::uint64_t> untouched_;

private:
    engine_detail::SurvivalTable survival_;
};

/// The serial collapsed super-step sampler (collapsed_simulator.h):
/// collision-free runs of ~sqrt(n) ordered pairs are assigned to state
/// pairs by exact hypergeometric count splits and applied as one aggregate
/// delta; the single colliding interaction terminating each run is resolved
/// individually.
class CollapsedStepper : public CollapsedEngineBase {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kCollapsed;
    static constexpr bool kGeometricSkips = false;
    static constexpr bool kSuperSteps = true;

    CollapsedStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial)
        : CollapsedEngineBase(protocol, initial) {}

    /// Executes `m` collision-free pairs (2m distinct agents) as one
    /// aggregate count update, then the single colliding interaction when
    /// `with_collision` (the kernel clamps boundary-crossing runs instead).
    BatchOutcome apply_super_step(Rng& rng, std::uint64_t m, bool with_collision) {
        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kPairCascade);
            // The 2m touched agents: one without-replacement pool drawn out
            // of the count vector (which keeps the untouched agents), then
            // split into initiators and responders and matched.
            batch_.m = m;
            draw_without_replacement(rng, counts_, population_, 2 * m, batch_.pool);
            split_and_match(rng, batch_);
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kDeltaMerge);
            // The touched agents land on their post-transition states.
            for (std::size_t s = 0; s < eff_.num_states; ++s) counts_[s] += batch_.touched[s];
        }

        BatchOutcome outcome = batch_.outcome;
        if (with_collision) {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kCollisionFixup);
            resolve_collision(rng, m, batch_.touched, outcome);
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kWRecompute);
            recompute_effective_pairs();
        }
        return outcome;
    }

    void save(RunCheckpoint& checkpoint) const { save_counts(checkpoint); }

    void restore(const RunCheckpoint& checkpoint) { restore_counts(checkpoint); }

private:
    PairBatch batch_;
};

/// The sharded collapsed stepper (RunOptions::threads = K >= 2): each
/// super-step's m pairs are split across K shards and sampled concurrently.
///
/// Exchangeability argument: the serial batch is a uniform ordered sample
/// of 2m distinct agents — m initiators, m responders, uniformly matched.
/// Partitioning the m pair slots into K contiguous blocks of sizes m_k and
/// drawing, on the *parent* stream, the pooled 2m_k agents of each block as
/// a sequential multivariate-hypergeometric cascade over the residual
/// counts yields the exact joint law of the per-shard pools (agents of a
/// without-replacement sample are exchangeable).  Conditioned on its pool,
/// shard k's initiator multiset is a uniform 2m_k-choose-m_k split and its
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
class ParallelCollapsedStepper : public CollapsedEngineBase {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kParallelCollapsed;
    static constexpr bool kGeometricSkips = false;
    static constexpr bool kSuperSteps = true;
    static constexpr bool kParallel = true;

    ParallelCollapsedStepper(const TabulatedProtocol& protocol,
                             const CountConfiguration& initial, unsigned threads)
        : CollapsedEngineBase(protocol, initial), shards_(threads), pool_(threads) {
        require(threads >= 2, "collapsed: parallel stepper needs threads >= 2");
    }

    /// Same birthday-law proposal as the serial stepper, but the first call
    /// also carves the K shard streams off the parent stream (K splits =
    /// K disjoint 2^128-draw blocks; see Rng::split).  Splitting at a fixed
    /// point of the parent stream keeps the whole run deterministic in
    /// (seed, K), and doing it before any super-step work means every
    /// checkpoint the kernel can take carries live shard streams.
    std::uint64_t propose_super_step(Rng& rng) {
        if (!shard_streams_ready_) {
            for (Shard& shard : shards_) shard.rng = rng.split();
            shard_streams_ready_ = true;
        }
        return CollapsedEngineBase::propose_super_step(rng);
    }

    /// Resolved shard count, reported into RunTelemetry::threads.
    unsigned threads() const { return static_cast<unsigned>(shards_.size()); }

    BatchOutcome apply_super_step(Rng& rng, std::uint64_t m, bool with_collision) {
        const std::size_t num_states = eff_.num_states;
        const std::size_t num_shards = shards_.size();
        BatchOutcome outcome;

        // Deferred until the first super-step: the collector's epoch is set
        // by begin_run, which runs after set_telemetry.
        if (collector_ != nullptr && !pool_telemetry_ready_) {
            collector_->pool().configure(num_shards, collector_->epoch(),
                                         collector_->max_spans());
            pool_.set_telemetry(&collector_->pool());
            pool_telemetry_ready_ = true;
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kShardCarve);
            // Phase 1, parent stream: carve the 2m touched agents into
            // per-shard pools by a sequential multivariate-hypergeometric
            // cascade out of the count vector, which keeps the agents no
            // shard drew.  Shard sizes m_k = m/K rounded, sum m; shards
            // with m_k = 0 draw nothing.
            std::uint64_t remaining_items = population_;
            for (std::size_t k = 0; k < num_shards; ++k) {
                PairBatch& batch = shards_[k].batch;
                batch.m = m / num_shards + (k < m % num_shards ? 1 : 0);
                draw_without_replacement(rng, counts_, remaining_items, 2 * batch.m, batch.pool);
                remaining_items -= 2 * batch.m;
            }
        }

        // Phase 2, child streams, in parallel: each shard splits its pool
        // into initiators and responders and runs the matching cascade on
        // its own scratch.  Small batches skip the pool's wakeup round-trip
        // and run inline — bit-identical, since the pool never influences
        // what a shard computes, only where it runs.
        const auto run_shard = [this](std::size_t k) {
            split_and_match(shards_[k].rng, shards_[k].batch);
        };
        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kShardTasks);
            if (m >= kMinPairsPerWorker * num_shards) {
                pool_.run(num_shards, run_shard);
            } else {
                for (std::size_t k = 0; k < num_shards; ++k) run_shard(k);
                if (collector_ != nullptr) collector_->record_inline_round();
            }
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kDeltaMerge);
            // Phase 3, fixed-order merge: touched multiset, effective count,
            // output flag.  New counts = the agents no shard drew plus the
            // merged post-transition multiset.
            touched_.assign(num_states, 0);
            for (const Shard& shard : shards_) {
                for (std::size_t s = 0; s < num_states; ++s) touched_[s] += shard.batch.touched[s];
                outcome.effective += shard.batch.outcome.effective;
                outcome.output_changed =
                    outcome.output_changed || shard.batch.outcome.output_changed;
            }
            for (std::size_t s = 0; s < num_states; ++s) counts_[s] += touched_[s];
        }

        // Phase 4, parent stream: the colliding interaction sees only the
        // merged touched multiset, exactly as in the serial stepper.
        if (with_collision) {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kCollisionFixup);
            resolve_collision(rng, m, touched_, outcome);
        }

        {
            const telemetry::ScopedTimer timer(collector_, telemetry::Phase::kWRecompute);
            recompute_effective_pairs();
        }
        return outcome;
    }

    void save(RunCheckpoint& checkpoint) const {
        save_counts(checkpoint);
        ensure(shard_streams_ready_,
               "collapsed: checkpoint requested before the first super-step");
        checkpoint.shard_rngs.reserve(shards_.size());
        for (const Shard& shard : shards_) checkpoint.shard_rngs.push_back(shard.rng.save_state());
    }

    void restore(const RunCheckpoint& checkpoint) {
        restore_counts(checkpoint);
        require(checkpoint.shard_rngs.size() == shards_.size(),
                "collapsed: checkpoint was taken with " +
                    std::to_string(checkpoint.shard_rngs.size()) +
                    " shard streams; resume with RunOptions::threads equal to that count");
        for (std::size_t k = 0; k < shards_.size(); ++k)
            shards_[k].rng.restore_state(checkpoint.shard_rngs[k]);
        shard_streams_ready_ = true;
    }

private:
    /// Below this many pairs per worker the fork-merge wakeup costs more
    /// than the shard work; the inline path keeps tiny populations fast.
    static constexpr std::uint64_t kMinPairsPerWorker = 64;

    struct Shard {
        Rng rng{0};  // replaced by a split of the parent stream before use
        PairBatch batch;
    };

    std::vector<Shard> shards_;
    ThreadPool pool_;
    bool shard_streams_ready_ = false;
    bool pool_telemetry_ready_ = false;
    std::vector<std::uint64_t> touched_;  // merged post-transition multiset
};

/// The phase-adaptive stepper (adaptive_simulator.h): count-batch steps
/// while the density signal is below the crossover, collapsed super-steps
/// at or above it, over one count configuration whose exact W both kinds
/// keep.  The live configuration sits in the part of the current kind; a
/// change of kind hands it over (set_step_kind).  The collapsed part, with
/// its survival table, is built on the first super-step, so a run that never
/// turns dense never pays for it.
class AdaptiveStepper {
public:
    static constexpr ObservedEngine kEngine = ObservedEngine::kAdaptive;
    static constexpr ObservedEngine kSingleStepEngine = ObservedEngine::kCountBatch;
    static constexpr ObservedEngine kSuperStepEngine = ObservedEngine::kCollapsed;
    static constexpr bool kGeometricSkips = true;
    static constexpr bool kSuperSteps = true;

    AdaptiveStepper(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                    double crossover, telemetry::RunTelemetryCollector* collector)
        : protocol_(protocol),
          batch_(protocol, initial),
          crossover_(crossover),
          crossover_pairs_(engine_detail::crossover_pairs(initial.population_size(), crossover)),
          collector_(collector) {}

    std::uint64_t population() const { return batch_.population(); }

    std::uint64_t effective_pairs() const {
        return super_ ? collapsed_->effective_pairs() : batch_.effective_pairs();
    }

    bool is_silent() const { return effective_pairs() == 0; }

    bool super_step_due() const { return effective_pairs() >= crossover_pairs_; }

    double signal() const {
        return engine_detail::crossover_signal(population(), effective_pairs());
    }

    double crossover() const { return crossover_; }

    void set_step_kind(bool super) {
        if (super == super_) return;
        if (!super) {
            batch_.adopt(collapsed_->count_vector());
        } else if (collapsed_) {
            collapsed_->adopt(batch_.count_vector(), batch_.effective_pairs());
        } else {
            collapsed_.emplace(protocol_, batch_.counts());
            collapsed_->set_telemetry(collector_);
        }
        super_ = super;
    }

    std::uint64_t propose_skip(Rng& rng) { return batch_.propose_skip(rng); }
    StepOutcome step(Rng& rng) { return batch_.step(rng); }

    std::uint64_t propose_super_step(Rng& rng) { return collapsed_->propose_super_step(rng); }
    BatchOutcome apply_super_step(Rng& rng, std::uint64_t m, bool with_collision) {
        return collapsed_->apply_super_step(rng, m, with_collision);
    }

    CountConfiguration counts() const { return super_ ? collapsed_->counts() : batch_.counts(); }

    void save(RunCheckpoint& checkpoint) const {
        if (super_) {
            collapsed_->save(checkpoint);
        } else {
            batch_.save(checkpoint);
        }
    }

    /// The kernel restores before the first loop top, which picks the step
    /// kind, so the checkpoint lands in the count-batch part.
    void restore(const RunCheckpoint& checkpoint) {
        require_checkpoint_counts(checkpoint.counts, protocol_.num_states(), population(),
                                  observed_engine_name(checkpoint.engine));
        batch_.adopt(checkpoint.counts);
        super_ = false;
    }

private:
    const TabulatedProtocol& protocol_;
    engine_detail::CountBatchStepper batch_;
    std::optional<CollapsedStepper> collapsed_;
    bool super_ = false;
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

SurvivalTable::SurvivalTable(std::uint64_t population)
    : half_population_(0.5 * static_cast<double>(population)) {
    const double n = static_cast<double>(population);
    const double total_pairs = n * (n - 1.0);
    double survival = 1.0;
    entries_.push_back(1.0);
    for (std::uint64_t t = 1; population >= 2 * t + 2; ++t) {
        const double free_agents = n - 2.0 * static_cast<double>(t);
        survival *= free_agents * (free_agents - 1.0) / total_pairs;
        if (survival < 1e-25) break;
        entries_.push_back(survival);
    }
}

std::size_t SurvivalTable::invert(double u) const {
    // ln P(L >= t) ~= -2t^2 / n, so the answer sits within a step or two of
    // sqrt(-(n/2) ln u) away from the far tail; u = 0 gives +inf, which
    // clamps to the end.  The two walks then land on the exact partition
    // point of the strictly decreasing table.
    const std::size_t size = entries_.size();
    const double estimate = std::sqrt(-half_population_ * std::log(u));
    std::size_t i =
        estimate < static_cast<double>(size) ? static_cast<std::size_t>(estimate) : size;
    while (i > 0 && entries_[i - 1] <= u) --i;
    while (i < size && entries_[i] > u) ++i;
    return i;
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
        CollapsedStepper stepper(protocol, initial);
        stepper.set_telemetry(options.telemetry);
        return run_loop(stepper, protocol, options, "run_simulation");
    }
    ParallelCollapsedStepper stepper(protocol, initial, threads);
    stepper.set_telemetry(options.telemetry);
    return run_loop(stepper, protocol, options, "run_simulation");
}

double crossover_signal(std::uint64_t population, std::uint64_t effective_pairs) {
    const double n = static_cast<double>(population);
    // sqrt(pi / 8) sqrt(n), the mean of the survival law.
    return (static_cast<double>(effective_pairs) / (n * (n - 1.0))) *
           (0.6266570686577502 * std::sqrt(n));
}

std::uint64_t crossover_pairs(std::uint64_t population, double crossover) {
    // Nudge the float inverse of crossover_signal until the exact compare
    // flips.
    const std::uint64_t max_pairs = population * (population - 1);  // n < 2^32
    const double n = static_cast<double>(population);
    const double inverse = crossover * (n * (n - 1.0)) / (0.6266570686577502 * std::sqrt(n));
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
