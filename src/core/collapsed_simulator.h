// Collapsed super-step simulation engine: amortized sub-constant time per
// interaction via multinomial batching.
//
// The count-batch engine (batch_simulator.h) pays O(1) per skipped null
// interaction but still O(|Q|) per *effective* one, and the paper's
// randomized results need runs of 10^9..10^12 interactions (Theorem 8's
// O(n^2 log n) Presburger bound, Theorem 9's Theta(n^k) epochs) with dense
// phases where most interactions are effective.  This engine collapses
// whole *runs* of interactions into one count update:
//
//  * Super-step length.  Ordered pairs of distinct agents are drawn
//    uniformly; as long as consecutive pairs touch pairwise-disjoint
//    agents, their effects commute and the aggregate is a without-
//    replacement sample of the count vector.  The length L of the maximal
//    collision-free run has the birthday-problem law
//        P(L >= t) = prod_{i<t} (n-2i)(n-2i-1) / (n(n-1)),
//    with E[L] = sqrt(pi n / 8) ~ 0.63 sqrt(n); the survival table
//    (SurvivalTable below) depends only on n, is built once, and one
//    uniform01 samples L exactly, inverted in O(1) expected steps from the
//    birthday estimate sqrt(-(n/2) ln u).
//  * Batch assignment.  The 2L touched agents form one multivariate
//    hypergeometric pool of the counts (a cascade of exact
//    Rng::hypergeometric splits); a second cascade splits the pool into the
//    L initiators and L responders, and a third matches them row by row —
//    O(|Q|^2) draws total.  Applying delta to every matched pair type at
//    once is one O(|Q|^2) count update for ~sqrt(n) interactions:
//    amortized O(|Q|^2 / sqrt(n)) per interaction.
//  * The colliding interaction.  The pair that terminated the run involves
//    at least one already-touched agent; it is resolved individually from
//    the post-batch touched multiset T (|T| = 2L) and the untouched
//    remainder U, with case weights TT : TU : UT = 2L(2L-1) : 2L(n-2L) :
//    (n-2L)2L.
//
// Equivalence contract (sharper than the cross-engine one of the count-batch
// engine): the distribution of trajectories and RunResults is identical to
// the agent-array and count-batch engines', but equivalence is
// *distribution-level only* — even against itself across observation
// setups.  The run-loop kernel clamps a super-step at snapshot, checkpoint,
// stable-output-window, and budget boundaries (exactly: the first m
// pairs of a collision-free run of length >= m are themselves a
// collision-free batch of length m, and the count chain is Markov), so
// boundary *placement* steers where the RNG stream is spent, and the same
// seed yields different (equally valid) trajectories under different
// schedules.  Checkpoint/resume remains bit-identical because a resumed run
// reconstructs the identical boundary sequence: suspend-at-k + resume
// reproduces the checkpointed run exactly.
//
// Bookkeeping coarsenings (both documented in DESIGN.md):
//  * last_output_change is stamped at the end of the super-step containing
//    the change, not at the exact interaction inside the batch.
//  * Silence (W == 0, exact as in the count-batch engine) is detected at
//    super-step granularity, so the reported kSilent interaction index may
//    overshoot the exact onset by up to one super-step (< ~2 sqrt(n)); the
//    final configuration is unaffected (a silent multiset is frozen).
//
// Cost model: O(|Q|^2) work per ~0.63 sqrt(n) interactions, including
// O(|Q|^2) exact sampler draws of O(1) expected cost each (rng.h).  Prefer
// it for dense phases at large n (>= 2^20); the count-batch engine remains
// better on sparse tails, where its geometric null skip crosses n^2/W
// interactions in O(1) while a super-step only crosses ~sqrt(n) (see
// README's engine table and bench_collapsed).
//
// Intra-run parallelism (RunOptions::threads > 1, DESIGN.md "Intra-run
// parallelism").  A super-step's batch is exchangeable: the 2L touched
// agents are a uniform without-replacement sample, so splitting the L pairs
// into K shards — pools carved by exact multivariate-hypergeometric splits
// on the parent stream, each shard's split-and-match (the serial engine's,
// on the shard's pool) run on its own 2^128-jump child stream (Rng::split)
// — and merging the per-shard deltas in fixed shard order yields exactly
// the serial law for every K.  The colliding interaction and the
// effective-pair recount stay on the parent stream after the merge.
// Determinism contract: a fixed (seed, threads) pair is bit-identical
// across repetitions, machines, and pool schedules (shard k always consumes
// child stream k regardless of which worker runs it); different thread
// counts give different — distribution-identical — trajectories.
// Checkpoints record the K child streams (RunCheckpoint::shard_rngs) under
// the distinct engine tag "parallel_collapsed", so a resume must use the
// same thread count and serial/parallel checkpoints mutually reject.
// threads == 1 *is* the serial engine; threads == 0 resolves to the
// hardware concurrency.

#ifndef POPPROTO_CORE_COLLAPSED_SIMULATOR_H
#define POPPROTO_CORE_COLLAPSED_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/configuration.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto {

// Private to src/core: callers choose this engine through run_simulation
// (batch_simulator.h) with SimulationEngine::kCollapsedBatch.
namespace engine_detail {

/// The birthday law of the super-step length L: entry t-1 is
///     P(L >= t) = prod_{i<t} (n-2i)(n-2i-1) / (n(n-1)),
/// strictly decreasing from entry 0 = 1, truncated once the mass drops
/// below 1e-25 or the population runs out of disjoint agents (~6.7 sqrt(n)
/// entries).  Depends only on n.
class SurvivalTable {
public:
    explicit SurvivalTable(std::uint64_t population);

    const std::vector<double>& entries() const { return entries_; }

    /// The index of the first entry <= u, or entries().size() when there is
    /// none — exactly what std::lower_bound with std::greater returns, for
    /// every u in [0, 1) — in O(1) expected steps: the walk starts at the
    /// birthday estimate sqrt(-(n/2) ln u).
    std::size_t invert(double u) const;

private:
    std::vector<double> entries_;
    double half_population_;
};

/// run_simulation's collapsed runner (options.engine == kCollapsedBatch,
/// or kAuto with threads > 1).  Same options and result contract as the
/// count-batch engine (multiset-wise effective_interactions and
/// last_output_change), with the super-step
/// coarsenings described above.  threads > 1 selects the sharded parallel
/// variant; the RunResult::engine field reports which variant ran.
RunResult run_collapsed(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                        const RunOptions& options);

/// run_simulation's input check for the count engines: `initial` matches
/// `protocol` and holds at least two and fewer than 2^32 agents.
void require_count_engine_input(const TabulatedProtocol& protocol,
                                const CountConfiguration& initial);

}  // namespace engine_detail

}  // namespace popproto

#endif  // POPPROTO_CORE_COLLAPSED_SIMULATOR_H
