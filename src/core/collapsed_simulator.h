// Collapsed super-step simulation engine: amortized sub-constant time per
// interaction via multinomial batching.
//
// The count-batch engine (batch_simulator.h) pays O(1) per skipped null
// interaction but still O(|Q|) per *effective* one, and the paper's
// randomized results need runs of 10^9..10^12 interactions (Theorem 8's
// O(n^2 log n) Presburger bound, Theorem 9's Theta(n^k) epochs) with dense
// phases where most interactions are effective.  This engine collapses
// T = ceil(c sqrt(n)) interactions (super_step_length; c = 1.5, a fitted
// constant) into one count update.  During a super-step every agent is
// *fresh* (not yet touched), *deferred* (one of the two agents of an
// interaction between two fresh agents, not yet realized), or *realized*
// (its current state is known; the multiset R):
//
//  * Fresh-fresh runs.  Ordered pairs of distinct agents are drawn
//    uniformly.  With f agents still fresh, the run of consecutive
//    interactions between two fresh agents has the birthday law
//        P(run >= l) = prod_{i<l} (f-2i)(f-2i-1) / (n(n-1)),
//    tabulated once per n (SurvivalTable) and inverted with one uniform01
//    from any fresh count.  These interactions are *deferred*: they touch
//    disjoint agents, so they commute and are realized together at the end.
//  * Events.  Each interaction that touches an already-touched agent is
//    resolved on its own by exact without-replacement draws: a fresh agent
//    from P (the multiset of the agents not yet realized), a deferred agent
//    by realizing its whole pair from P (a fair draw says whether it was
//    the initiator or the responder; the partner joins R), and a realized
//    agent from R.  Both results join R.  About 2c^2 events per super-step.
//  * Bulk realization.  The deferred pairs left at the end are one
//    multivariate hypergeometric pool out of P, split into initiators and
//    responders and matched row by row (a cascade of exact
//    Rng::hypergeometric draws, O(|Q|^2) in all); the new counts are
//    P + the pool's post-transition states + R.
//
// This is exact because which agents an interaction touches depends only on
// agent identities, never on states: given everything revealed so far, the
// agents not yet realized hold a uniformly random assignment of P, so every
// draw from P above has the law of looking up the chosen agent's state
// (DESIGN.md "The collapsed super-step engine").
//
// The configuration lives in the count state every count stepper shares
// (count_batch_stepper.h): a super-step copies the counts into P at its
// start and hands the new counts back at its end, which recounts the exact
// W once per super-step.
//
// Equivalence contract (sharper than the cross-engine one of the count-batch
// engine): the distribution of trajectories and RunResults is identical to
// the agent-array and count-batch engines', but equivalence is
// *distribution-level only* — even against itself across observation
// setups.  The run-loop kernel clamps a super-step's length at snapshot,
// checkpoint, stable-output-window, and budget boundaries (exactly: a
// super-step of m interactions samples the configuration m interactions on,
// for every m, and the count chain is Markov), so boundary *placement*
// steers where the RNG stream is spent, and the same seed yields different
// (equally valid) trajectories under different schedules.
// Checkpoint/resume remains bit-identical because a resumed run
// reconstructs the identical boundary sequence: suspend-at-k + resume
// reproduces the checkpointed run exactly.
//
// Bookkeeping coarsenings (both documented in DESIGN.md):
//  * last_output_change is stamped at the end of the super-step containing
//    the change, not at the exact interaction inside the batch.
//  * Silence (W == 0, exact as in the count-batch engine) is detected at
//    super-step granularity, so the reported kSilent interaction index may
//    overshoot the exact onset by less than one super-step (< T); the
//    final configuration is unaffected (a silent multiset is frozen).
//
// Cost model: O(|Q|^2) cascade work plus ~2c^2 events of O(|Q|) each per
// T = c sqrt(n) interactions.  Prefer it for dense phases at large n
// (>= 2^20); the count-batch engine remains better on sparse tails, where
// its geometric null skip crosses n^2/W interactions in O(1) while a
// super-step only crosses ~c sqrt(n) (see README's engine table and
// bench_collapsed).
//
// Intra-run parallelism (RunOptions::threads > 1, DESIGN.md "Intra-run
// parallelism").  The events run on the parent stream exactly as in the
// serial engine; only the bulk realization is sharded.  Its deferred pairs
// are an exchangeable batch: their 2D agents are a uniform without-
// replacement sample of P, so splitting the D pairs into K shards — pools
// carved by exact multivariate-hypergeometric splits on the parent stream,
// each shard's split-and-match (the serial engine's, on the shard's pool)
// run on its own 2^128-jump child stream (Rng::split) — and merging the
// per-shard deltas in fixed shard order yields exactly the serial law for
// every K.  The effective-pair recount stays on the parent stream after
// the merge.
// Determinism contract: a fixed (seed, threads) pair is bit-identical
// across repetitions, machines, and pool schedules (shard k always consumes
// child stream k regardless of which worker runs it); different thread
// counts give different — distribution-identical — trajectories.
// Checkpoints record the K child streams (RunCheckpoint::shard_rngs) under
// the distinct engine tag "parallel_collapsed", so a resume must use the
// same thread count and serial/parallel checkpoints mutually reject.  A
// checkpoint taken before the first super-step carves the streams records
// none; its resume carves them at the same parent-stream position.
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

/// T = ceil(c sqrt(n)) with c = 1.5: the interactions one super-step
/// executes unless a boundary clamps it (priced in EXPERIMENTS.md "Multibatch
/// super-steps").  At least 1.
std::uint64_t super_step_length(std::uint64_t population);

/// The birthday law of a fresh-fresh run, from any fresh count.  With a
/// agents touched (f = n - a fresh), the run of consecutive interactions
/// between two fresh agents has
///     P(run >= l) = prod_{i<l} (f-2i)(f-2i-1) / (n(n-1))
///                 = entries()[a + 2l] / entries()[a],
/// where entry a is the product down the chain of fresh counts of a's
/// parity: entries 0 and 1 are 1, and entry a = entry (a-2) times
/// g(n-a+2), with g(f) = f(f-1)/(n(n-1)) (0 once f < 2).  A super-step of T
/// interactions touches at most 2T agents, so 2T + 1 entries serve every
/// inversion it makes (16 KB per 1,000 of T).
class SurvivalTable {
public:
    SurvivalTable(std::uint64_t population, std::uint64_t length);

    const std::vector<double>& entries() const { return entries_; }

    /// The run length for `touched` agents touched and uniform `u` in
    /// [0, 1), capped at `limit`: the largest l <= limit with
    /// entries()[touched + 2l] > u * entries()[touched].  O(1) expected
    /// steps: the cap is tested first, and otherwise the walk starts at the
    /// root of ln P(run >= l) ~= -(2 a l + 2 l^2) / n.  Precondition:
    /// touched <= n and touched + 2 limit < entries().size().
    std::uint64_t invert(std::uint64_t touched, std::uint64_t limit, double u) const;

private:
    std::vector<double> entries_;
    double population_;
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
