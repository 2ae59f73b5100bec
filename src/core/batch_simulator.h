// Count-based batch simulation engine (the Sect. 3.5 anonymity argument,
// turned into a performance tool).
//
// On the complete interaction graph agents are anonymous, so a run's
// observable behaviour depends only on the *multiset* of states.  This
// engine therefore simulates directly on the CountConfiguration vector
// instead of an expanded agent array:
//
//  * The ordered state pair (p, q) of the next interaction is sampled from
//    the count vector: P[(p, q)] = c_p (c_q - [p == q]) / (n (n - 1)).
//    Sampling walks a cumulative sum over the (at most |Q|) present states,
//    so one draw costs O(|Q|) independent of n, and memory is O(|Q|) plus
//    the protocol's delta table instead of O(n).
//  * Null-interaction skip: the engine maintains W, the number of ordered
//    agent pairs whose interaction would change the multiset (swaps and
//    identities are null).  Instead of burning one RNG draw per null
//    interaction, it samples the number of consecutive nulls before the
//    next effective interaction geometrically with success probability
//    W / (n (n - 1)) and advances the interaction counter in one jump.
//    The long convergence tail - where almost every pair is null - costs
//    O(1) per *effective* interaction instead of O(1) per interaction.
//  * W == 0 is exactly the silence predicate, so silence is detected at the
//    precise interaction after which no further change is possible.
//  * Observation (core/observer.h): scheduled snapshot indices that fall
//    inside a geometric jump are emitted with the current (unchanged)
//    counts and stamped with their exact interaction index — null runs
//    change nothing, so the jump is clamped at each snapshot boundary
//    without consuming extra randomness, and a run's trajectory and
//    RunResult are bit-identical with and without an observer.
//
// The reported interaction counts, stop reasons, and final configurations
// are distributed exactly as in the agent-array `simulate` loop; only the
// RNG stream differs, so a fixed seed yields a different (equally valid)
// trajectory.  Two bookkeeping fields are interpreted multiset-wise:
// `effective_interactions` counts interactions that changed the multiset
// (the agent-array engine also counts pure swaps), and
// `last_output_change` records the last interaction that changed the
// multiset of outputs (not any individual agent's output).
//
// Cost model: O(|Q|^2) setup, O(1) per skipped null, and per effective
// interaction one geometric skip draw (table-driven logs certified against
// libm's floor, core/fast_log.h; libm itself only when the certificate
// fails), the O(|Q|) pair search over row weights and then the chosen row's
// list of effective responders, and the W bookkeeping from the pair's
// pre-netted moves: O(column degree) for each of the at most four states
// whose net count changes (two for an epidemic infection;
// core/effect_tables.h, core/effective_pairs.h).  A step allocates nothing.  The
// agent-array engine remains preferable only when the effective fraction
// stays near 1 *and* |Q| is large; for the protocols in this repository the
// batch engine wins by orders of magnitude at large n (see bench_throughput).

#ifndef POPPROTO_CORE_BATCH_SIMULATOR_H
#define POPPROTO_CORE_BATCH_SIMULATOR_H

#include "core/configuration.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto {

/// Simulates `protocol` from `initial` under uniform random pairing on the
/// engine `options.engine` names — the one way to choose a complete-graph
/// engine:
///   * kAgentArray runs `simulate` (simulator.h);
///   * kCountBatch runs this file's engine: same options and result
///     contract as `simulate` (see the file comment for the two
///     multiset-wise bookkeeping fields);
///   * kCollapsedBatch runs the collapsed super-step engine
///     (collapsed_simulator.h); threads > 1 selects its sharded variant and
///     at most 4096 threads are accepted;
///   * kAdaptive runs the phase-adaptive engine (adaptive_simulator.h);
///     RunOptions::adaptive holds its crossover, and it requires
///     threads <= 1;
///   * kAuto selects by population size — agent array below
///     kAutoCountBatchThreshold, count-batch up to kAutoCollapsedThreshold,
///     adaptive beyond (see simulator.h for the measured crossovers).
///     threads > 1 pins the collapsed engine, and a checkpoint carrying an
///     `adaptive` engine tag resumes under the adaptive engine.
/// The chosen engine is reported in RunResult::engine.  The count engines
/// require fewer than 2^32 agents; every engine requires at least 2.  All of
/// them run on the shared run-loop kernel (core/run_loop.h), so
/// suspend/resume is bit-identical on each (for the collapsed and adaptive
/// engines: against a run checkpointed at the same boundaries).
RunResult run_simulation(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                         const RunOptions& options);

}  // namespace popproto

#endif  // POPPROTO_CORE_BATCH_SIMULATOR_H
