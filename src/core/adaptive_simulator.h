// The phase-adaptive engine: one count stepper that chooses, at every step,
// between a collapsed super-step and a count-batch step.
//
// Neither count engine wins a whole run.  The collapsed super-step engine
// (collapsed_simulator.h) advances T = ceil(1.5 sqrt(n)) interactions per
// super-step and is unbeatable through dense transients; the count-batch
// engine (batch_simulator.h) crosses null-heavy sparse tails in O(1)
// geometric jumps and is unbeatable there.  A single-seed epidemic at
// n = 2^22 visits *both* regimes — sparse ignition, dense middle, sparse
// convergence tail — so any static choice loses one phase.
//
// Which step wins is governed by one dimensionless signal,
//
//   x = rho * T,   rho = W / (n(n-1)),   T = super_step_length(n),
//
// the expected number of effective interactions inside one super-step:
// "how much useful work one super-step amortizes".  W, the exact
// number of effective ordered pairs, lives in the one count state that both
// step kinds step (count_batch_stepper.h): the signal costs no extra pass,
// and a change of step kind hands nothing over.  At every
// run-loop top the adaptive stepper takes a super-step when x >= x*
// (RunOptions::adaptive.crossover) and a count-batch step (geometric null
// skip plus one effective interaction) otherwise; the test is one integer
// compare of W against crossover_pairs(n, x*).  The density follows its
// fluid limit up to O(1/sqrt(n)) fluctuations, so the signal crosses x*
// once per regime change and needs no hysteresis.
//
// Both step kinds are exact samplers of one Markov chain, and the choice
// depends only on the current configuration, so by the strong Markov
// property the law of the run is that of either static engine.  A loop top
// that holds a pending null skip (a resume cut inside one) finishes the
// skip first, as the uninterrupted run did.  A checkpoint is the counts,
// the RNG position and the counters, tagged `engine adaptive`; the
// adaptive engine also resumes count_batch and collapsed checkpoints.
// Checkpoint boundaries clamp super-steps as in the collapsed engine, so
// resume bit-identity is against a baseline with the same boundaries.
//
// Serial only: the sharded collapsed engine draws from K split RNG streams
// that a count-batch step cannot continue, so threads > 1 keeps pinning the
// (parallel) collapsed engine in run_simulation instead.

#ifndef POPPROTO_CORE_ADAPTIVE_SIMULATOR_H
#define POPPROTO_CORE_ADAPTIVE_SIMULATOR_H

#include <cstdint>

#include "core/configuration.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto {

// Private to src/core: callers choose this engine through run_simulation
// (batch_simulator.h) with SimulationEngine::kAdaptive.
namespace engine_detail {

/// x = W / (n(n-1)) * T for a population of n, W effective ordered pairs
/// and T = super_step_length(n) (collapsed_simulator.h).
double crossover_signal(std::uint64_t population, std::uint64_t effective_pairs);

/// The smallest W whose signal is at least `crossover`, or ~0 when no
/// W <= n(n-1) reaches it.  crossover_signal is monotone in W even under
/// float rounding, so `W >= crossover_pairs(n, x*)` decides exactly as
/// `crossover_signal(n, W) >= x*`.
std::uint64_t crossover_pairs(std::uint64_t population, double crossover);

/// run_simulation's adaptive runner (options.engine == kAdaptive, kAuto at
/// kAutoCollapsedThreshold and beyond, or kAuto resuming an adaptive
/// checkpoint), defined beside the collapsed steppers whose super-steps it
/// takes.  RunResult::engine reports kAdaptive.  Requires threads <= 1.
RunResult run_adaptive(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const RunOptions& options);

}  // namespace engine_detail

}  // namespace popproto

#endif  // POPPROTO_CORE_ADAPTIVE_SIMULATOR_H
