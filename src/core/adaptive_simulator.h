// The phase-adaptive dispatcher: one run, executed as a chain of
// count-batch / collapsed segments spliced at runtime density switches.
//
// Neither count engine wins a whole run.  The collapsed super-step engine
// (collapsed_simulator.h) advances ~0.63 sqrt(n) interactions per O(|Q|^2)
// super-step and is unbeatable through dense transients; the count-batch
// engine (batch_simulator.h) crosses null-heavy sparse tails in O(1)
// geometric jumps and is unbeatable there.  A single-seed epidemic at
// n = 2^22 visits *both* regimes — sparse ignition, dense middle, sparse
// convergence tail — so any static choice loses one phase.  The former
// kAuto policy picked once, by population size, before the run started.
//
// The adaptive dispatcher picks per *phase* instead.  An EngineSwitchMonitor
// (engine_monitor.h) watches the dimensionless signal x = rho * E[L]
// (effective-interaction fraction times expected collision-free run length)
// that both engines already compute for their silence predicates.  The
// dispatcher hands the monitor to each segment as run_loop's `monitor`
// argument, and the kernel polls it every n/64 interactions (at least 256).  When
// hysteresis thresholds say the other engine now wins, the run-loop kernel
// captures a checkpoint at the current super-step / skip boundary and this
// driver resumes it under the other engine via transfer_checkpoint_engine.
// The switch IS a checkpoint round-trip: counts, the exact RNG stream
// position, the silence tracker, and the stop counters carry over verbatim,
// so an adaptive run is bit-identical to manually running engine A to the
// switch index, saving a checkpoint, and resuming engine B from it — and
// suspend/resume (checkpoint_every / pause_after / stop_flag) works across
// switch boundaries unchanged (the checkpoint's `adaptive` section carries
// the monitor state).
//
// The splice is exact because the monitor only fires at *natural* loop
// tops: a pause boundary placed at a switch index never clamps the
// super-step ending there (its natural end lands one short of the limit),
// so pausing ON a switch index is transparent.  Cuts elsewhere inherit the
// collapsed engine's checkpoint contract — boundaries inside collapsed
// segments clamp super-steps, so resume bit-identity for arbitrary cuts is
// against a baseline running the same boundary schedule (see
// tests/adaptive_simulator_test.cpp and collapsed_simulator_test.cpp).
//
// Serial only: the sharded collapsed engine draws from K split RNG streams
// that the count-batch engine cannot continue, so threads > 1 keeps pinning
// the (parallel) collapsed engine in run_simulation instead.

#ifndef POPPROTO_CORE_ADAPTIVE_SIMULATOR_H
#define POPPROTO_CORE_ADAPTIVE_SIMULATOR_H

#include "core/configuration.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"

namespace popproto {

// Private to src/core: callers choose these engines through run_simulation
// (batch_simulator.h) with SimulationEngine::kCountBatch / kAdaptive.
namespace engine_detail {

/// run_simulation's count-batch runner (batch_simulator.cpp), also the
/// sparse-side segment the adaptive dispatcher chains; the dense side is
/// run_collapsed (collapsed_simulator.h).  `monitor` and `transfer` are the
/// dispatcher's segment hooks (run_loop's arguments of the same names; null
/// otherwise).
RunResult run_count_batch(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          const RunOptions& options, EngineSwitchMonitor* monitor = nullptr,
                          std::optional<RunCheckpoint>* transfer = nullptr);

/// run_simulation's adaptive runner (options.engine == kAdaptive, kAuto at
/// kAutoCollapsedThreshold and beyond, or kAuto resuming a checkpoint with
/// an `adaptive` section).  RunOptions::adaptive holds the thresholds.
/// RunResult::engine reports kAdaptive; emitted checkpoints carry the
/// concrete segment engine plus the monitor's `adaptive` section and resume
/// here under kAuto/kAdaptive (or under the segment engine, which pins it
/// statically).  Requires threads <= 1.
RunResult run_adaptive(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                       const RunOptions& options);

}  // namespace engine_detail

}  // namespace popproto

#endif  // POPPROTO_CORE_ADAPTIVE_SIMULATOR_H
