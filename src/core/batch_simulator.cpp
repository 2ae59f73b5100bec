#include "core/batch_simulator.h"

#include "core/adaptive_simulator.h"
#include "core/collapsed_simulator.h"
#include "core/count_batch_stepper.h"
#include "core/run_loop.h"

namespace popproto {

namespace {

RunResult run_count_batch(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                          const RunOptions& options) {
    engine_detail::require_count_engine_input(protocol, initial);
    engine_detail::CountBatchStepper stepper(protocol, initial);
    return run_loop(stepper, protocol, options, "run_simulation");
}

}  // namespace

RunResult run_simulation(const TabulatedProtocol& protocol, const CountConfiguration& initial,
                         const RunOptions& options) {
    switch (options.engine) {
        case SimulationEngine::kCountBatch:
            return run_count_batch(protocol, initial, options);
        case SimulationEngine::kCollapsedBatch:
            return engine_detail::run_collapsed(protocol, initial, options);
        case SimulationEngine::kAgentArray:
            return simulate(protocol, initial, options);
        case SimulationEngine::kAdaptive:
            return engine_detail::run_adaptive(protocol, initial, options);
        case SimulationEngine::kAuto:
            break;
    }
    // A request for intra-run parallelism pins the collapsed engine: it is
    // the only one that honours threads > 1, and letting the size-based
    // choice route the request to a sequential engine would just trip the
    // kernel's never-ignore check.
    if (options.threads > 1) return engine_detail::run_collapsed(protocol, initial, options);
    // A checkpoint of the adaptive engine resumes there, so the run keeps
    // its switching behaviour whatever its size.
    if (options.resume_from != nullptr &&
        options.resume_from->engine == ObservedEngine::kAdaptive)
        return engine_detail::run_adaptive(protocol, initial, options);
    // Size-based auto-selection (see the threshold constants in
    // simulator.h): the count engines need the multiset view anyway, so the
    // only inputs are the population and the documented crossover points.
    // At collapsed scale the within-run regime matters more than the size,
    // so those runs go to the phase-adaptive engine.
    const std::uint64_t n = initial.population_size();
    if (n >= kAutoCollapsedThreshold)
        return engine_detail::run_adaptive(protocol, initial, options);
    if (n >= kAutoCountBatchThreshold)
        return run_count_batch(protocol, initial, options);
    return simulate(protocol, initial, options);
}

}  // namespace popproto
