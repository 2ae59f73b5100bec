#include <algorithm>
#include <cmath>

#include "core/batch_simulator.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "protocols/epidemic.h"
#include "workloads.h"

namespace perfbench {

using popproto::CountConfiguration;
using popproto::RunOptions;
using popproto::RunResult;
using popproto::StopReason;

std::optional<EngineWorkload> engine_workload(const std::string& name, bool smoke) {
    // Smoke populations still cross kAutoCollapsedThreshold (2^20), so the
    // epidemic keeps going through the adaptive dispatcher; the predicate
    // stays at 2^12, the count-batch floor of kAuto.
    const std::uint64_t epidemic_n = std::uint64_t{1} << (smoke ? 20 : 24);
    if (name == "epidemic-serial") return EngineWorkload{name, epidemic_n, 1, false};
    if (name == "epidemic-parallel")
        return EngineWorkload{name, epidemic_n, parallel_threads(), false};
    if (name == "predicate-serial") return EngineWorkload{name, std::uint64_t{1} << 12, 1, true};
    return std::nullopt;
}

EngineSetup build_engine_setup(const EngineWorkload& workload, SpanLog* spans) {
    EngineSetup setup;
    const std::uint64_t n = workload.population;
    if (workload.predicate) {
        const Span span(spans, "presburger.compile");
        setup.formula = popproto::parse_formula(kFeverPredicate);
        setup.protocol = popproto::compile_formula(*setup.formula);
        const std::uint64_t fevered = n / 20 + 1;
        const std::vector<std::uint64_t> counts = {n - fevered, fevered};
        setup.initial = CountConfiguration::from_input_counts(*setup.protocol, counts);
        setup.expected_consensus =
            setup.formula->evaluate({static_cast<std::int64_t>(n - fevered),
                                     static_cast<std::int64_t>(fevered)})
                ? popproto::kOutputTrue
                : popproto::kOutputFalse;
    } else {
        setup.protocol = popproto::make_epidemic_protocol();
        setup.initial = CountConfiguration::from_input_counts(*setup.protocol, {n - 1, 1});
    }
    return setup;
}

double measure_setup_seconds(const EngineWorkload& workload, int samples) {
    const auto once = [&] {
        const Clock::time_point start = Clock::now();
        const EngineSetup setup = build_engine_setup(workload);
        return seconds_since(start);
    };
    once();  // warm the allocator and the code paths
    const int reps = static_cast<int>(std::clamp(std::ceil(2e-3 / once()), 1.0, 1e5));
    std::vector<double> per_setup;
    for (int sample = 0; sample < samples; ++sample) {
        const Clock::time_point start = Clock::now();
        for (int rep = 0; rep < reps; ++rep) build_engine_setup(workload);
        per_setup.push_back(seconds_since(start) / reps);
    }
    return median(per_setup);
}

RunOptions engine_run_options(const EngineWorkload& workload, std::uint64_t seed) {
    RunOptions options;
    options.seed = seed;
    options.threads = workload.threads;
    return options;
}

bool engine_result_correct(const EngineWorkload& workload, const EngineSetup& setup,
                           const RunResult& result, bool inject_wrong) {
    if (result.stop_reason != StopReason::kSilent) return false;
    if (workload.predicate) {
        const popproto::Symbol expected = inject_wrong
                                              ? 1 - setup.expected_consensus
                                              : setup.expected_consensus;
        return result.consensus.has_value() && *result.consensus == expected;
    }
    const std::uint64_t expected_effective = workload.population - (inject_wrong ? 0 : 1);
    return result.effective_interactions == expected_effective &&
           result.consensus == std::optional<popproto::Symbol>(popproto::kOutputTrue);
}

double EnginePass::total_seconds() const {
    double total = 0.0;
    for (const double seconds : run_seconds) total += seconds;
    return total;
}

namespace {

void run_one(const EngineWorkload& workload, const EngineSetup& setup, RunOptions options,
             bool inject_wrong, Result& result, SpanLog* spans, const std::string& span_name,
             EnginePass& pass, std::optional<CpuRotation>& rotation) {
    // Serial runs rotate over the CPUs; a sharded run keeps the full mask,
    // which its pool threads inherit.
    if (options.threads <= 1) {
        if (!rotation) rotation.emplace();
        rotation->step();
    }
    popproto::telemetry::RunTelemetryCollector collector;
    if (spans != nullptr) options.telemetry = &collector;
    double seconds = 0.0;
    const RunResult run = [&] {
        const Span span(spans, span_name, spans != nullptr ? spans->new_group() : 0);
        const Clock::time_point start = Clock::now();
        RunResult finished = popproto::run_simulation(*setup.protocol, *setup.initial, options);
        seconds = seconds_since(start);
        return finished;
    }();
    result.check(engine_result_correct(workload, setup, run, inject_wrong));
    pass.seeds.push_back(options.seed);
    pass.run_seconds.push_back(seconds);
    pass.run_interactions.push_back(run.interactions);
    if (run.telemetry) pass.telemetry.push_back(run.telemetry);
}

}  // namespace

EnginePass run_engine_pass(const EngineWorkload& workload, const EngineSetup& setup,
                           SeedStream& seeds, double seconds, int min_runs, int max_runs,
                           bool inject_wrong, Result& result, SpanLog* spans) {
    EnginePass pass;
    std::optional<CpuRotation> rotation;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(pass.run_seconds.size()) < max_runs &&
           (static_cast<int>(pass.run_seconds.size()) < min_runs ||
            seconds_since(start) < seconds)) {
        run_one(workload, setup, engine_run_options(workload, seeds.next()), inject_wrong,
                result, spans, "run_simulation", pass, rotation);
    }
    return pass;
}

EnginePass rerun_engine_seeds(const EngineWorkload& workload, const EngineSetup& setup,
                              const std::vector<std::uint64_t>& seeds, const RunOptions& base,
                              bool inject_wrong, Result& result, SpanLog* spans,
                              const std::string& span_name, double max_seconds) {
    EnginePass pass;
    std::optional<CpuRotation> rotation;
    for (const std::uint64_t seed : seeds) {
        if (!pass.run_seconds.empty() && pass.total_seconds() >= max_seconds) break;
        RunOptions options = base;
        options.seed = seed;
        run_one(workload, setup, options, inject_wrong, result, spans, span_name, pass,
                rotation);
    }
    return pass;
}

}  // namespace perfbench
