#include "service/session.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/require.h"
#include "presburger/atom_protocols.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "scenarios/adversarial.h"
#include "scenarios/games.h"
#include "scenarios/scenario_spec.h"

namespace popproto::service {

namespace {

std::uint64_t u64_field(const JsonValue& object, const char* key, std::uint64_t fallback) {
    const JsonValue* value = object.find(key);
    return value != nullptr ? value->as_u64(std::string("'") + key + "'") : fallback;
}

std::string string_field(const JsonValue& object, const char* key, const std::string& fallback) {
    const JsonValue* value = object.find(key);
    return value != nullptr ? value->as_string(std::string("'") + key + "'") : fallback;
}

}  // namespace

SessionSpec parse_session_spec(const JsonValue& object) {
    SessionSpec spec;
    spec.protocol = string_field(object, "protocol", spec.protocol);
    spec.predicate = string_field(object, "predicate", spec.predicate);
    spec.engine = string_field(object, "engine", spec.engine);
    spec.name = string_field(object, "name", spec.name);
    spec.seed = u64_field(object, "seed", spec.seed);
    spec.budget = u64_field(object, "budget", spec.budget);
    spec.quantum = u64_field(object, "quantum", spec.quantum);
    spec.weight = u64_field(object, "weight", spec.weight);
    spec.snapshot_every = u64_field(object, "snapshot_every", spec.snapshot_every);
    if (const JsonValue* telemetry = object.find("telemetry"); telemetry != nullptr)
        spec.telemetry = telemetry->as_bool("'telemetry'");

    const std::uint64_t threshold = u64_field(object, "threshold", spec.threshold);
    require(threshold >= 1 && threshold <= std::numeric_limits<std::uint32_t>::max(),
            "'threshold' out of range");
    spec.threshold = static_cast<std::uint32_t>(threshold);

    const std::uint64_t threads = u64_field(object, "threads", spec.threads);
    require(threads <= 4096, "'threads' out of range");
    spec.threads = static_cast<unsigned>(threads);

    const JsonValue* counts = object.find("counts");
    require(counts != nullptr, "submit requires 'counts' (agents per input symbol)");
    for (const JsonValue& element : counts->as_array("'counts'"))
        spec.counts.push_back(element.as_u64("'counts' element"));

    spec.model = string_field(object, "model", spec.model);
    spec.probe = u64_field(object, "probe", spec.probe);
    spec.phase_length = u64_field(object, "phase_length", spec.phase_length);
    spec.torus_width = u64_field(object, "torus_width", spec.torus_width);
    spec.torus_height = u64_field(object, "torus_height", spec.torus_height);
    spec.radius = u64_field(object, "radius", spec.radius);
    if (const JsonValue* phases = object.find("phases"); phases != nullptr) {
        for (const JsonValue& element : phases->as_array("'phases'"))
            spec.phases.push_back(element.as_string("'phases' element"));
    }

    validate_session_spec(spec);
    return spec;
}

void validate_session_spec(const SessionSpec& spec) {
    parse_engine_name(spec.engine);
    require(!spec.counts.empty(), "'counts' must be non-empty");
    require(spec.weight >= 1, "'weight' must be at least 1");
    if (spec.protocol == "predicate")
        require(!spec.predicate.empty(), "protocol \"predicate\" requires 'predicate'");
    require(spec.threads <= 1 || spec.engine == "auto" || spec.engine == "collapsed",
            "'threads' > 1 requires engine \"collapsed\" or \"auto\"");
    if (spec.model != "uniform") {
        const std::vector<std::string>& names = scenario_model_names();
        require(std::find(names.begin(), names.end(), spec.model) != names.end(),
                "unknown model \"" + spec.model +
                    "\" (uniform, round_robin, sweep, adversarial, dynamic_graph, "
                    "grid_mobility)");
        require(spec.engine == "auto", "'model' other than uniform requires engine \"auto\"");
        require(spec.threads <= 1, "'model' other than uniform requires threads <= 1");
        if (spec.model == "dynamic_graph")
            require(!spec.phases.empty(), "model \"dynamic_graph\" requires 'phases'");
        if (spec.model == "adversarial")
            require(spec.probe <= AdversarialCoverModel::kMaxProbeWindow,
                    "'probe' must be at most 65536 (the adversarial probe window cap)");
    }
}

JsonValue session_spec_to_json(const SessionSpec& spec) {
    JsonValue::Object object;
    object.emplace_back("protocol", JsonValue(spec.protocol));
    if (!spec.predicate.empty()) object.emplace_back("predicate", JsonValue(spec.predicate));
    if (spec.protocol == "counting")
        object.emplace_back("threshold", JsonValue(std::uint64_t{spec.threshold}));
    JsonValue::Array counts;
    for (const std::uint64_t count : spec.counts) counts.emplace_back(count);
    object.emplace_back("counts", JsonValue(std::move(counts)));
    object.emplace_back("engine", JsonValue(spec.engine));
    if (spec.model != "uniform") {
        object.emplace_back("model", JsonValue(spec.model));
        if (spec.model == "adversarial")
            object.emplace_back("probe", JsonValue(spec.probe));
        if (spec.model == "dynamic_graph") {
            JsonValue::Array phases;
            for (const std::string& phase : spec.phases) phases.emplace_back(phase);
            object.emplace_back("phases", JsonValue(std::move(phases)));
            if (spec.phase_length != 0)
                object.emplace_back("phase_length", JsonValue(spec.phase_length));
        }
        if (spec.model == "grid_mobility") {
            if (spec.torus_width != 0)
                object.emplace_back("torus_width", JsonValue(spec.torus_width));
            if (spec.torus_height != 0)
                object.emplace_back("torus_height", JsonValue(spec.torus_height));
            object.emplace_back("radius", JsonValue(spec.radius));
        }
    }
    object.emplace_back("threads", JsonValue(std::uint64_t{spec.threads}));
    object.emplace_back("seed", JsonValue(spec.seed));
    object.emplace_back("budget", JsonValue(spec.budget));
    object.emplace_back("quantum", JsonValue(spec.quantum));
    object.emplace_back("weight", JsonValue(spec.weight));
    if (spec.snapshot_every != 0)
        object.emplace_back("snapshot_every", JsonValue(spec.snapshot_every));
    if (spec.telemetry) object.emplace_back("telemetry", JsonValue(true));
    if (!spec.name.empty()) object.emplace_back("name", JsonValue(spec.name));
    return JsonValue(std::move(object));
}

std::unique_ptr<TabulatedProtocol> build_protocol(const SessionSpec& spec) {
    if (spec.protocol == "epidemic") return make_epidemic_protocol();
    if (spec.protocol == "counting") return make_counting_protocol(spec.threshold);
    if (spec.protocol == "majority")
        // [ x_0 - x_1 < 0 ]: true iff the 1-voters outnumber the 0-voters
        // (same convention as the trace_run example).
        return make_threshold_protocol({1, -1}, 0);
    if (spec.protocol == "predicate") {
        const Formula formula = parse_formula(spec.predicate);
        const std::size_t num_symbols =
            std::max<std::size_t>(formula.num_variables(), spec.counts.size());
        return compile_formula(formula, num_symbols);
    }
    if (spec.protocol == "pavlov")
        return make_game_protocol(make_pavlov_prisoners_dilemma());
    throw std::invalid_argument("unknown protocol \"" + spec.protocol +
                                "\" (epidemic|counting|majority|predicate|pavlov)");
}

CountConfiguration build_initial(const TabulatedProtocol& protocol, const SessionSpec& spec) {
    require(spec.counts.size() <= protocol.num_input_symbols(),
            "'counts' has more entries than the protocol has input symbols");
    std::vector<std::uint64_t> counts = spec.counts;
    counts.resize(protocol.num_input_symbols(), 0);
    return CountConfiguration::from_input_counts(protocol, counts);
}

ScenarioSpec scenario_spec_from(const SessionSpec& spec) {
    ScenarioSpec scenario;
    scenario.model = spec.model;
    scenario.probe = spec.probe;
    scenario.phases = spec.phases;
    scenario.phase_length = spec.phase_length;
    scenario.torus_width = spec.torus_width;
    scenario.torus_height = spec.torus_height;
    scenario.radius = spec.radius;
    return scenario;
}

SimulationEngine parse_engine_name(const std::string& name) {
    if (name == "auto") return SimulationEngine::kAuto;
    if (name == "agent") return SimulationEngine::kAgentArray;
    if (name == "batch") return SimulationEngine::kCountBatch;
    if (name == "collapsed") return SimulationEngine::kCollapsedBatch;
    if (name == "adaptive") return SimulationEngine::kAdaptive;
    throw std::invalid_argument("unknown engine \"" + name +
                                "\" (auto|agent|batch|collapsed|adaptive)");
}

const char* session_state_name(SessionState state) {
    switch (state) {
        case SessionState::kQueued:
            return "queued";
        case SessionState::kRunning:
            return "running";
        case SessionState::kSuspended:
            return "suspended";
        case SessionState::kEvicted:
            return "evicted";
        case SessionState::kDone:
            return "done";
        case SessionState::kFailed:
            return "failed";
        case SessionState::kCancelled:
            return "cancelled";
    }
    return "unknown";
}

JsonValue session_status_to_json(const SessionStatus& status) {
    JsonValue::Object object;
    object.emplace_back("session", JsonValue(status.id));
    if (!status.name.empty()) object.emplace_back("name", JsonValue(status.name));
    object.emplace_back("state", JsonValue(std::string(session_state_name(status.state))));
    object.emplace_back("interactions", JsonValue(status.interactions));
    object.emplace_back("effective_interactions", JsonValue(status.effective_interactions));
    object.emplace_back("quanta", JsonValue(status.quanta));
    if (status.stop_reason) {
        object.emplace_back(
            "stop_reason", JsonValue(std::string(stop_reason_label(*status.stop_reason))));
        object.emplace_back("last_output_change", JsonValue(status.last_output_change));
        if (status.consensus)
            object.emplace_back("consensus", JsonValue(std::uint64_t{*status.consensus}));
        else
            object.emplace_back("consensus", JsonValue());
    }
    if (!status.error.empty()) object.emplace_back("error", JsonValue(status.error));
    return JsonValue(std::move(object));
}

}  // namespace popproto::service
