// The layered traced pass (--trace 1).  Every traced run visits every
// layer, so each per-layer metric is measured on every run whatever the
// workload: the three engine workloads run traced (the named one for a
// quarter of --seconds, the others for a few seeds), then the run-loop
// ladder, the compiler, the interaction models, the checkpoint store, the
// wire and a traced session mix.  The named workload is also run untraced
// on the same inputs, which prices the tracing itself.  Engine-layer
// numbers come from RunOptions::telemetry and are means per run.

#include <filesystem>
#include <functional>

#include "core/batch_simulator.h"
#include "core/run_loop.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "scenarios/scenario_spec.h"
#include "service/checkpoint_store.h"
#include "service/client.h"
#include "service/registry.h"
#include "service/wire.h"
#include "telemetry/prometheus.h"
#include "workloads.h"

namespace perfbench {

namespace {

using popproto::RunCheckpoint;
using popproto::RunOptions;
using popproto::RunResult;
using popproto::telemetry::Phase;
using popproto::telemetry::RunTelemetry;
using popproto::service::JsonValue;
using popproto::service::SessionSpec;

constexpr double kNsToS = 1e-9;

double phase_seconds(const RunTelemetry& telemetry, Phase phase) {
    return static_cast<double>(telemetry.phases[static_cast<std::size_t>(phase)].total_ns) *
           kNsToS;
}

/// Mean over the pass's runs of `f(telemetry)`.
double per_run(const EnginePass& pass, const std::function<double(const RunTelemetry&)>& f) {
    if (pass.telemetry.empty()) return 0.0;
    double total = 0.0;
    for (const auto& telemetry : pass.telemetry) total += f(*telemetry);
    return total / static_cast<double>(pass.telemetry.size());
}

double segment_seconds(const RunTelemetry& telemetry, const std::string& engine) {
    double total = 0.0;
    for (const auto& segment : telemetry.engine_segments) {
        if (segment.engine == engine) total += static_cast<double>(segment.wall_ns) * kNsToS;
    }
    return total;
}

Outcome outcome_of(const popproto::service::SessionStatus& status) {
    return {status.stop_reason ? stop_reason_name(*status.stop_reason) : "none",
            status.interactions, status.effective_interactions, status.last_output_change};
}

class NoopObserver final : public popproto::RunObserver {};

class DiscardSink final : public popproto::CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint&) override {}
};

class KeepLastSink final : public popproto::CheckpointSink {
public:
    void on_checkpoint(const RunCheckpoint& checkpoint) override { last = checkpoint; }
    std::optional<RunCheckpoint> last;
};

/// Adds ladder.<name>_ms: the median of `reps` timed calls of `body`, each
/// under a span, checking every outcome against `expected` into `result`.
void add_rung(SpanLog& spans, const std::string& name, int reps, const Outcome& expected,
              Result& result, const std::function<Outcome()>& body) {
    std::vector<double> ms;
    for (int rep = 0; rep < reps; ++rep) {
        const Span span(&spans, "ladder." + name, spans.new_group());
        const Clock::time_point start = Clock::now();
        const Outcome outcome = body();
        ms.push_back(seconds_since(start) * 1e3);
        result.check(outcome == expected);
    }
    result.add("ladder." + name + "_ms", median(ms), "ms");
}

JsonValue poll_until_done(popproto::service::ServiceClient& client, const std::string& id,
                          SpanLog& spans) {
    const std::string line =
        "{\"cmd\":\"status\",\"session\":" + popproto::service::json_quote(id) + "}";
    for (;;) {
        JsonValue status = [&] {
            const Span span(&spans, "wire.status");
            return popproto::service::parse_json(client.request(line));
        }();
        const JsonValue* state = status.find("state");
        if (state == nullptr) return status;
        const std::string& text = state->as_string("state");
        if (text != "queued" && text != "running") return status;
    }
}

/// A counter of the daemon's `stats` response ({"ok":true,"stats":{...}}).
std::uint64_t stats_field(const std::string& response, const char* key) {
    const JsonValue parsed = popproto::service::parse_json(response);
    const JsonValue* stats = parsed.find("stats");
    const JsonValue* value = stats != nullptr ? stats->find(key) : nullptr;
    if (value == nullptr) throw std::runtime_error(std::string("stats lacks ") + key);
    return value->as_u64(key);
}

}  // namespace

void traced_pass(const Args& args, Result& result) {
    SpanLog spans;
    SeedStream seeds(args.seed);
    const bool smoke = args.smoke;
    const double named_seconds = args.seconds / 4.0;
    double overhead_frac = 0.0;

    // --- core: the three engine workloads, traced --------------------------
    std::map<std::string, EnginePass> passes;
    std::shared_ptr<const RunTelemetry> sharded_telemetry;
    double parallel_efficiency = 0.0;
    for (const char* name : {"epidemic-serial", "epidemic-parallel", "predicate-serial"}) {
        const EngineWorkload workload = *engine_workload(name, smoke);
        const Span workload_span(&spans, name, spans.new_group());
        const EngineSetup setup = build_engine_setup(workload, &spans);
        // The named workload, and the sharded one (whose pool telemetry
        // slows it several-fold), also run untraced: the tracing overhead
        // and parallel.efficiency compare untraced times on equal seeds.
        const bool named = args.workload == name;
        const bool sharded = workload.threads > 1;
        EnginePass untraced, pass;
        if (named || sharded) {
            const int runs = named && !smoke ? 2 : 1;
            untraced = run_engine_pass(workload, setup, seeds, named ? named_seconds : 0.0, runs,
                                       named ? 1 << 20 : runs, args.inject_wrong, result,
                                       nullptr);
            pass = rerun_engine_seeds(workload, setup, untraced.seeds,
                                      engine_run_options(workload, 0), args.inject_wrong,
                                      result, &spans, "run_simulation",
                                      named ? named_seconds : 0.0);
        } else {
            const int runs = smoke ? 1 : (workload.predicate ? 4 : 3);
            pass = run_engine_pass(workload, setup, seeds, 0.0, runs, runs, args.inject_wrong,
                                   result, &spans);
        }
        if (named) {
            double untraced_seconds = 0.0;
            for (std::size_t run = 0; run < pass.run_seconds.size(); ++run)
                untraced_seconds += untraced.run_seconds[run];
            overhead_frac = pass.total_seconds() / untraced_seconds - 1.0;
        }
        if (sharded) {
            sharded_telemetry = pass.telemetry.back();
            RunOptions serial = engine_run_options(workload, 0);
            serial.threads = 1;
            serial.engine = popproto::SimulationEngine::kCollapsedBatch;
            const EnginePass serial_pass =
                rerun_engine_seeds(workload, setup, untraced.seeds, serial, args.inject_wrong,
                                   result, nullptr, "");
            parallel_efficiency = serial_pass.total_seconds() /
                                  (workload.threads * untraced.total_seconds());
        }
        passes.emplace(name, std::move(pass));
    }

    // Engine layers, each read from the workload that exercises it: the
    // collapsed and adaptive layers from epidemic-serial, count-batch from
    // predicate-serial, the pool from epidemic-parallel.
    const EnginePass& serial = passes.at("epidemic-serial");
    const EnginePass& predicate = passes.at("predicate-serial");
    const EnginePass& parallel = passes.at("epidemic-parallel");
    using Reader = std::function<double(const RunTelemetry&)>;
    const auto phase = [](Phase which) -> Reader {
        return [which](const RunTelemetry& t) { return phase_seconds(t, which); };
    };
    const auto segment = [](const char* engine) -> Reader {
        return [engine](const RunTelemetry& t) { return segment_seconds(t, engine); };
    };
    const auto shard_seconds = [](const RunTelemetry& t, bool busy) {
        std::uint64_t total = 0;
        for (const auto& shard : t.shards) total += busy ? shard.busy_ns : shard.wait_ns;
        return double(total) * kNsToS;
    };
    const Reader shard_busy = [&](const RunTelemetry& t) { return shard_seconds(t, true); };
    const Reader shard_wait = [&](const RunTelemetry& t) { return shard_seconds(t, false); };
    const struct {
        const char* name;
        const char* unit;
        const EnginePass& pass;
        Reader read;
    } engine_metrics[] = {
        {"collapsed.super_steps", "count", serial,
         [](const RunTelemetry& t) { return double(t.super_steps); }},
        {"collapsed.clamped_frac", "ratio", serial,
         [](const RunTelemetry& t) {
             return double(t.clamped_super_steps) /
                    double(std::max<std::uint64_t>(t.super_steps, 1));
         }},
        {"collapsed.run_length_draw_s", "s", serial, phase(Phase::kRunLengthDraw)},
        {"collapsed.apply_s", "s", serial, phase(Phase::kSuperStepApply)},
        {"adaptive.switches", "count", serial,
         [](const RunTelemetry& t) { return double(t.engine_switches); }},
        {"adaptive.collapsed_s", "s", serial, segment("collapsed")},
        {"adaptive.count_batch_s", "s", serial, segment("count_batch")},
        {"adaptive.switch_s", "s", serial, phase(Phase::kEngineSwitch)},
        {"count_batch.null_skips", "count", predicate,
         [](const RunTelemetry& t) { return double(t.geometric_skips); }},
        {"count_batch.stepping_s", "s", predicate, phase(Phase::kStepping)},
        {"count_batch.ns_per_effective", "ns", predicate,
         [](const RunTelemetry& t) {
             return double(t.phases[std::size_t(Phase::kStepping)].total_ns) /
                    double(std::max<std::uint64_t>(t.effective_interactions, 1));
         }},
        {"pool.rounds_pooled", "count", parallel,
         [](const RunTelemetry& t) { return double(t.pool_rounds); }},
        {"pool.rounds_inline", "count", parallel,
         [](const RunTelemetry& t) { return double(t.inline_rounds); }},
        {"pool.shard_busy_s", "s", parallel, shard_busy},
        {"pool.shard_wait_s", "s", parallel, shard_wait},
        {"parallel.shard_carve_s", "s", parallel, phase(Phase::kShardCarve)},
        {"parallel.shard_tasks_s", "s", parallel, phase(Phase::kShardTasks)},
        {"parallel.delta_merge_s", "s", parallel, phase(Phase::kDeltaMerge)},
    };
    for (const auto& entry : engine_metrics)
        result.add(entry.name, per_run(entry.pass, entry.read), entry.unit);
    const double busy_s = per_run(parallel, shard_busy);
    const double wait_s = per_run(parallel, shard_wait);
    result.add("pool.busy_share", busy_s + wait_s > 0 ? busy_s / (busy_s + wait_s) : 0.0, "ratio");
    result.add("parallel.efficiency", parallel_efficiency, "ratio");

    // --- presburger: parse + compile of the fever predicate ----------------
    {
        std::vector<double> compile_s;
        std::size_t states = 0;
        for (int rep = 0; rep < 5; ++rep) {
            const Span span(&spans, "presburger.compile", spans.new_group());
            const Clock::time_point start = Clock::now();
            const auto protocol =
                popproto::compile_formula(popproto::parse_formula(kFeverPredicate));
            compile_s.push_back(seconds_since(start));
            states = protocol->num_states();
        }
        result.add("presburger.compile_s", median(compile_s), "s");
        result.add("presburger.states", double(states), "count");
    }

    // --- scenarios: interaction-model cost on the short stream's epidemic --
    {
        const SessionSpec spec = stream_spec(Stream::kShort, 0, smoke);
        const auto protocol = popproto::service::build_protocol(spec);
        const auto initial = popproto::service::build_initial(*protocol, spec);
        const std::uint64_t n = initial.population_size();
        const int runs = smoke ? 2 : 8;
        const auto model_ns = [&](const std::string& model) {
            popproto::ScenarioSpec scenario;
            scenario.model = model;
            double seconds = 0.0;
            std::uint64_t interactions = 0;
            for (int run = 0; run < runs; ++run) {
                RunOptions options;
                options.seed = seeds.next();
                const Span span(&spans, "model." + model, spans.new_group());
                const Clock::time_point start = Clock::now();
                // The uniform model has no run_scenario name; its pairing
                // runs through simulate(), the agent-array entry point over
                // the same PairStepper.
                const RunResult run_result =
                    model == "uniform"
                        ? popproto::simulate(*protocol, initial, options)
                        : popproto::run_scenario(*protocol, initial, scenario, options);
                seconds += seconds_since(start);
                interactions += run_result.interactions;
                result.check(run_result.stop_reason == popproto::StopReason::kSilent &&
                             run_result.effective_interactions ==
                                 n - (args.inject_wrong ? 0 : 1));
            }
            return seconds / double(std::max<std::uint64_t>(interactions, 1)) * 1e9;
        };
        result.add("model.uniform_ns_per_interaction", model_ns("uniform"), "ns");
        result.add("model.adversarial_ns_per_interaction", model_ns("adversarial"), "ns");
    }

    // --- core run-loop ladder on the sliced spec, in-process rungs ---------
    const SessionSpec sliced = stream_spec(Stream::kSliced, seeds.next(), smoke);
    const auto sliced_protocol = popproto::service::build_protocol(sliced);
    const auto sliced_initial = popproto::service::build_initial(*sliced_protocol, sliced);
    RunOptions direct;
    direct.seed = sliced.seed;
    direct.max_interactions = sliced.budget;
    direct.engine = popproto::service::parse_engine_name(sliced.engine);
    const Outcome expected = [&] {
        Outcome outcome = outcome_of(popproto::run_simulation(*sliced_protocol, sliced_initial,
                                                              direct));
        if (args.inject_wrong) ++outcome.interactions;
        return outcome;
    }();
    const int reps = smoke ? 2 : 9;
    const auto run_direct = [&](const RunOptions& options) {
        return outcome_of(popproto::run_simulation(*sliced_protocol, sliced_initial, options));
    };
    const auto rung = [&](const std::string& name, const std::function<Outcome()>& body) {
        add_rung(spans, name, reps, expected, result, body);
    };
    rung("direct", [&] { return run_direct(direct); });
    NoopObserver observer;
    RunOptions observed = direct;
    observed.observer = &observer;
    observed.snapshots = popproto::SnapshotSchedule::every(sliced.quantum / 4);
    rung("observer", [&] { return run_direct(observed); });
    popproto::telemetry::RunTelemetryCollector collector;
    RunOptions collected = observed;
    collected.telemetry = &collector;
    rung("telemetry", [&] { return run_direct(collected); });
    DiscardSink discard;
    RunOptions checkpointed = collected;
    checkpointed.checkpoint_every = sliced.quantum;
    checkpointed.checkpoint_sink = &discard;
    rung("checkpoint", [&] { return run_direct(checkpointed); });
    rung("sliced", [&] {
        KeepLastSink keep;
        RunCheckpoint resume_point;
        RunOptions segment = checkpointed;
        segment.checkpoint_sink = &keep;
        for (std::uint64_t k = 1;; ++k) {
            segment.pause_after = k * sliced.quantum;
            const RunResult run =
                popproto::run_simulation(*sliced_protocol, sliced_initial, segment);
            if (run.stop_reason != popproto::StopReason::kPaused) return outcome_of(run);
            resume_point = std::move(*keep.last);
            segment.resume_from = &resume_point;
        }
    });
    {
        popproto::service::RegistryOptions options;
        options.workers = 1;
        options.spill_dir = "ladder-registry";
        std::filesystem::remove_all(options.spill_dir);
        popproto::service::RunRegistry registry(options);
        rung("registry", [&] {
            const std::string id = registry.submit(sliced);
            registry.wait_idle();
            return outcome_of(registry.status(id));
        });
    }
    std::filesystem::remove_all("ladder-registry");

    // --- service checkpoint store: spill and fault an evicted checkpoint ---
    {
        KeepLastSink keep;
        RunOptions first_quantum = direct;
        first_quantum.checkpoint_sink = &keep;
        first_quantum.pause_after = sliced.quantum;
        popproto::run_simulation(*sliced_protocol, sliced_initial, first_quantum);
        const RunCheckpoint checkpoint = *keep.last;
        std::filesystem::remove_all("store");
        const popproto::service::CheckpointStore store("store");
        std::vector<double> spill_ms, fault_ms;
        for (int rep = 0; rep < reps; ++rep) {
            const std::uint64_t group = spans.new_group();
            {
                const Span span(&spans, "store.save_checkpoint", group);
                const Clock::time_point start = Clock::now();
                store.save_checkpoint("s-1", checkpoint);
                spill_ms.push_back(seconds_since(start) * 1e3);
            }
            const Span span(&spans, "store.load_checkpoint", group);
            const Clock::time_point start = Clock::now();
            const RunCheckpoint loaded = store.load_checkpoint("s-1");
            fault_ms.push_back(seconds_since(start) * 1e3);
            result.check((loaded == checkpoint) != args.inject_wrong);
        }
        result.add("store.spill_ms", median(spill_ms), "ms");
        result.add("store.fault_ms", median(fault_ms), "ms");
        result.add("store.bytes", double(std::filesystem::file_size(store.checkpoint_path("s-1"))),
               "bytes");
        std::filesystem::remove_all("store");
    }

    // --- service wire: in-process parse + dispatch of a status request -----
    {
        popproto::service::RegistryOptions options;
        options.spill_dir = "wire-registry";
        std::filesystem::remove_all(options.spill_dir);
        popproto::service::RunRegistry registry(options);
        const std::string id = registry.submit(stream_spec(Stream::kShort, seeds.next(), smoke));
        registry.wait_idle();
        const std::string line =
            "{\"cmd\":\"status\",\"session\":" + popproto::service::json_quote(id) + "}";
        std::vector<double> us;
        const int calls = smoke ? 50 : 500;
        for (int batch = 0; batch < reps; ++batch) {
            const Span span(&spans, "wire.dispatch", spans.new_group());
            const Clock::time_point start = Clock::now();
            bool ok = true;
            for (int call = 0; call < calls; ++call) {
                const auto response = popproto::service::dispatch_request(
                    registry, popproto::service::parse_request(line));
                ok = ok && response.has_value() && response->find("\"done\"") != std::string::npos;
            }
            us.push_back(seconds_since(start) * 1e6 / calls);
            result.check(ok);
        }
        result.add("wire.dispatch_us", median(us), "us");
    }
    std::filesystem::remove_all("wire-registry");

    // --- service over the socket: ladder top rung, then the session mix ----
    {
        MixOutcome untraced;
        if (args.workload == "service-mix") {
            const Daemon daemon(args.daemon, "untraced.sock", "untraced-spill", kDaemonWorkers);
            untraced = run_service_mix(daemon, seeds, named_seconds, smoke, args.inject_wrong,
                                       result, nullptr);
        }
        const Daemon daemon(args.daemon, "traced.sock", "traced-spill", kDaemonWorkers);
        {
            auto client = popproto::service::ServiceClient::connect_unix(daemon.socket());
            const std::string request = submit_line(sliced);
            rung("socket", [&] {
                const JsonValue response = [&] {
                    const Span span(&spans, "wire.submit");
                    return popproto::service::parse_json(client.request(request));
                }();
                const JsonValue* session = response.find("session");
                if (session == nullptr) return Outcome{};
                return outcome_of(poll_until_done(client, session->as_string("session"), spans));
            });
        }
        std::string before;
        {
            auto client = popproto::service::ServiceClient::connect_unix(daemon.socket());
            before = client.request("{\"cmd\":\"stats\"}");
        }
        const MixOutcome mix = run_service_mix(
            daemon, seeds, args.workload == "service-mix" ? named_seconds : (smoke ? 0.5 : 1.5),
            smoke, args.inject_wrong, result, &spans);
        if (args.workload == "service-mix")
            overhead_frac = median(mix.session_ms) / median(untraced.session_ms) - 1.0;

        const auto delta = [&](const char* key) {
            return double(stats_field(mix.stats_json, key) - stats_field(before, key));
        };
        result.add("registry.quanta", delta("quanta"), "count");
        result.add("registry.quanta_per_session",
                   delta("quanta") / std::max(delta("submitted"), 1.0), "ratio");
        result.add("registry.evictions", delta("evictions"), "count");
        result.add("registry.faults", delta("faults"), "count");
        for (int stream = 0; stream < kNumStreams; ++stream) {
            const std::string name = stream_name(static_cast<Stream>(stream));
            result.add("stream." + name + "_ms_p50", median(mix.stream_ms[stream]), "ms");
        }
        result.add("wire.submit_rtt_ms", median(mix.submit_rtt_ms), "ms");
        result.add("wire.status_rtt_ms", median(mix.status_rtt_ms), "ms");
        result.add("wire.rejected", double(mix.rejected), "count");
    }
    result.add("trace.overhead_frac", overhead_frac, "ratio");

    // --- write the spans (and one sharded run's Prometheus exposition) -----
    std::filesystem::create_directories("trace");
    const std::string base = "trace/" + args.workload + "-" + std::to_string(args.seed);
    const std::optional<EngineWorkload> named = engine_workload(args.workload, smoke);
    spans.write_chrome_trace(
        base + ".trace.json",
        {{"schema_version", "1"},
         {"engine", "\"perfbench\""},
         {"population", std::to_string(named ? named->population : 0)},
         {"threads", std::to_string(parallel_threads())},
         {"workload", "\"" + args.workload + "\""},
         {"seed", std::to_string(args.seed)}},
        {{0, "main"}, {1, "connection 1"}, {2, "connection 2"}});
    if (sharded_telemetry)
        popproto::telemetry::write_prometheus_file(base + ".prom", *sharded_telemetry);
    std::fprintf(stderr, "perfbench: trace written to %s.trace.json\n", base.c_str());
}

}  // namespace perfbench
