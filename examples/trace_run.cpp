// trace_run: stream one simulated run as JSONL for plotting.
//
// Runs a built-in protocol — or any protocol compiled from a
// quantifier-free Presburger predicate — under any engine or scenario model
// with a snapshot schedule and writes the trace to stdout, one JSON object per
// line — pipe it into jq/python for trajectory plots (README.md shows a
// matplotlib one-liner).  Long runs can be suspended and resumed: with
// --checkpoint the run continuously overwrites a checkpoint file, and
// --resume continues bit-identically from such a file (same protocol,
// population, and topology flags required; the engine is inferred from the
// file).
//
//   trace_run [protocol] [flags]
//
//   protocol     epidemic (default) | counting | majority
//   --predicate F  compile predicate F (presburger/parser.h syntax, e.g.
//                  'x0 - 19*x1 < 1') instead of a built-in protocol; the
//                  population reads input symbol i as variable x_i
//   --n N        population size                      (default 256)
//   --ones K     agents with input 1 (infected seeds, fevered birds,
//                majority-"1" voters)                 (default 1)
//   --counts C   comma-separated per-input-symbol counts (e.g. 40,25,3);
//                replaces --n/--ones for multi-variable predicates
//   --seed S     RNG seed                             (default 1)
//   --budget B   max interactions                     (default: default_budget(n))
//   --engine E   batch (default) | collapsed | agent | weighted | graph |
//                adaptive
//                (collapsed batches ~sqrt(n) interactions per super-step —
//                prefer it at n >= 2^20; weighted runs with unit weights;
//                graph activates uniform random edges of --graph and never
//                falls silent; adaptive takes a collapsed super-step while
//                the effective-pair density signal is at the crossover and
//                a batch step below it)
//   --adaptive   shorthand for --engine adaptive
//   --switch-thresholds X
//                adaptive crossover x*, the one threshold of both switch
//                directions: super-steps while the signal rho*T >= X,
//                batch steps below (default 12)
//   --threads K  intra-run worker threads (collapsed engine only; 0 = all
//                hardware threads, default 1).  Fixed (seed, K) runs are
//                bit-identical; different K agree in distribution only.
//   --graph G    complete | ring | line | star        (default ring;
//                only with --engine graph)
//   --model M    run a scenario pairing model instead of an engine:
//                round_robin | sweep | adversarial | dynamic_graph |
//                grid_mobility (run_scenario; conflicts with --engine)
//   --probe N    adversarial null-interaction look-ahead  (default 16)
//   --phases A,B,...  dynamic_graph phase topologies (complete, ring,
//                line, star); required for that model
//   --phase-length N  dynamic_graph interactions per phase (default 4n)
//   --torus WxH  grid_mobility torus dimensions (default: smallest
//                square with at least 2n cells)
//   --radius R   grid_mobility Chebyshev contact radius   (default 1)
//   --every P    fixed snapshot period                (default: n / 4)
//   --log F      log-spaced snapshot factor instead of --every
//   --checkpoint FILE      keep FILE updated with the latest checkpoint;
//                          SIGINT/SIGTERM then write one final checkpoint
//                          and exit cleanly instead of killing the run
//   --checkpoint-every N   checkpoint period          (default: budget / 16)
//   --resume FILE          resume from a checkpoint file (seed is ignored;
//                          the file carries the exact RNG position)
//   --no-counts  omit count vectors (indices and events only)
//   --metrics    append the MetricsCollector JSON aggregate to stderr
//   --profile BASE  collect runtime telemetry (telemetry/telemetry.h) and
//                write BASE.trace.json (Chrome trace-event format, loads in
//                chrome://tracing and Perfetto) plus BASE.prom (Prometheus
//                text exposition: per-phase timings, per-shard busy/wait);
//                also emits a "telemetry" JSONL event before "stop"
//   --progress   stderr progress line (interactions/s, estimated n·ln n
//                completion fraction, ETA), at most one per second
//
// Examples:
//   trace_run epidemic --n 1000 --every 500            > epidemic.jsonl
//   trace_run counting --n 65536 --ones 7 --log 1.2    > counting.jsonl
//   trace_run --predicate '2 x0 + x1 = 1 mod 3' --counts 50,14 > mod3.jsonl
//   trace_run counting --n 65536 --checkpoint run.ckpt > part1.jsonl
//   trace_run counting --n 65536 --resume run.ckpt     > part2.jsonl

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_simulator.h"
#include "core/observer.h"
#include "core/run_loop.h"
#include "core/simulator.h"
#include "graphs/graph_simulation.h"
#include "graphs/interaction_graph.h"
#include "observe/jsonl_writer.h"
#include "observe/metrics.h"
#include "presburger/atom_protocols.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "scenarios/adversarial.h"
#include "scenarios/games.h"
#include "scenarios/scenario_spec.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/prometheus.h"
#include "telemetry/telemetry.h"

namespace {

using namespace popproto;

[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr, "trace_run: %s\n", message.c_str());
    std::fprintf(stderr,
                 "usage: trace_run [epidemic|counting|majority|pavlov] [--predicate F] [--n N]\n"
                 "                 [--ones K] [--counts C0,C1,...] [--seed S] [--budget B]\n"
                 "                 [--engine batch|collapsed|agent|weighted|graph|adaptive]\n"
                 "                 [--adaptive] [--switch-thresholds X]\n"
                 "                 [--threads K] [--graph complete|ring|line|star]\n"
                 "                 [--model round_robin|sweep|adversarial|dynamic_graph|"
                 "grid_mobility]\n"
                 "                 [--probe N] [--phases A,B,...] [--phase-length N]\n"
                 "                 [--torus WxH] [--radius R]\n"
                 "                 [--every P | --log F]\n"
                 "                 [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n"
                 "                 [--no-counts] [--metrics] [--profile BASE] [--progress]\n");
    std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') usage_error(std::string(flag) + ": not a number: " + text);
    return value;
}

double parse_double(const char* flag, const char* text) {
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0') usage_error(std::string(flag) + ": not a number: " + text);
    return value;
}

std::vector<std::uint64_t> parse_count_list(const char* flag, const std::string& text) {
    std::vector<std::uint64_t> counts;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        const std::string item =
            text.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        counts.push_back(parse_u64(flag, item.c_str()));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return counts;
}

/// Persists the latest checkpoint via the shared atomic tmp+rename helper
/// (core/run_loop.h), so an interrupt mid-write never clobbers the last
/// good checkpoint.
class FileCheckpointSink final : public CheckpointSink {
public:
    explicit FileCheckpointSink(std::string path) : path_(std::move(path)) {}

    void on_checkpoint(const RunCheckpoint& checkpoint) override {
        try {
            write_checkpoint_atomic(path_, checkpoint);
        } catch (const std::exception& error) {
            std::fprintf(stderr, "trace_run: %s\n", error.what());
            std::exit(1);
        }
    }

private:
    std::string path_;
};

/// SIGINT/SIGTERM request a cooperative stop: the kernel polls this flag at
/// loop boundaries, writes one final checkpoint through the sink above, and
/// returns StopReason::kPaused — so an interrupted --checkpoint run always
/// leaves a resumable file instead of dying mid-run.
std::atomic<bool> g_stop_requested{false};

extern "C" void handle_stop_signal(int) { g_stop_requested.store(true); }

/// Background stderr progress reporter for --progress: polls the telemetry
/// collector's live interaction counter (a relaxed atomic published by the
/// run loop) once per second and prints rate, the estimated completion
/// fraction against the n·ln n epidemic-style convergence scale, and an ETA
/// extrapolated from the current rate.  Never touches the run itself.
class ProgressReporter {
public:
    ProgressReporter(const telemetry::RunTelemetryCollector& collector, std::uint64_t n)
        : collector_(collector),
          expected_(static_cast<double>(n) *
                    std::log(static_cast<double>(n > 2 ? n : 3))),
          thread_([this] { loop(); }) {}

    ~ProgressReporter() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
    }

private:
    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        std::uint64_t last_t = 0;
        std::uint64_t last_ns = 0;
        while (!wake_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; })) {
            const std::uint64_t t = collector_.live_interactions();
            const std::uint64_t now_ns = collector_.now_ns();
            if (now_ns <= last_ns) continue;  // the clock has not advanced
            const double rate =
                static_cast<double>(t - last_t) / (static_cast<double>(now_ns - last_ns) / 1e9);
            const double fraction =
                std::min(1.0, static_cast<double>(t) / (expected_ > 1.0 ? expected_ : 1.0));
            std::string eta = "?";
            if (rate > 0.0) {
                const double remaining = expected_ - static_cast<double>(t);
                eta = remaining <= 0.0
                          ? "0s"
                          : std::to_string(static_cast<std::uint64_t>(remaining / rate)) + "s";
            }
            std::fprintf(stderr,
                         "trace_run: progress t=%llu (%.3g interactions/s) "
                         "n·ln n fraction=%.2f eta=%s\n",
                         static_cast<unsigned long long>(t), rate, fraction, eta.c_str());
            last_t = t;
            last_ns = now_ns;
        }
    }

    const telemetry::RunTelemetryCollector& collector_;
    const double expected_;  // n ln n, the coupon-collector convergence scale
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/// The run_simulation engine behind an --engine name other than weighted
/// and graph (those two take per-agent inputs through their own entry
/// points).
SimulationEngine complete_graph_engine(const std::string& name) {
    if (name == "agent") return SimulationEngine::kAgentArray;
    if (name == "collapsed") return SimulationEngine::kCollapsedBatch;
    if (name == "adaptive") return SimulationEngine::kAdaptive;
    return SimulationEngine::kCountBatch;  // "batch"
}

/// Expands per-input-symbol counts into a per-agent input vector (for the
/// engines that address individual agents).
std::vector<Symbol> expand_inputs(const std::vector<std::uint64_t>& input_counts) {
    std::vector<Symbol> inputs;
    for (Symbol symbol = 0; symbol < input_counts.size(); ++symbol)
        inputs.insert(inputs.end(), input_counts[symbol], symbol);
    return inputs;
}

}  // namespace

int main(int argc, char** argv) {
    std::string protocol_name = "epidemic";
    std::string predicate;
    std::vector<std::uint64_t> input_counts;  // --counts; empty = use --n/--ones
    std::uint64_t n = 256;
    std::uint64_t ones = 1;
    std::uint64_t seed = 1;
    std::uint64_t budget = 0;       // 0 = default_budget(n)
    std::uint64_t every = 0;        // 0 = n / 4
    double log_factor = 0.0;        // 0 = use --every
    std::string engine_name;        // empty = batch, or inferred from --resume
    AdaptiveOptions adaptive_tuning;   // --switch-thresholds
    bool adaptive_tuning_given = false;
    std::uint64_t threads = 1;      // --threads; 0 = hardware concurrency
    bool threads_given = false;
    std::string graph_name = "ring";
    ScenarioSpec scenario;              // --model et al.; scenario.model empty = engines
    std::string checkpoint_path;
    std::uint64_t checkpoint_every = 0;  // 0 = budget / 16
    std::string resume_path;
    bool write_counts = true;
    bool print_metrics = false;
    std::string profile_base;
    bool show_progress = false;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage_error(std::string(arg) + ": missing value");
            return argv[++i];
        };
        if (std::strcmp(arg, "--n") == 0) {
            n = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--ones") == 0) {
            ones = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--counts") == 0) {
            input_counts = parse_count_list(arg, next());
        } else if (std::strcmp(arg, "--predicate") == 0) {
            predicate = next();
        } else if (std::strcmp(arg, "--seed") == 0) {
            seed = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--budget") == 0) {
            budget = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--every") == 0) {
            every = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--log") == 0) {
            log_factor = parse_double(arg, next());
        } else if (std::strcmp(arg, "--engine") == 0) {
            engine_name = next();
            if (engine_name != "batch" && engine_name != "collapsed" &&
                engine_name != "agent" && engine_name != "weighted" &&
                engine_name != "graph" && engine_name != "adaptive")
                usage_error("--engine: expected batch, collapsed, agent, weighted, graph, or "
                            "adaptive, got " + engine_name);
        } else if (std::strcmp(arg, "--adaptive") == 0) {
            engine_name = "adaptive";
        } else if (std::strcmp(arg, "--switch-thresholds") == 0) {
            adaptive_tuning.crossover = parse_double(arg, next());
            adaptive_tuning_given = true;
        } else if (std::strcmp(arg, "--threads") == 0) {
            threads = parse_u64(arg, next());
            threads_given = true;
        } else if (std::strcmp(arg, "--graph") == 0) {
            graph_name = next();
        } else if (std::strcmp(arg, "--model") == 0) {
            scenario.model = next();
            const auto& names = scenario_model_names();
            if (std::find(names.begin(), names.end(), scenario.model) == names.end())
                usage_error("--model: expected round_robin, sweep, adversarial, "
                            "dynamic_graph, or grid_mobility, got " + scenario.model);
        } else if (std::strcmp(arg, "--probe") == 0) {
            scenario.probe = parse_u64(arg, next());
            if (scenario.probe > AdversarialCoverModel::kMaxProbeWindow)
                usage_error("--probe: at most 65536 (the adversarial probe window cap), got " +
                            std::to_string(scenario.probe));
        } else if (std::strcmp(arg, "--phases") == 0) {
            const std::string list = next();
            std::size_t start = 0;
            while (start <= list.size()) {
                std::size_t comma = list.find(',', start);
                if (comma == std::string::npos) comma = list.size();
                scenario.phases.push_back(list.substr(start, comma - start));
                start = comma + 1;
            }
        } else if (std::strcmp(arg, "--phase-length") == 0) {
            scenario.phase_length = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--torus") == 0) {
            const std::string dims = next();
            const std::size_t x = dims.find('x');
            if (x == std::string::npos) usage_error("--torus: expected WxH");
            scenario.torus_width = parse_u64(arg, dims.substr(0, x).c_str());
            scenario.torus_height = parse_u64(arg, dims.substr(x + 1).c_str());
        } else if (std::strcmp(arg, "--radius") == 0) {
            scenario.radius = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--checkpoint") == 0) {
            checkpoint_path = next();
        } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
            checkpoint_every = parse_u64(arg, next());
        } else if (std::strcmp(arg, "--resume") == 0) {
            resume_path = next();
        } else if (std::strcmp(arg, "--no-counts") == 0) {
            write_counts = false;
        } else if (std::strcmp(arg, "--metrics") == 0) {
            print_metrics = true;
        } else if (std::strcmp(arg, "--profile") == 0) {
            profile_base = next();
        } else if (std::strcmp(arg, "--progress") == 0) {
            show_progress = true;
        } else if (arg[0] == '-') {
            usage_error(std::string("unknown flag ") + arg);
        } else {
            protocol_name = arg;
        }
    }

    std::unique_ptr<TabulatedProtocol> protocol;
    if (!predicate.empty()) {
        try {
            const Formula formula = parse_formula(predicate);
            const std::size_t num_symbols =
                std::max<std::size_t>(formula.num_variables(),
                                      input_counts.empty() ? 2 : input_counts.size());
            protocol = compile_formula(formula, num_symbols);
        } catch (const std::exception& error) {
            usage_error(std::string("--predicate: ") + error.what());
        }
    } else if (protocol_name == "epidemic") {
        protocol = make_epidemic_protocol();
    } else if (protocol_name == "counting") {
        protocol = make_counting_protocol(5);
    } else if (protocol_name == "pavlov") {
        protocol = make_game_protocol(make_pavlov_prisoners_dilemma());
    } else if (protocol_name == "majority") {
        // [ x_0 - x_1 < 0 ]: true iff the 1-voters outnumber the 0-voters.
        protocol = make_threshold_protocol({1, -1}, 0);
    } else {
        usage_error("unknown protocol " + protocol_name);
    }

    if (input_counts.empty()) {
        if (n < 2) usage_error("--n: need at least 2 agents");
        if (ones > n) usage_error("--ones: cannot exceed --n");
        input_counts.assign(protocol->num_input_symbols(), 0);
        input_counts[0] = n - ones;
        if (ones > 0) {
            if (protocol->num_input_symbols() < 2)
                usage_error("--ones: protocol has a single input symbol; use --counts");
            input_counts[1] = ones;
        }
    } else {
        if (input_counts.size() != protocol->num_input_symbols())
            usage_error("--counts: expected " + std::to_string(protocol->num_input_symbols()) +
                        " comma-separated entries");
        n = 0;
        for (std::uint64_t count : input_counts) n += count;
        if (n < 2) usage_error("--counts: need at least 2 agents in total");
    }
    const auto initial = CountConfiguration::from_input_counts(*protocol, input_counts);

    // Resuming: load the checkpoint up front so the engine can be inferred
    // from (or validated against) the file.
    RunCheckpoint resume_checkpoint;
    if (!resume_path.empty()) {
        std::ifstream in(resume_path);
        if (!in) usage_error("--resume: cannot open " + resume_path);
        try {
            resume_checkpoint = read_checkpoint(in);
        } catch (const std::exception& error) {
            usage_error("--resume: " + resume_path + ": " + error.what());
        }
        std::string file_engine;
        std::string file_model;
        switch (resume_checkpoint.engine) {
            case ObservedEngine::kAgentArray: file_engine = "agent"; break;
            case ObservedEngine::kCountBatch: file_engine = "batch"; break;
            case ObservedEngine::kCollapsed: file_engine = "collapsed"; break;
            case ObservedEngine::kParallelCollapsed: file_engine = "collapsed"; break;
            case ObservedEngine::kWeighted: file_engine = "weighted"; break;
            case ObservedEngine::kGraph: file_engine = "graph"; break;
            case ObservedEngine::kAdaptive: file_engine = "adaptive"; break;
            case ObservedEngine::kPairModel:
                // run_scenario checkpoints carry the model name; structural
                // parameters (phases, torus size) are not in the file, so
                // the resume command must repeat them.
                file_model = resume_checkpoint.interaction_model;
                break;
        }
        // A parallel-collapsed checkpoint fixes the shard count; infer
        // --threads from the file (and reject a conflicting explicit value
        // here, where the message can name both numbers).  One stopped
        // before its first super-step carved the streams records none, and
        // --threads names the count.
        const std::uint64_t file_threads = resume_checkpoint.shard_rngs.size();
        if (resume_checkpoint.engine == ObservedEngine::kParallelCollapsed && file_threads == 0) {
            if (!threads_given || threads < 2)
                usage_error("--resume: " + resume_path +
                            " was stopped before its shard streams were carved; give --threads "
                            "(at least 2)");
        } else if (resume_checkpoint.engine == ObservedEngine::kParallelCollapsed) {
            if (threads_given && threads != file_threads)
                usage_error("--resume: " + resume_path + " was taken with " +
                            std::to_string(file_threads) + " threads, but --threads requests " +
                            std::to_string(threads));
            threads = file_threads;
        } else if (threads_given && threads > 1) {
            usage_error("--resume: " + resume_path +
                        " was taken by a serial engine; drop --threads to resume it");
        }
        if (!file_model.empty()) {
            if (!engine_name.empty())
                usage_error("--resume: " + resume_path + " was taken by the " + file_model +
                            " scenario model; drop --engine to resume it");
            if (scenario.model.empty())
                scenario.model = file_model;
            else if (scenario.model != file_model)
                usage_error("--resume: " + resume_path + " was taken by the " + file_model +
                            " model, but --model requests " + scenario.model);
        } else if (!scenario.model.empty()) {
            usage_error("--resume: " + resume_path + " was taken by the " + file_engine +
                        " engine, but --model requests " + scenario.model);
        } else if (engine_name.empty()) {
            engine_name = file_engine;
        } else if (engine_name != file_engine) {
            usage_error("--resume: " + resume_path + " was taken by the " + file_engine +
                        " engine, but --engine requests " + engine_name);
        }
    }
    if (!scenario.model.empty() && !engine_name.empty())
        usage_error("--model conflicts with --engine (scenarios pick their own pairing)");
    if (engine_name.empty() && scenario.model.empty()) engine_name = "batch";

    if (threads > 1 && engine_name != "collapsed")
        usage_error("--threads: only --engine collapsed runs with more than one thread");
    if (adaptive_tuning_given && engine_name != "adaptive")
        usage_error("--switch-thresholds: requires --engine adaptive (or --adaptive)");

    RunOptions options;
    options.max_interactions = budget != 0 ? budget : default_budget(n);
    options.seed = seed;
    options.threads = static_cast<unsigned>(threads);
    options.snapshots = log_factor != 0.0
                            ? SnapshotSchedule::log_spaced(log_factor)
                            : SnapshotSchedule::every(every != 0 ? every : std::max<std::uint64_t>(
                                                                               n / 4, 1));
    if (!resume_path.empty()) options.resume_from = &resume_checkpoint;
    options.adaptive = adaptive_tuning;

    std::unique_ptr<FileCheckpointSink> sink;
    if (!checkpoint_path.empty()) {
        sink = std::make_unique<FileCheckpointSink>(checkpoint_path);
        options.checkpoint_sink = sink.get();
        options.checkpoint_every = checkpoint_every != 0
                                       ? checkpoint_every
                                       : std::max<std::uint64_t>(options.max_interactions / 16, 1);
        // With a checkpoint file configured, SIGINT/SIGTERM flush one final
        // checkpoint and exit cleanly instead of dying mid-run.
        options.stop_flag = &g_stop_requested;
        std::signal(SIGINT, handle_stop_signal);
        std::signal(SIGTERM, handle_stop_signal);
    } else if (checkpoint_every != 0) {
        usage_error("--checkpoint-every: requires --checkpoint FILE");
    }

    JsonlTraceWriter writer(std::cout);
    writer.set_write_counts(write_counts);
    MetricsCollector metrics;
    TeeObserver tee({&writer, &metrics});
    options.observer = print_metrics ? static_cast<RunObserver*>(&tee) : &writer;

    telemetry::RunTelemetryCollector collector;
    if (!profile_base.empty() || show_progress) options.telemetry = &collector;
    std::unique_ptr<ProgressReporter> progress;
    if (show_progress) progress = std::make_unique<ProgressReporter>(collector, n);

    RunResult result{CountConfiguration(protocol->num_states()), StopReason::kBudget, 0, 0, 0,
                     std::nullopt, ObservedEngine::kAgentArray, nullptr, {}};
    if (!scenario.model.empty()) {
        result = run_scenario(*protocol, initial, scenario, options);
    } else if (engine_name == "weighted") {
        // Unit weights demonstrate the inverse-CDF sampler; the distribution
        // coincides with `agent` but the RNG stream (and so the trajectory)
        // differs.
        const auto agents = AgentConfiguration::from_counts(initial);
        const std::vector<double> weights(agents.size(), 1.0);
        result = simulate_weighted(*protocol, agents, weights, options);
    } else if (engine_name == "graph") {
        if (n > std::uint32_t(-1)) usage_error("--engine graph: population must fit 32 bits");
        const InteractionGraph graph = [&] {
            try {
                return make_named_topology(graph_name, static_cast<std::uint32_t>(n));
            } catch (const std::invalid_argument& error) {
                usage_error(std::string("--graph: ") + error.what());
            }
        }();
        const GraphRunResult graph_result =
            simulate_on_graph(*protocol, graph, expand_inputs(input_counts), options);
        result = RunResult{graph_result.final_configuration.to_counts(protocol->num_states()),
                           graph_result.stop_reason, graph_result.interactions,
                           graph_result.effective_interactions,
                           graph_result.last_output_change, graph_result.consensus,
                           ObservedEngine::kGraph, nullptr, {}};
    } else {
        options.engine = complete_graph_engine(engine_name);
        result = run_simulation(*protocol, initial, options);
    }
    progress.reset();  // final join before the exports touch the collector

    if (!profile_base.empty()) {
        const telemetry::RunTelemetry& data = collector.telemetry();
        const std::string trace_path = profile_base + ".trace.json";
        const std::string prom_path = profile_base + ".prom";
        try {
            telemetry::write_chrome_trace_file(trace_path, data);
            telemetry::write_prometheus_file(prom_path, data);
        } catch (const std::exception& error) {
            std::fprintf(stderr, "trace_run: --profile: %s\n", error.what());
            return 1;
        }
        std::fprintf(stderr, "trace_run: wrote %s and %s\n%s", trace_path.c_str(),
                     prom_path.c_str(), data.to_string().c_str());
    }

    if (print_metrics) std::fprintf(stderr, "%s\n", metrics.report().to_json().c_str());
    if (result.stop_reason == StopReason::kPaused) {
        std::fprintf(stderr,
                     "trace_run: interrupted at t=%llu; checkpoint saved to %s "
                     "(continue with --resume %s)\n",
                     static_cast<unsigned long long>(result.interactions),
                     checkpoint_path.c_str(), checkpoint_path.c_str());
        return 0;
    }
    return result.interactions > 0 ? 0 : 1;
}
