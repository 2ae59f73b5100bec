// perfbench: one pass of one workload of the repository benchmark.
//
//   perfbench --workload W --seed S --seconds T --trace 0|1
//                    --daemon PATH --workdir DIR [--smoke] [--inject-wrong]
//
// --trace 0 measures the end-to-end metrics of W untraced; --trace 1 runs
// the layered traced pass and prints every per-layer metric.  The last
// stdout line is the result object {"correct", "attempted", "failed",
// "metrics"}; the line before it stamps the provenance (nproc, build type,
// LTO, thread and worker counts, seed).  perfbench/run.py builds this
// binary and is the command to run; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char* kWorkloads[] = {"epidemic-serial", "epidemic-parallel", "predicate-serial",
                                      "service-mix"};

#ifdef NDEBUG
constexpr bool kRelease = true;
#else
constexpr bool kRelease = false;
#endif
#ifdef POPPROTO_LTO
constexpr bool kLto = true;
#else
constexpr bool kLto = false;
#endif

[[noreturn]] void usage(const std::string& message) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed S --seconds T --trace 0|1\n"
                 "                        --daemon PATH --workdir DIR [--smoke] "
                 "[--inject-wrong]\n",
                 message.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(flag + ": missing value");
            return argv[++i];
        };
        try {
            if (flag == "--workload") {
                args.workload = value();
            } else if (flag == "--seed") {
                args.seed = std::stoull(value());
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value());
            } else if (flag == "--trace") {
                args.trace = std::stoi(value()) != 0;
            } else if (flag == "--daemon") {
                args.daemon = std::filesystem::absolute(value()).string();
            } else if (flag == "--workdir") {
                args.workdir = value();
            } else if (flag == "--smoke") {
                args.smoke = true;
            } else if (flag == "--inject-wrong") {
                args.inject_wrong = true;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage(flag + ": bad value");
        }
    }
    bool known = false;
    for (const char* name : kWorkloads) known = known || args.workload == name;
    if (!known) usage("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    if (args.daemon.empty() || args.workdir.empty()) usage("--daemon and --workdir are required");
    return args;
}

}  // namespace

void end_to_end_pass(const Args& args, Result& result) {
    SeedStream seeds(args.seed);
    if (const std::optional<EngineWorkload> workload = engine_workload(args.workload, args.smoke)) {
        const double setup_s = measure_setup_seconds(*workload, args.smoke ? 3 : 41);
        const EngineSetup setup = build_engine_setup(*workload);
        const EnginePass pass = run_engine_pass(*workload, setup, seeds, args.seconds,
                                                args.smoke ? 1 : 3, 1 << 20, args.inject_wrong,
                                                result, nullptr);
        // Rates are medians over runs, like the run time: on a shared host
        // a few runs on a briefly faster CPU move a mean more than a median.
        std::vector<double> rates;
        for (std::size_t run = 0; run < pass.run_seconds.size(); ++run)
            rates.push_back(double(pass.run_interactions[run]) / pass.run_seconds[run]);
        const double run_s = median(pass.run_seconds);
        std::fprintf(stderr,
                     "perfbench: %s: %zu runs to silence, %.3f s engine time, run ms "
                     "p10/p25/p50/p75/p90 %.2f/%.2f/%.2f/%.2f/%.2f\n",
                     args.workload.c_str(), pass.run_seconds.size(), pass.total_seconds(),
                     quantile(pass.run_seconds, 0.1) * 1e3, quantile(pass.run_seconds, 0.25) * 1e3,
                     run_s * 1e3, quantile(pass.run_seconds, 0.75) * 1e3,
                     quantile(pass.run_seconds, 0.9) * 1e3);
        result.add("setup_s", setup_s, "s");
        result.add("interactions_per_s", median(rates), "1/s");
        result.add("run_ms_p50", run_s * 1e3, "ms");
        // A serial closed loop completes 1 / (run time) runs per second, so
        // on the engine workloads this restates run_ms_p50.  Runs per second
        // over 1 s windows (a mean inside each window) spread twice as wide
        // as the median on a shared 4-vCPU VM, because host speed changes
        // add fast and slow runs that a mean follows (perfbench/README.md).
        result.add("sessions_per_s", 1.0 / run_s, "1/s");
        result.add("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }

    // service-mix: set-up is daemon spawn to the first ok ping, repeated so
    // the reported value is a median; a first spawn warms the page cache
    // and is not counted, and the last daemon serves the mix.
    std::vector<double> setups;
    const int spawns = args.smoke ? 2 : 17;
    const auto spawn_daemon = [&] {
        return std::make_unique<Daemon>(args.daemon, "mix.sock", "mix-spill", kDaemonWorkers);
    };
    spawn_daemon();  // warm-up, not counted
    for (int spawn = 1; spawn < spawns; ++spawn) setups.push_back(spawn_daemon()->setup_seconds());
    const std::unique_ptr<Daemon> daemon = spawn_daemon();
    setups.push_back(daemon->setup_seconds());
    const MixOutcome mix = run_service_mix(*daemon, seeds, args.seconds, args.smoke,
                                           args.inject_wrong, result, nullptr);
    std::fprintf(stderr,
                 "perfbench: service-mix: %llu sessions in %.3f s (%zu short, %zu sliced, "
                 "%zu evicted, %zu model), %llu evictions seen, %llu rejected\n",
                 static_cast<unsigned long long>(mix.completed), mix.wall_seconds,
                 mix.stream_ms[0].size(), mix.stream_ms[1].size(), mix.stream_ms[2].size(),
                 mix.stream_ms[3].size(), static_cast<unsigned long long>(mix.evictions_seen),
                 static_cast<unsigned long long>(mix.rejected));
    result.add("setup_s", median(setups), "s");
    result.add("interactions_per_s", median(mix.window_interactions_per_s), "1/s");
    result.add("run_ms_p50", median(mix.session_ms), "ms");
    result.add("sessions_per_s", median(mix.window_sessions_per_s), "1/s");
    result.add("peak_rss_mb", daemon->peak_rss_mb(), "MB");
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const Args args = parse_args(argc, argv);
    if (!kRelease) {
        std::fprintf(stderr, "perfbench: refusing to measure a non-Release build\n");
        return 2;
    }

    Result result;
    try {
        std::filesystem::create_directories(args.workdir);
        std::filesystem::current_path(args.workdir);
        if (args.trace)
            traced_pass(args, result);
        else
            end_to_end_pass(args, result);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }

    std::printf("{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
                "\"smoke\":%s,\"nproc\":%u,\"build_type\":\"%s\",\"lto\":\"%s\","
                "\"engine_threads\":%u,\"daemon_workers\":%u,\"client_connections\":%u,"
                "\"sessions_in_flight\":%u}}\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.smoke ? "true" : "false", hardware_threads(),
                kRelease ? "release" : "debug", kLto ? "on" : "off", parallel_threads(),
                kDaemonWorkers, kMixConnections, kMixInFlight);
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
                result.failed == 0 && result.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& metric = result.metrics[i];
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                    metric.name.c_str(), metric.value, metric.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
