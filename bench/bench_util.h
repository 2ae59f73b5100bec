// Shared helpers for the experiment harnesses.
//
// Each bench binary reproduces one quantitative claim of the paper
// (DESIGN.md, per-experiment index) and prints a fixed-width table of
// measured values next to the paper's prediction.  Binaries run with no
// arguments and bounded wall time so `for b in build/bench/*; do $b; done`
// regenerates every experiment.

#ifndef POPPROTO_BENCH_BENCH_UTIL_H
#define POPPROTO_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

namespace popproto::bench {

/// Prints the experiment banner.
inline void banner(const std::string& experiment, const std::string& claim) {
    std::printf("\n=== %s ===\n%s\n\n", experiment.c_str(), claim.c_str());
}

/// Fixed-width table writer: header once, then one row per call.
class Table {
public:
    explicit Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
        for (const std::string& column : columns_) std::printf("%16s", column.c_str());
        std::printf("\n");
        for (std::size_t i = 0; i < columns_.size(); ++i) std::printf("%16s", "----------");
        std::printf("\n");
    }

    void row(const std::vector<std::string>& cells) {
        for (const std::string& cell : cells) std::printf("%16s", cell.c_str());
        std::printf("\n");
    }

private:
    std::vector<std::string> columns_;
};

inline std::string fmt(double value, int precision = 3) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
    return buffer;
}

inline std::string fmt_u(std::uint64_t value) { return std::to_string(value); }

inline double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

inline double stddev(const std::vector<double>& values) {
    if (values.size() < 2) return 0.0;
    const double m = mean(values);
    double sum = 0.0;
    for (double v : values) sum += (v - m) * (v - m);
    return std::sqrt(sum / static_cast<double>(values.size() - 1));
}

}  // namespace popproto::bench

/// Drop-in replacement for BENCHMARK_MAIN() in the google-benchmark suites
/// (the including .cpp must include <benchmark/benchmark.h> first).  It
/// stamps the *binary's* build type into the JSON context as
/// "popproto_build_type" before running.  google-benchmark's own
/// "library_build_type" describes the distro-packaged *library* — Debian
/// ships it as a debug build, so that key says "debug" even for a -O3
/// binary.  "popproto_lto" records whether the toolchain applied
/// interprocedural optimization (CMakeLists.txt sets POPPROTO_LTO on
/// Release builds when supported), so a recorded BENCH_*.json names the
/// exact optimization regime it was measured under.
#ifdef NDEBUG
#define POPPROTO_BENCH_BUILD_TYPE "release"
#else
#define POPPROTO_BENCH_BUILD_TYPE "debug"
#endif
#ifdef POPPROTO_LTO
#define POPPROTO_BENCH_LTO "on"
#else
#define POPPROTO_BENCH_LTO "off"
#endif

#define POPPROTO_BENCHMARK_MAIN()                                              \
    int main(int argc, char** argv) {                                          \
        benchmark::AddCustomContext("popproto_build_type",                     \
                                    POPPROTO_BENCH_BUILD_TYPE);                \
        benchmark::AddCustomContext("popproto_lto", POPPROTO_BENCH_LTO);       \
        benchmark::Initialize(&argc, argv);                                    \
        if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
        benchmark::RunSpecifiedBenchmarks();                                   \
        benchmark::Shutdown();                                                 \
        return 0;                                                              \
    }

#endif  // POPPROTO_BENCH_BENCH_UTIL_H
