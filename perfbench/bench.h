// Shared plumbing of the repository benchmark binary (perfbench/README.md):
// the command line, the result a pass accumulates, timing and statistics
// helpers, and seed derivation.  Every number the benchmark prints is taken
// here, outside the library, by timing calls into public functions.

#ifndef POPPROTO_PERFBENCH_BENCH_H
#define POPPROTO_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny populations and short passes: proves every metric prints.
    bool smoke = false;
    /// Deliberately wrong expectation, so every checked output is a miss.
    bool inject_wrong = false;
    /// Path of the serve_popproto binary (service-mix and the traced pass).
    std::string daemon;
    /// Scratch directory for sockets, spill files and traces (the benchmark
    /// chdirs here, which keeps the Unix socket path short).
    std::string workdir;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one pass produced: every checked output is one attempt, and every
/// wrong, non-silent, rejected or unfinished one is a failure.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void check(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
    void add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
    return std::chrono::duration<double>(end - begin).count();
}

inline double seconds_since(Clock::time_point begin) {
    return seconds_between(begin, Clock::now());
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Deterministic stream of 64-bit values derived from the benchmark seed
/// (splitmix64), so the same --seed always yields the same inputs.
class SeedStream {
public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();

private:
    std::uint64_t state_;
};

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();
/// Peak resident set of process `pid` in MiB, or 0 when unreadable.
double peak_rss_mb_of(int pid);

/// Moves the calling thread to the next allowed CPU, round robin, on each
/// step(); the destructor restores the original mask.  The serial workloads
/// step it before every run: on a shared host the CPUs run at different,
/// drifting speeds, and a pass that sat on one CPU would measure that CPU.
class CpuRotation {
public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void step();

private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

unsigned hardware_threads();

/// The intra-run thread count of epidemic-parallel: min(4, nproc).
unsigned parallel_threads();

}  // namespace perfbench

#endif  // POPPROTO_PERFBENCH_BENCH_H
