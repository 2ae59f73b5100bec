#include "bench.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const std::size_t low = static_cast<std::size_t>(std::floor(position));
    const std::size_t high = std::min(low + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(low);
    return values[low] + fraction * (values[high] - values[low]);
}

std::uint64_t SeedStream::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
    std::ifstream status(status_path);
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

}  // namespace

double peak_rss_mb_of(int pid) { return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status"); }

double peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

CpuRotation::CpuRotation() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
    }
}

CpuRotation::~CpuRotation() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (const int cpu : cpus_) CPU_SET(cpu, &mask);
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(mask), &mask);
}

void CpuRotation::step() {
    if (cpus_.size() < 2) return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpus_[next_++ % cpus_.size()], &mask);
    sched_setaffinity(0, sizeof(mask), &mask);
}

unsigned hardware_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

unsigned parallel_threads() { return std::min(4u, hardware_threads()); }

}  // namespace perfbench
