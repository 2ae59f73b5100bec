#include "observe/metrics.h"

#include <bit>
#include <sstream>

namespace popproto {

std::string MetricsReport::to_string() const {
    std::ostringstream out;
    out << "runs: " << runs_finished << " finished / " << runs_started << " started"
        << " (silent " << stops_silent << ", stable_outputs " << stops_stable_outputs
        << ", budget " << stops_budget << ", paused " << stops_paused << ")\n";
    out << "interactions: " << interactions << " total, " << effective_interactions
        << " effective, " << null_interactions_skipped << " skipped in " << null_runs
        << " null runs\n";
    out << "events: " << snapshots << " snapshots, " << output_changes << " output changes\n";
    out << "wall seconds: " << wall_seconds_total << " total";
    if (runs_finished > 0)
        out << " (min " << wall_seconds_min << ", max " << wall_seconds_max << ")";
    out << "\n";
    if (null_runs > 0) {
        out << "null-run lengths (log2 buckets):\n";
        for (std::size_t b = 0; b < null_run_length_log2.size(); ++b) {
            if (null_run_length_log2[b] == 0) continue;
            out << "  [2^" << b << ", 2^" << b + 1 << "): " << null_run_length_log2[b] << "\n";
        }
    }
    return out.str();
}

std::string MetricsReport::to_json() const {
    std::ostringstream out;
    out << "{\"schema_version\":" << kSchemaVersion << ",\"runs_started\":" << runs_started
        << ",\"runs_finished\":" << runs_finished
        << ",\"interactions\":" << interactions
        << ",\"effective_interactions\":" << effective_interactions
        << ",\"stops_silent\":" << stops_silent
        << ",\"stops_stable_outputs\":" << stops_stable_outputs
        << ",\"stops_budget\":" << stops_budget << ",\"stops_paused\":" << stops_paused
        << ",\"output_changes\":" << output_changes
        << ",\"snapshots\":" << snapshots
        << ",\"null_runs\":" << null_runs
        << ",\"null_interactions_skipped\":" << null_interactions_skipped
        << ",\"null_run_length_log2\":{";
    bool first = true;
    for (std::size_t b = 0; b < null_run_length_log2.size(); ++b) {
        if (null_run_length_log2[b] == 0) continue;
        if (!first) out << ',';
        first = false;
        out << '"' << b << "\":" << null_run_length_log2[b];
    }
    out << "},\"wall_seconds_total\":" << wall_seconds_total
        << ",\"wall_seconds_min\":" << wall_seconds_min
        << ",\"wall_seconds_max\":" << wall_seconds_max << '}';
    return out.str();
}

void MetricsReport::merge(const MetricsReport& other) {
    if (other.runs_finished > 0) {
        if (runs_finished == 0 || other.wall_seconds_min < wall_seconds_min)
            wall_seconds_min = other.wall_seconds_min;
        if (runs_finished == 0 || other.wall_seconds_max > wall_seconds_max)
            wall_seconds_max = other.wall_seconds_max;
    }
    runs_started += other.runs_started;
    runs_finished += other.runs_finished;
    interactions += other.interactions;
    effective_interactions += other.effective_interactions;
    stops_silent += other.stops_silent;
    stops_stable_outputs += other.stops_stable_outputs;
    stops_budget += other.stops_budget;
    stops_paused += other.stops_paused;
    output_changes += other.output_changes;
    snapshots += other.snapshots;
    null_runs += other.null_runs;
    null_interactions_skipped += other.null_interactions_skipped;
    for (std::size_t b = 0; b < null_run_length_log2.size(); ++b)
        null_run_length_log2[b] += other.null_run_length_log2[b];
    wall_seconds_total += other.wall_seconds_total;
}

void MetricsAccumulator::on_start(const RunStartInfo&) { ++data_.runs_started; }

void MetricsAccumulator::on_snapshot(std::uint64_t, const CountConfiguration&) {
    ++data_.snapshots;
}

void MetricsAccumulator::on_output_change(std::uint64_t) { ++data_.output_changes; }

void MetricsAccumulator::on_null_run(std::uint64_t length) {
    ++data_.null_runs;
    data_.null_interactions_skipped += length;
    // length >= 1; bucket = floor(log2(length)).
    const int bucket = std::bit_width(length) - 1;
    ++data_.null_run_length_log2[static_cast<std::size_t>(bucket)];
}

void MetricsAccumulator::on_stop(const RunResult& result, double wall_seconds) {
    if (data_.runs_finished == 0 || wall_seconds < data_.wall_seconds_min)
        data_.wall_seconds_min = wall_seconds;
    if (data_.runs_finished == 0 || wall_seconds > data_.wall_seconds_max)
        data_.wall_seconds_max = wall_seconds;
    ++data_.runs_finished;
    data_.interactions += result.interactions;
    data_.effective_interactions += result.effective_interactions;
    data_.wall_seconds_total += wall_seconds;
    switch (result.stop_reason) {
        case StopReason::kSilent:
            ++data_.stops_silent;
            break;
        case StopReason::kStableOutputs:
            ++data_.stops_stable_outputs;
            break;
        case StopReason::kBudget:
            ++data_.stops_budget;
            break;
        case StopReason::kPaused:
            ++data_.stops_paused;
            break;
    }
}

MetricsReport MetricsCollector::report() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return accumulator_.report();
}

void MetricsCollector::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    accumulator_.reset();
}

void MetricsCollector::on_start(const RunStartInfo& info) {
    const std::lock_guard<std::mutex> lock(mutex_);
    accumulator_.on_start(info);
}

void MetricsCollector::on_snapshot(std::uint64_t interaction_index,
                                   const CountConfiguration& configuration) {
    const std::lock_guard<std::mutex> lock(mutex_);
    accumulator_.on_snapshot(interaction_index, configuration);
}

void MetricsCollector::on_output_change(std::uint64_t interaction_index) {
    const std::lock_guard<std::mutex> lock(mutex_);
    accumulator_.on_output_change(interaction_index);
}

void MetricsCollector::on_null_run(std::uint64_t length) {
    const std::lock_guard<std::mutex> lock(mutex_);
    accumulator_.on_null_run(length);
}

void MetricsCollector::on_stop(const RunResult& result, double wall_seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    accumulator_.on_stop(result, wall_seconds);
}

}  // namespace popproto
