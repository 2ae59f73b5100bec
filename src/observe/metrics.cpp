#include "observe/metrics.h"

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

void MetricsReport::add_finished_run(const RunResult& result, double wall_seconds) {
    if (runs_finished == 0 || wall_seconds < wall_seconds_min) wall_seconds_min = wall_seconds;
    if (runs_finished == 0 || wall_seconds > wall_seconds_max) wall_seconds_max = wall_seconds;
    ++runs_finished;
    interactions += result.interactions;
    effective_interactions += result.effective_interactions;
    wall_seconds_total += wall_seconds;
    switch (result.stop_reason) {
        case StopReason::kSilent:
            ++stops_silent;
            break;
        case StopReason::kStableOutputs:
            ++stops_stable_outputs;
            break;
        case StopReason::kBudget:
            ++stops_budget;
            break;
        case StopReason::kPaused:
            ++stops_paused;
            break;
    }
    const RunTallies& tallies = result.tallies;
    output_changes += tallies.output_changes;
    snapshots += tallies.snapshots;
    null_runs += tallies.null_runs;
    null_interactions_skipped += tallies.null_interactions;
    for (std::size_t b = 0; b < null_run_length_log2.size(); ++b)
        null_run_length_log2[b] += tallies.null_run_length_log2[b];
}

void MetricsAccumulator::on_start(const RunStartInfo&) { ++data_.runs_started; }

void MetricsAccumulator::on_stop(const RunResult& result, double wall_seconds) {
    data_.add_finished_run(result, wall_seconds);
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

void MetricsCollector::on_stop(const RunResult& result, double wall_seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    accumulator_.on_stop(result, wall_seconds);
}

}  // namespace popproto
