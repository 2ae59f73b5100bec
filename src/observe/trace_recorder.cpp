#include "observe/trace_recorder.h"

#include "core/require.h"

namespace popproto {

std::vector<TraceSnapshot> TraceRecorder::trajectory() const {
    require(started_ && result_.has_value(),
            "TraceRecorder::trajectory: requires a finished run");
    std::vector<TraceSnapshot> trajectory;
    trajectory.reserve(snapshots_.size() + 2);
    trajectory.push_back({0, initial_counts_});
    trajectory.insert(trajectory.end(), snapshots_.begin(), snapshots_.end());
    if (trajectory.back().interaction_index < result_->interactions)
        trajectory.push_back({result_->interactions, result_->final_configuration.counts()});
    return trajectory;
}

void TraceRecorder::clear() {
    *this = TraceRecorder();
}

void TraceRecorder::on_start(const RunStartInfo& info) {
    clear();
    started_ = true;
    engine_ = info.engine;
    population_ = info.population;
    seed_ = info.seed;
    if (info.initial != nullptr) initial_counts_ = info.initial->counts();
}

void TraceRecorder::on_snapshot(std::uint64_t interaction_index,
                                const CountConfiguration& configuration) {
    snapshots_.push_back({interaction_index, configuration.counts()});
}

void TraceRecorder::on_output_change(std::uint64_t interaction_index) {
    output_changes_.push_back(interaction_index);
}

void TraceRecorder::on_stop(const RunResult& result, double wall_seconds) {
    result_ = result;
    wall_seconds_ = wall_seconds;
}

}  // namespace popproto
