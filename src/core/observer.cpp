#include "core/observer.h"

#include <cmath>

#include "core/require.h"

namespace popproto {

SnapshotSchedule SnapshotSchedule::every(std::uint64_t period) {
    require(period >= 1, "SnapshotSchedule::every: period must be >= 1");
    SnapshotSchedule schedule;
    schedule.kind_ = Kind::kFixed;
    schedule.period_ = period;
    return schedule;
}

SnapshotSchedule SnapshotSchedule::log_spaced(double factor, std::uint64_t first) {
    require(factor > 1.0 && std::isfinite(factor),
            "SnapshotSchedule::log_spaced: factor must be finite and > 1");
    require(first >= 1, "SnapshotSchedule::log_spaced: first must be >= 1");
    SnapshotSchedule schedule;
    schedule.kind_ = Kind::kLog;
    schedule.factor_ = factor;
    schedule.first_ = first;
    return schedule;
}

std::uint64_t SnapshotSchedule::first_index() const {
    switch (kind_) {
        case Kind::kNone:
            return kNever;
        case Kind::kFixed:
            return period_;
        case Kind::kLog:
            return first_;
    }
    return kNever;
}

std::uint64_t SnapshotSchedule::next_after(std::uint64_t index) const {
    switch (kind_) {
        case Kind::kNone:
            return kNever;
        case Kind::kFixed: {
            if (index / period_ >= kNever / period_ - 1) return kNever;  // overflow guard
            return (index / period_ + 1) * period_;
        }
        case Kind::kLog: {
            // The scheduled set is first, g(first), g(g(first)), ... with
            // g(v) = max(v + 1, ceil(v * factor)); walking from `first_`
            // keeps the set independent of the query index, and the walk is
            // logarithmic in `index`.
            std::uint64_t v = first_;
            while (v <= index) {
                const double scaled = static_cast<double>(v) * factor_;
                // Cap well below 2^63 so the counter arithmetic in the
                // engines can never overflow.
                if (scaled >= 9.0e18) return kNever;
                const auto jumped = static_cast<std::uint64_t>(std::ceil(scaled));
                v = jumped > v ? jumped : v + 1;
            }
            return v;
        }
    }
    return kNever;
}

const char* observed_engine_name(ObservedEngine engine) {
    switch (engine) {
        case ObservedEngine::kAgentArray:
            return "agent_array";
        case ObservedEngine::kCountBatch:
            return "count_batch";
        case ObservedEngine::kCollapsed:
            return "collapsed";
        case ObservedEngine::kParallelCollapsed:
            return "parallel_collapsed";
        case ObservedEngine::kWeighted:
            return "weighted";
        case ObservedEngine::kGraph:
            return "graph";
        case ObservedEngine::kPairModel:
            return "pair_model";
        case ObservedEngine::kAdaptive:
            return "adaptive";
    }
    return "unknown";
}

bool observed_engine_from_name(const std::string& name, ObservedEngine& engine) {
    for (const ObservedEngine candidate :
         {ObservedEngine::kAgentArray, ObservedEngine::kCountBatch, ObservedEngine::kCollapsed,
          ObservedEngine::kParallelCollapsed, ObservedEngine::kWeighted, ObservedEngine::kGraph,
          ObservedEngine::kPairModel, ObservedEngine::kAdaptive}) {
        if (name == observed_engine_name(candidate)) {
            engine = candidate;
            return true;
        }
    }
    return false;
}

void RunObserver::on_start(const RunStartInfo&) {}
void RunObserver::on_snapshot(std::uint64_t, const CountConfiguration&) {}
void RunObserver::on_output_change(std::uint64_t) {}
void RunObserver::on_engine_switch(const EngineSwitchInfo&) {}
void RunObserver::on_stop(const RunResult&, double) {}

TeeObserver::TeeObserver(std::vector<RunObserver*> observers)
    : observers_(std::move(observers)) {
    for (const RunObserver* observer : observers_)
        require(observer != nullptr, "TeeObserver: null observer");
}

void TeeObserver::on_start(const RunStartInfo& info) {
    for (RunObserver* observer : observers_) observer->on_start(info);
}

void TeeObserver::on_snapshot(std::uint64_t interaction_index,
                              const CountConfiguration& configuration) {
    for (RunObserver* observer : observers_)
        observer->on_snapshot(interaction_index, configuration);
}

void TeeObserver::on_output_change(std::uint64_t interaction_index) {
    for (RunObserver* observer : observers_) observer->on_output_change(interaction_index);
}

void TeeObserver::on_engine_switch(const EngineSwitchInfo& info) {
    for (RunObserver* observer : observers_) observer->on_engine_switch(info);
}

void TeeObserver::on_stop(const RunResult& result, double wall_seconds) {
    for (RunObserver* observer : observers_) observer->on_stop(result, wall_seconds);
}

}  // namespace popproto
