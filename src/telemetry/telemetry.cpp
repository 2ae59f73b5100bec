#include "telemetry/telemetry.h"

#include <bit>
#include <iomanip>
#include <sstream>

namespace popproto::telemetry {

const char* phase_name(Phase phase) {
    switch (phase) {
        case Phase::kStepping:
            return "stepping";
        case Phase::kSnapshotDispatch:
            return "snapshot_dispatch";
        case Phase::kRunLengthDraw:
            return "run_length_draw";
        case Phase::kSuperStepApply:
            return "super_step_apply";
        case Phase::kShardCarve:
            return "shard_carve";
        case Phase::kShardTasks:
            return "shard_tasks";
        case Phase::kPairCascade:
            return "pair_cascade";
        case Phase::kDeltaMerge:
            return "delta_merge";
        case Phase::kWRecompute:
            return "w_recompute";
        case Phase::kShardTask:
            return "shard_task";
        case Phase::kEngineSwitch:
            return "engine_switch";
        case Phase::kCount:
            break;
    }
    return "unknown";
}

bool phase_is_nested(Phase phase) {
    switch (phase) {
        case Phase::kRunLengthDraw:
        case Phase::kShardCarve:
        case Phase::kShardTasks:
        case Phase::kPairCascade:
        case Phase::kDeltaMerge:
        case Phase::kWRecompute:
        case Phase::kShardTask:
            return true;
        default:
            return false;
    }
}

void Log2Histogram::record(std::uint64_t value) {
    // bucket = floor(log2(value)), with the zeros folded into bucket 0.
    ++buckets[value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value) - 1)];
    ++count;
    sum += value;
}

void PoolTelemetry::configure(std::size_t tasks, std::chrono::steady_clock::time_point epoch,
                              std::size_t max_spans) {
    epoch_ = epoch;
    max_spans_ = max_spans;
    shards.assign(tasks, ShardStat{});
    round_begin_.assign(tasks, 0);
    round_end_.assign(tasks, 0);
    rounds = 0;
    rounds_ns = 0;
    spans.clear();
    spans_dropped = 0;
}

void PoolTelemetry::fold_round(std::uint64_t round_begin_ns, std::uint64_t round_end_ns,
                               std::size_t executed) {
    const std::uint64_t wall =
        round_end_ns > round_begin_ns ? round_end_ns - round_begin_ns : 0;
    ++rounds;
    rounds_ns += wall;
    for (std::size_t task = 0; task < executed && task < shards.size(); ++task) {
        const std::uint64_t begin = round_begin_[task];
        const std::uint64_t end = round_end_[task];
        const std::uint64_t busy = end > begin ? end - begin : 0;
        ShardStat& stat = shards[task];
        ++stat.tasks;
        stat.busy_ns += busy;
        stat.wait_ns += wall > busy ? wall - busy : 0;
        if (spans.size() < max_spans_) {
            spans.push_back(
                {Phase::kShardTask, static_cast<std::uint32_t>(task + 1), begin, end});
        } else {
            ++spans_dropped;
        }
    }
}

RunTelemetryCollector::RunTelemetryCollector(std::size_t max_spans)
    : max_spans_(max_spans), data_(std::make_shared<RunTelemetry>()) {}

void RunTelemetryCollector::reset() {
    // A fresh RunTelemetry rather than clearing in place: the previous run's
    // result may still be shared via RunResult::telemetry.
    data_ = std::make_shared<RunTelemetry>();
    pool_ = PoolTelemetry();
    live_interactions_.store(0, std::memory_order_relaxed);
}

void RunTelemetryCollector::begin_run(const char* engine, std::uint64_t population,
                                      unsigned threads) {
    reset();
    epoch_ = std::chrono::steady_clock::now();
    data_->engine = engine;
    data_->population = population;
    data_->threads = threads;
    data_->spans.reserve(std::min<std::size_t>(max_spans_, 4096));
}

void RunTelemetryCollector::finish_run(
    std::uint64_t interactions, std::uint64_t effective_interactions, std::uint64_t null_runs,
    std::uint64_t null_interactions,
    const std::array<std::uint64_t, Log2Histogram::kNumBuckets>& null_run_length_log2) {
    RunTelemetry& data = *data_;
    data.wall_ns = now_ns();
    data.interactions = interactions;
    data.effective_interactions = effective_interactions;
    data.geometric_skips = null_runs;
    data.null_interactions_skipped = null_interactions;
    data.null_skip_length_log2 = {null_run_length_log2, null_runs, null_interactions};
    publish_interactions(interactions);
    if (!data.engine_segments.empty()) data.engine_switches = data.engine_segments.size() - 1;

    // Derived stepping time: the loop remainder no explicit timer covers.
    // Per-interaction engines spend it sampling and applying interactions
    // (clocking each O(ns) step individually would dwarf the work); for
    // super-step engines it is the residual kernel overhead around the
    // explicit kSuperStepApply phase.
    std::uint64_t attributed = 0;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const auto phase = static_cast<Phase>(p);
        if (phase == Phase::kStepping || phase_is_nested(phase)) continue;
        attributed += data.phases[p].total_ns;
    }
    PhaseStat& stepping = data.phases[static_cast<std::size_t>(Phase::kStepping)];
    stepping.total_ns = data.wall_ns > attributed ? data.wall_ns - attributed : 0;
    stepping.max_ns = 0;
    stepping.calls = 0;

    // Fold the pool's per-shard accounting and spans.  The pool log has
    // its own max_spans budget, so the merged trace holds at most
    // 2 * max_spans spans — appending it whole keeps the shard lanes
    // visible even when the driving thread exhausted its own budget first
    // (a long run drops the tail of BOTH logs, never one lane entirely).
    data.shards = pool_.shards;
    data.pool_rounds = pool_.rounds;
    data.spans.insert(data.spans.end(), pool_.spans.begin(), pool_.spans.end());
    data.spans_dropped += pool_.spans_dropped;
}

void RunTelemetryCollector::record_engine_segment(const char* engine,
                                                  std::uint64_t interactions,
                                                  std::uint64_t begin_ns) {
    data_->engine_segments.push_back({engine, interactions, now_ns() - begin_ns});
}

void RunTelemetryCollector::record_phase(Phase phase, std::uint64_t begin_ns,
                                         std::uint64_t end_ns, std::uint32_t tid) {
    const std::uint64_t duration = end_ns > begin_ns ? end_ns - begin_ns : 0;
    PhaseStat& stat = data_->phases[static_cast<std::size_t>(phase)];
    ++stat.calls;
    stat.total_ns += duration;
    if (duration > stat.max_ns) stat.max_ns = duration;
    if (data_->spans.size() < max_spans_) {
        data_->spans.push_back({phase, tid, begin_ns, end_ns});
    } else {
        ++data_->spans_dropped;
    }
}

void RunTelemetryCollector::record_super_step(std::uint64_t pairs, bool clamped) {
    ++data_->super_steps;
    if (clamped) ++data_->clamped_super_steps;
    data_->super_step_pairs += pairs;
    data_->super_step_pairs_log2.record(pairs);
}

namespace {

std::string format_ms(std::uint64_t ns) {
    std::ostringstream out;
    out << std::fixed << std::setprecision(3) << static_cast<double>(ns) / 1e6;
    return out.str();
}

}  // namespace

std::string RunTelemetry::to_string() const {
    std::ostringstream out;
    out << "telemetry (schema v" << kSchemaVersion << "): engine=" << engine
        << " n=" << population << " threads=" << threads << " wall_ms=" << format_ms(wall_ns)
        << " interactions=" << interactions << " effective=" << effective_interactions << "\n";
    out << "phases (ms, calls, max_ms):\n";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const PhaseStat& stat = phases[p];
        if (stat.calls == 0 && stat.total_ns == 0) continue;
        out << "  " << phase_name(static_cast<Phase>(p)) << ": " << format_ms(stat.total_ns)
            << " ms, " << stat.calls << " calls, max " << format_ms(stat.max_ns) << " ms\n";
    }
    if (!shards.empty()) {
        out << "shards (tasks, busy_ms, wait_ms):\n";
        for (std::size_t k = 0; k < shards.size(); ++k) {
            out << "  shard " << k << ": " << shards[k].tasks << " tasks, "
                << format_ms(shards[k].busy_ns) << " busy, " << format_ms(shards[k].wait_ns)
                << " wait\n";
        }
        out << "pool rounds: " << pool_rounds << " pooled, " << inline_rounds << " inline\n";
    }
    if (super_steps != 0) {
        out << "super-steps: " << super_steps << " (" << clamped_super_steps << " clamped), "
            << super_step_pairs << " interactions\n";
    }
    if (geometric_skips != 0) {
        out << "geometric skips: " << geometric_skips << " runs, "
            << null_interactions_skipped << " null interactions skipped\n";
    }
    if (!engine_segments.empty()) {
        out << "engine segments (" << engine_switches << " switches):\n";
        for (std::size_t k = 0; k < engine_segments.size(); ++k) {
            const EngineSegment& segment = engine_segments[k];
            out << "  segment " << k << ": " << segment.engine << ", "
                << segment.interactions << " interactions, " << format_ms(segment.wall_ns)
                << " ms\n";
        }
    }
    out << "spans: " << spans.size() << " recorded, " << spans_dropped << " dropped\n";
    return out.str();
}

}  // namespace popproto::telemetry
