#include "telemetry/prometheus.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace popproto::telemetry {

namespace {

void write_seconds(std::ostream& out, std::uint64_t ns) {
    out << std::fixed << std::setprecision(9) << static_cast<double>(ns) / 1e9;
}

void family(std::ostream& out, const char* name, const char* type, const char* help) {
    out << "# HELP " << name << ' ' << help << "\n# TYPE " << name << ' ' << type << '\n';
}

/// One log2 histogram family, omitted while empty.  Bucket b of the
/// histogram becomes the cumulative sample le="2^(b+1)-1", its inclusive
/// upper edge.
void log2_histogram(std::ostream& out, const char* name, const char* help,
                    const Log2Histogram& histogram) {
    if (histogram.count == 0) return;
    family(out, name, "histogram", help);
    std::size_t top = 0;
    for (std::size_t b = 0; b < Log2Histogram::kNumBuckets; ++b)
        if (histogram.buckets[b] != 0) top = b;
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b <= top; ++b) {
        cumulative += histogram.buckets[b];
        const std::uint64_t le =
            b + 1 >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << (b + 1)) - 1;
        out << name << "_bucket{le=\"" << le << "\"} " << cumulative << '\n';
    }
    out << name << "_bucket{le=\"+Inf\"} " << histogram.count << '\n';
    out << name << "_sum " << histogram.sum << '\n';
    out << name << "_count " << histogram.count << '\n';
}

}  // namespace

void write_prometheus(std::ostream& out, const RunTelemetry& telemetry) {
    family(out, "popproto_run_info", "gauge",
           "Run identity (value is the telemetry schema version).");
    out << "popproto_run_info{engine=\"" << telemetry.engine
        << "\",population=\"" << telemetry.population << "\",threads=\""
        << telemetry.threads << "\"} " << RunTelemetry::kSchemaVersion << '\n';

    family(out, "popproto_run_wall_seconds", "gauge", "Wall time of the run.");
    out << "popproto_run_wall_seconds ";
    write_seconds(out, telemetry.wall_ns);
    out << '\n';

    family(out, "popproto_run_interactions_total", "counter",
           "Scheduler interactions executed (including nulls).");
    out << "popproto_run_interactions_total " << telemetry.interactions << '\n';
    family(out, "popproto_run_effective_interactions_total", "counter",
           "State-changing interactions executed.");
    out << "popproto_run_effective_interactions_total "
        << telemetry.effective_interactions << '\n';

    family(out, "popproto_phase_seconds_total", "counter",
           "Wall seconds spent per instrumented run phase.");
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const PhaseStat& stat = telemetry.phases[p];
        if (stat.calls == 0 && stat.total_ns == 0) continue;
        out << "popproto_phase_seconds_total{phase=\""
            << phase_name(static_cast<Phase>(p)) << "\"} ";
        write_seconds(out, stat.total_ns);
        out << '\n';
    }
    family(out, "popproto_phase_calls_total", "counter",
           "Invocations per instrumented run phase.");
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const PhaseStat& stat = telemetry.phases[p];
        if (stat.calls == 0) continue;
        out << "popproto_phase_calls_total{phase=\""
            << phase_name(static_cast<Phase>(p)) << "\"} " << stat.calls << '\n';
    }

    if (!telemetry.shards.empty()) {
        family(out, "popproto_shard_busy_seconds_total", "counter",
               "Per-shard task execution time in the fork-merge pool.");
        for (std::size_t k = 0; k < telemetry.shards.size(); ++k) {
            out << "popproto_shard_busy_seconds_total{shard=\"" << k << "\"} ";
            write_seconds(out, telemetry.shards[k].busy_ns);
            out << '\n';
        }
        family(out, "popproto_shard_wait_seconds_total", "counter",
               "Per-shard barrier-imbalance wait time (round wall minus busy).");
        for (std::size_t k = 0; k < telemetry.shards.size(); ++k) {
            out << "popproto_shard_wait_seconds_total{shard=\"" << k << "\"} ";
            write_seconds(out, telemetry.shards[k].wait_ns);
            out << '\n';
        }
        family(out, "popproto_shard_tasks_total", "counter",
               "Per-shard tasks executed by the fork-merge pool.");
        for (std::size_t k = 0; k < telemetry.shards.size(); ++k) {
            out << "popproto_shard_tasks_total{shard=\"" << k << "\"} "
                << telemetry.shards[k].tasks << '\n';
        }
        family(out, "popproto_pool_rounds_total", "counter",
               "Super-step rounds dispatched through the pool vs run inline.");
        out << "popproto_pool_rounds_total{path=\"pooled\"} " << telemetry.pool_rounds
            << '\n';
        out << "popproto_pool_rounds_total{path=\"inline\"} " << telemetry.inline_rounds
            << '\n';
    }

    if (telemetry.super_steps != 0) {
        family(out, "popproto_super_steps_total", "counter",
               "Collapsed super-steps executed (clamped = cut short of T at a boundary).");
        out << "popproto_super_steps_total{clamped=\"false\"} "
            << telemetry.super_steps - telemetry.clamped_super_steps << '\n';
        out << "popproto_super_steps_total{clamped=\"true\"} "
            << telemetry.clamped_super_steps << '\n';
        family(out, "popproto_super_step_pairs_total", "counter",
               "Interactions executed inside super-steps.");
        out << "popproto_super_step_pairs_total " << telemetry.super_step_pairs << '\n';
    }

    if (telemetry.geometric_skips != 0) {
        family(out, "popproto_geometric_skips_total", "counter",
               "Geometric null-run skips taken by the count-batch engine.");
        out << "popproto_geometric_skips_total " << telemetry.geometric_skips << '\n';
        family(out, "popproto_null_interactions_skipped_total", "counter",
               "Null interactions skipped in bulk via geometric runs.");
        out << "popproto_null_interactions_skipped_total "
            << telemetry.null_interactions_skipped << '\n';
    }

    if (!telemetry.engine_segments.empty()) {
        family(out, "popproto_engine_switches_total", "counter",
               "Mid-run changes of step kind made by the adaptive engine.");
        out << "popproto_engine_switches_total " << telemetry.engine_switches << '\n';
        family(out, "popproto_engine_segment_seconds_total", "counter",
               "Wall seconds per adaptive engine segment, in execution order.");
        for (std::size_t k = 0; k < telemetry.engine_segments.size(); ++k) {
            out << "popproto_engine_segment_seconds_total{segment=\"" << k
                << "\",engine=\"" << telemetry.engine_segments[k].engine << "\"} ";
            write_seconds(out, telemetry.engine_segments[k].wall_ns);
            out << '\n';
        }
        family(out, "popproto_engine_segment_interactions_total", "counter",
               "Interactions attributed to each adaptive engine segment.");
        for (std::size_t k = 0; k < telemetry.engine_segments.size(); ++k) {
            out << "popproto_engine_segment_interactions_total{segment=\"" << k
                << "\",engine=\"" << telemetry.engine_segments[k].engine << "\"} "
                << telemetry.engine_segments[k].interactions << '\n';
        }
    }

    family(out, "popproto_trace_spans_dropped_total", "counter",
           "Trace spans beyond the collector capacity (stats stay exact).");
    out << "popproto_trace_spans_dropped_total " << telemetry.spans_dropped << '\n';

    log2_histogram(out, "popproto_null_skip_length_log2",
                   "Geometric null-skip lengths (bucket b spans [2^b, 2^(b+1))).",
                   telemetry.null_skip_length_log2);
    log2_histogram(out, "popproto_super_step_pairs_log2",
                   "Interactions per super-step (bucket b spans [2^b, 2^(b+1))).",
                   telemetry.super_step_pairs_log2);

    if (!out) throw std::runtime_error("write_prometheus: stream write failed");
}

void write_prometheus_file(const std::string& path, const RunTelemetry& telemetry) {
    std::ofstream out(path);
    if (!out.is_open())
        throw std::runtime_error("write_prometheus_file: cannot open " + path);
    try {
        write_prometheus(out, telemetry);
    } catch (const std::runtime_error&) {
        throw std::runtime_error("write_prometheus_file: write failed for " + path);
    }
}

}  // namespace popproto::telemetry
