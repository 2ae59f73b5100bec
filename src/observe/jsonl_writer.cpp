#include "observe/jsonl_writer.h"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/require.h"
#include "core/tabulated_protocol.h"
#include "telemetry/telemetry.h"

namespace popproto {

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
void append_json_string(std::ostringstream& out, const std::string& text) {
    out << '"';
    for (const char c : text) {
        switch (c) {
            case '"':
                out << "\\\"";
                break;
            case '\\':
                out << "\\\\";
                break;
            case '\n':
                out << "\\n";
                break;
            case '\t':
                out << "\\t";
                break;
            case '\r':
                out << "\\r";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    constexpr char kHex[] = "0123456789abcdef";
                    out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
                } else {
                    out << c;
                }
        }
    }
    out << '"';
}

void append_counts(std::ostringstream& out, const std::vector<std::uint64_t>& counts) {
    out << "\"counts\":[";
    for (std::size_t q = 0; q < counts.size(); ++q) {
        if (q != 0) out << ',';
        out << counts[q];
    }
    out << ']';
}

/// The "telemetry" event line: phase timers, shard utilization, and the
/// engine-specific batch/skip aggregates of one finished run (schema in
/// DESIGN.md "Observability").
std::string telemetry_line(const telemetry::RunTelemetry& data) {
    std::ostringstream line;
    line << "{\"event\":\"telemetry\",\"schema_version\":"
         << telemetry::RunTelemetry::kSchemaVersion << ",\"engine\":\"" << data.engine
         << "\",\"population\":" << data.population << ",\"threads\":" << data.threads
         << ",\"wall_ns\":" << data.wall_ns << ",\"interactions\":" << data.interactions
         << ",\"effective_interactions\":" << data.effective_interactions << ",\"phases\":{";
    bool first = true;
    for (std::size_t p = 0; p < telemetry::kNumPhases; ++p) {
        const telemetry::PhaseStat& stat = data.phases[p];
        if (stat.calls == 0 && stat.total_ns == 0) continue;
        if (!first) line << ',';
        first = false;
        line << '"' << telemetry::phase_name(static_cast<telemetry::Phase>(p))
             << "\":{\"ns\":" << stat.total_ns << ",\"calls\":" << stat.calls
             << ",\"max_ns\":" << stat.max_ns << '}';
    }
    line << "},\"shards\":[";
    for (std::size_t k = 0; k < data.shards.size(); ++k) {
        if (k != 0) line << ',';
        line << "{\"tasks\":" << data.shards[k].tasks
             << ",\"busy_ns\":" << data.shards[k].busy_ns
             << ",\"wait_ns\":" << data.shards[k].wait_ns << '}';
    }
    line << ']';
    if (!data.engine_segments.empty()) {
        line << ",\"engine_switches\":" << data.engine_switches << ",\"engine_segments\":[";
        for (std::size_t k = 0; k < data.engine_segments.size(); ++k) {
            if (k != 0) line << ',';
            line << "{\"engine\":\"" << data.engine_segments[k].engine
                 << "\",\"interactions\":" << data.engine_segments[k].interactions
                 << ",\"wall_ns\":" << data.engine_segments[k].wall_ns << '}';
        }
        line << ']';
    }
    line << ",\"pool_rounds\":" << data.pool_rounds
         << ",\"inline_rounds\":" << data.inline_rounds
         << ",\"super_steps\":" << data.super_steps
         << ",\"clamped_super_steps\":" << data.clamped_super_steps
         << ",\"super_step_pairs\":" << data.super_step_pairs
         << ",\"geometric_skips\":" << data.geometric_skips
         << ",\"null_interactions_skipped\":" << data.null_interactions_skipped
         << ",\"spans\":" << data.spans.size()
         << ",\"spans_dropped\":" << data.spans_dropped << '}';
    return line.str();
}

}  // namespace

JsonlTraceWriter::JsonlTraceWriter(std::ostream& out) : out_(&out) {}

JsonlTraceWriter::JsonlTraceWriter(const std::string& path)
    : owned_(path, std::ios::out | std::ios::trunc), out_(&owned_), path_(path) {
    require(owned_.is_open(), "JsonlTraceWriter: cannot open " + path);
}

JsonlTraceWriter::JsonlTraceWriter(std::function<void(const std::string&)> callback)
    : out_(nullptr), callback_(std::move(callback)) {
    require(static_cast<bool>(callback_), "JsonlTraceWriter: callback must be callable");
}

void JsonlTraceWriter::write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (out_ == nullptr) {
        callback_(line);
        return;
    }
    *out_ << line << '\n';
    // badbit/failbit after a write means the line was lost (disk full,
    // closed descriptor); surface it now rather than truncating silently.
    if (!*out_)
        throw std::runtime_error("JsonlTraceWriter: write failed" +
                                 (path_.empty() ? std::string() : " for " + path_));
}

void JsonlTraceWriter::on_start(const RunStartInfo& info) {
    std::ostringstream line;
    line << "{\"event\":\"start\",\"engine\":\"" << observed_engine_name(info.engine)
         << "\",\"population\":" << info.population << ",\"num_states\":" << info.num_states
         << ",\"seed\":" << info.seed << ",\"max_interactions\":" << info.max_interactions;
    if (info.initial != nullptr) {
        line << ',';
        append_counts(line, info.initial->counts());
    }
    if (info.protocol != nullptr) {
        line << ",\"state_names\":[";
        for (State q = 0; q < info.protocol->num_states(); ++q) {
            if (q != 0) line << ',';
            append_json_string(line, info.protocol->state_name(q));
        }
        line << ']';
    }
    line << '}';
    write_line(line.str());
}

void JsonlTraceWriter::on_snapshot(std::uint64_t interaction_index,
                                   const CountConfiguration& configuration) {
    std::ostringstream line;
    line << "{\"event\":\"snapshot\",\"t\":" << interaction_index;
    if (write_counts_) {
        line << ',';
        append_counts(line, configuration.counts());
    }
    line << '}';
    write_line(line.str());
}

void JsonlTraceWriter::on_output_change(std::uint64_t interaction_index) {
    std::ostringstream line;
    line << "{\"event\":\"output_change\",\"t\":" << interaction_index << '}';
    write_line(line.str());
}

void JsonlTraceWriter::on_engine_switch(const EngineSwitchInfo& info) {
    std::ostringstream line;
    line << "{\"event\":\"engine_switch\",\"t\":" << info.interactions << ",\"from\":\""
         << observed_engine_name(info.from) << "\",\"to\":\"" << observed_engine_name(info.to)
         << "\",\"signal\":" << info.signal << ",\"enter_threshold\":" << info.enter_threshold
         << ",\"exit_threshold\":" << info.exit_threshold
         << ",\"switch_index\":" << info.switch_index << '}';
    write_line(line.str());
}

void JsonlTraceWriter::on_stop(const RunResult& result, double wall_seconds) {
    if (result.telemetry != nullptr) write_line(telemetry_line(*result.telemetry));
    std::ostringstream line;
    line << "{\"event\":\"stop\",\"reason\":\"" << stop_reason_label(result.stop_reason)
         << "\",\"interactions\":" << result.interactions
         << ",\"effective_interactions\":" << result.effective_interactions
         << ",\"last_output_change\":" << result.last_output_change << ",\"consensus\":";
    if (result.consensus) {
        line << *result.consensus;
    } else {
        line << "null";
    }
    line << ",\"wall_seconds\":" << wall_seconds;
    if (write_counts_) {
        line << ',';
        append_counts(line, result.final_configuration.counts());
    }
    line << '}';
    write_line(line.str());
    const std::lock_guard<std::mutex> lock(mutex_);
    if (out_ != nullptr) out_->flush();
}

}  // namespace popproto
