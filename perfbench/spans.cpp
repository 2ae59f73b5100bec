#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

// The innermost open Span of this thread, and its group.
thread_local std::int64_t t_current = -1;
thread_local std::uint64_t t_group = 0;

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

SpanLog::SpanLog() : epoch_(Clock::now()) {}

std::uint64_t SpanLog::now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
}

std::int64_t SpanLog::begin(const std::string& name, std::uint64_t group, std::int64_t parent,
                            std::uint32_t lane) {
    SpanRecord record;
    record.name = name;
    record.group = group;
    record.parent = parent;
    record.lane = lane;
    record.begin_ns = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::end(std::int64_t index) {
    const std::uint64_t end = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(index)).end_ns = end;
}

std::uint64_t SpanLog::new_group() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_group_++;
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Child intervals per parent, merged so overlapping children (sessions
    // served concurrently) are not subtracted twice.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans_.size());
    for (const SpanRecord& span : spans_) {
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(span.begin_ns,
                                                                         span.end_ns);
    }
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& span = spans_[i];
        auto& intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        std::uint64_t covered = 0, reach = span.begin_ns;
        for (auto [begin, end] : intervals) {
            begin = std::max(begin, reach);
            end = std::min(end, span.end_ns);
            if (end > begin) {
                covered += end - begin;
                reach = end;
            }
        }
        const std::uint64_t duration = span.end_ns - span.begin_ns;
        SpanTotals& entry = totals[span.name];
        ++entry.count;
        entry.total_s += static_cast<double>(duration) * 1e-9;
        entry.self_s += static_cast<double>(duration - std::min(covered, duration)) * 1e-9;
    }
    return totals;
}

void SpanLog::write_chrome_trace(const std::string& path,
                                 const std::vector<std::pair<std::string, std::string>>& other,
                                 const std::map<std::uint32_t, std::string>& lane_names) const {
    const auto self = totals();
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open trace file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto& [key, value] : other) {
        out << (first ? "" : ",") << json_string(key) << ':' << value;
        first = false;
    }
    out << (first ? "" : ",") << "\"self_time_s\":{";
    first = true;
    for (const auto& [name, entry] : self) {
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer), "{\"count\":%llu,\"total\":%.9g,\"self\":%.9g}",
                      static_cast<unsigned long long>(entry.count), entry.total_s,
                      entry.self_s);
        out << (first ? "" : ",") << json_string(name) << ':' << buffer;
        first = false;
    }
    out << "}},\"traceEvents\":[";
    first = true;
    for (const auto& [lane, name] : lane_names) {
        out << (first ? "" : ",") << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
            << lane << ",\"args\":{\"name\":" << json_string(name) << "}}";
        first = false;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& span = spans_[i];
        char buffer[256];
        std::snprintf(buffer, sizeof(buffer),
                      ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"span\":%zu,\"parent\":%lld,\"group\":%llu}}",
                      span.lane, static_cast<double>(span.begin_ns) * 1e-3,
                      static_cast<double>(span.end_ns - span.begin_ns) * 1e-3, i,
                      static_cast<long long>(span.parent),
                      static_cast<unsigned long long>(span.group));
        out << (first ? "" : ",") << "{\"name\":" << json_string(span.name) << buffer;
        first = false;
    }
    out << "]}\n";
    out.flush();
    if (!out) throw std::runtime_error("cannot write trace file " + path);
}

Span::Span(SpanLog* log, const std::string& name, std::uint64_t group, std::uint32_t lane,
           std::int64_t parent)
    : log_(log) {
    if (log_ == nullptr) return;
    if (parent == kInheritParent) parent = t_current;
    if (group == 0) group = t_group;
    index_ = log_->begin(name, group, parent, lane);
    saved_parent_ = t_current;
    saved_group_ = t_group;
    t_current = index_;
    t_group = group;
}

Span::~Span() {
    if (log_ == nullptr) return;
    log_->end(index_);
    t_current = saved_parent_;
    t_group = saved_group_;
}

}  // namespace perfbench
