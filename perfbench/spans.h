// Spans recorded by the traced pass around each public call the benchmark
// makes (engine entry points, compile, wire requests, store calls, ladder
// rungs).  A span holds its name, start, end, parent span and the id of the
// run or session it belongs to.  Spans stay in memory and are written once,
// when the pass ends, as Chrome trace-event JSON (the schema
// scripts/check_telemetry.py validates).

#ifndef POPPROTO_PERFBENCH_SPANS_H
#define POPPROTO_PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct SpanRecord {
    std::string name;
    std::uint64_t group = 0;   ///< run or session id shared by related spans
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 at the top
    std::uint32_t lane = 0;    ///< Chrome tid: spans of one lane nest properly
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
};

/// Aggregate of all spans with one name.
struct SpanTotals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< duration minus the time its child spans cover
};

class SpanLog {
public:
    SpanLog();

    std::uint64_t now_ns() const;

    /// Reserves a slot and returns its index; close it with end().
    std::int64_t begin(const std::string& name, std::uint64_t group, std::int64_t parent,
                       std::uint32_t lane);
    void end(std::int64_t index);

    std::uint64_t new_group();

    /// Per-name totals with self time.
    std::map<std::string, SpanTotals> totals() const;

    /// Writes the Chrome trace; `other` entries go into otherData verbatim
    /// (values must already be JSON).  Throws std::runtime_error on failure.
    void write_chrome_trace(const std::string& path,
                            const std::vector<std::pair<std::string, std::string>>& other,
                            const std::map<std::uint32_t, std::string>& lane_names) const;

private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::uint64_t next_group_ = 1;
};

/// RAII span on the calling thread: the innermost open Span of the thread
/// is the parent of the next one (unless `parent` names another), and a
/// zero `group` inherits the parent's.  A null log records nothing (the
/// untraced passes), at the cost of one branch.
class Span {
public:
    static constexpr std::int64_t kInheritParent = -2;

    Span(SpanLog* log, const std::string& name, std::uint64_t group = 0, std::uint32_t lane = 0,
         std::int64_t parent = kInheritParent);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::int64_t index() const { return index_; }

private:
    SpanLog* log_;
    std::int64_t index_ = -1;
    std::int64_t saved_parent_ = -1;
    std::uint64_t saved_group_ = 0;
};

}  // namespace perfbench

#endif  // POPPROTO_PERFBENCH_SPANS_H
