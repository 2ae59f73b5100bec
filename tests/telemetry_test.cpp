// Runtime telemetry (src/telemetry): the telemetry-never-perturbs contract,
// the collector aggregates, and both exporters.
//
// The load-bearing test is non-perturbation: a run with a collector
// attached must be bit-identical (same interactions, same RunResult
// counts) to one without, on every engine and for every thread count —
// telemetry reads clocks and counters but never the RNG stream or the
// configuration.  The exporter tests hold the Chrome trace to well-formed
// JSON with properly nested spans and the Prometheus exposition to the
// documented metric families; the JsonlTraceWriter tests here are the
// regression suite for the error-path bugfix (open/write failures name the
// path instead of silently truncating).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "core/batch_simulator.h"
#include "core/observer.h"
#include "core/simulator.h"
#include "graphs/graph_simulation.h"
#include "graphs/interaction_graph.h"
#include "observe/jsonl_writer.h"
#include "observe/metrics.h"
#include "protocols/counting.h"
#include "protocols/epidemic.h"
#include "randomized/trials.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/prometheus.h"
#include "telemetry/telemetry.h"
#include "test_util.h"

namespace popproto {
namespace {

using telemetry::Phase;
using telemetry::RunTelemetry;
using telemetry::RunTelemetryCollector;
using testutil::JsonChecker;
using testutil::run_collapsed;
using testutil::run_count_batch;

bool results_equal(const RunResult& a, const RunResult& b) {
    return a.stop_reason == b.stop_reason && a.interactions == b.interactions &&
           a.effective_interactions == b.effective_interactions &&
           a.last_output_change == b.last_output_change && a.consensus == b.consensus &&
           a.final_configuration.counts() == b.final_configuration.counts();
}

RunOptions base_options(std::uint64_t budget, std::uint64_t seed) {
    RunOptions options;
    options.max_interactions = budget;
    options.seed = seed;
    return options;
}

std::uint64_t phase_ns(const RunTelemetry& data, Phase phase) {
    return data.phases[static_cast<std::size_t>(phase)].total_ns;
}

std::uint64_t phase_calls(const RunTelemetry& data, Phase phase) {
    return data.phases[static_cast<std::size_t>(phase)].calls;
}

// --- Histograms ----------------------------------------------------------

TEST(Telemetry, Log2HistogramBucketsByFloorLog2) {
    telemetry::Log2Histogram h;
    // Bucket b holds [2^b, 2^(b+1)); zero lands in bucket 0 alongside 1.
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    h.record(1023);
    EXPECT_EQ(h.count, 6u);
    EXPECT_EQ(h.sum, 0u + 1 + 2 + 3 + 4 + 1023);
    EXPECT_EQ(h.buckets[0], 2u);  // 0 and 1
    EXPECT_EQ(h.buckets[1], 2u);  // 2 and 3
    EXPECT_EQ(h.buckets[2], 1u);  // 4
    EXPECT_EQ(h.buckets[9], 1u);  // 1023
    EXPECT_EQ(h.buckets[10], 0u);

    // A run fills the fixed histograms once per skip / super-step.
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {4000, 96});
    RunTelemetryCollector collector;
    RunOptions options = base_options(default_budget(4096), 42);
    options.telemetry = &collector;
    const auto batch = run_count_batch(*protocol, initial, options).telemetry;
    EXPECT_EQ(batch->null_skip_length_log2.count, batch->geometric_skips);
    EXPECT_EQ(batch->null_skip_length_log2.sum, batch->null_interactions_skipped);
    EXPECT_EQ(batch->super_step_pairs_log2.count, 0u);
    const auto collapsed = run_collapsed(*protocol, initial, options).telemetry;
    EXPECT_EQ(collapsed->super_step_pairs_log2.count, collapsed->super_steps);
    EXPECT_EQ(collapsed->super_step_pairs_log2.sum, collapsed->super_step_pairs);
    EXPECT_EQ(collapsed->null_skip_length_log2.count, 0u);
}

TEST(Telemetry, ScopedTimerWithNullCollectorIsANoOp) {
    // The disabled fast path: a null collector must be safe at every probe
    // site (this is what every un-instrumented run exercises).
    { const telemetry::ScopedTimer timer(nullptr, Phase::kSnapshotDispatch); }
    RunTelemetryCollector* collector = nullptr;
    { const telemetry::ScopedTimer timer(collector, Phase::kSuperStepApply); }
}

// --- Telemetry never perturbs any engine ---------------------------------

TEST(Telemetry, DoesNotPerturbAgentArray) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    const RunOptions plain = base_options(default_budget(64), 31);
    const RunResult unobserved = simulate(*protocol, initial, plain);

    RunTelemetryCollector collector;
    RunOptions instrumented = plain;
    instrumented.telemetry = &collector;
    const RunResult result = simulate(*protocol, initial, instrumented);

    EXPECT_TRUE(results_equal(result, unobserved));
    ASSERT_NE(result.telemetry, nullptr);
    EXPECT_EQ(result.telemetry->engine, "agent_array");
    EXPECT_EQ(result.telemetry->population, 64u);
    EXPECT_EQ(result.telemetry->threads, 1u);
    EXPECT_EQ(result.telemetry->interactions, result.interactions);
    EXPECT_GT(result.telemetry->wall_ns, 0u);
    // Per-interaction engines report their stepping as the derived phase.
    EXPECT_GT(phase_ns(*result.telemetry, Phase::kStepping), 0u);
    EXPECT_EQ(result.telemetry->super_steps, 0u);
}

TEST(Telemetry, DoesNotPerturbBatchEngine) {
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    const RunOptions plain = base_options(default_budget(64), 32);
    const RunResult unobserved = run_count_batch(*protocol, initial, plain);

    RunTelemetryCollector collector;
    RunOptions instrumented = plain;
    instrumented.telemetry = &collector;
    const RunResult result = run_count_batch(*protocol, initial, instrumented);

    EXPECT_TRUE(results_equal(result, unobserved));
    ASSERT_NE(result.telemetry, nullptr);
    // Geometric-skip accounting reconciles exactly with the run totals —
    // and with what an observer would have been told (the counting
    // protocol goes silent, so every null interaction sits in a skip).
    EXPECT_EQ(result.telemetry->null_interactions_skipped,
              result.interactions - result.effective_interactions);
    if (result.interactions != result.effective_interactions) {
        EXPECT_GT(result.telemetry->geometric_skips, 0u);
    }
}

TEST(Telemetry, SkipAccountingMatchesObserverWithoutAnObserver) {
    // The skip counters come from the kernel's null-run tallies and must
    // not depend on an observer being attached: the telemetry of an
    // observer-free run equals the observer's tally of an observed one,
    // and its histogram equals the run's tallies bucket for bucket.
    const auto protocol = make_counting_protocol(5);
    const auto initial = CountConfiguration::from_input_counts(*protocol, {57, 7});
    const RunOptions plain = base_options(default_budget(64), 33);

    MetricsAccumulator metrics;
    RunOptions observed = plain;
    observed.observer = &metrics;
    run_count_batch(*protocol, initial, observed);

    RunTelemetryCollector collector;
    RunOptions instrumented = plain;
    instrumented.telemetry = &collector;
    const RunResult result = run_count_batch(*protocol, initial, instrumented);
    EXPECT_EQ(result.telemetry->null_interactions_skipped,
              metrics.report().null_interactions_skipped);
    const telemetry::Log2Histogram& histogram = result.telemetry->null_skip_length_log2;
    EXPECT_GT(result.tallies.null_runs, 0u);
    EXPECT_EQ(histogram.count, result.tallies.null_runs);
    EXPECT_EQ(histogram.sum, result.tallies.null_interactions);
    for (std::size_t b = 0; b < histogram.buckets.size(); ++b)
        EXPECT_EQ(histogram.buckets[b], result.tallies.null_run_length_log2[b]) << "bucket " << b;
}

TEST(Telemetry, DoesNotPerturbWeightedEngine) {
    const auto protocol = make_epidemic_protocol();
    std::vector<Symbol> inputs(20, 0);
    inputs[0] = 1;
    const auto initial = AgentConfiguration::from_inputs(*protocol, inputs);
    std::vector<double> weights(20);
    for (std::size_t i = 0; i < weights.size(); ++i) weights[i] = 1.0 + 0.25 * (i % 4);

    const RunOptions plain = base_options(default_budget(20), 34);
    const RunResult unobserved = simulate_weighted(*protocol, initial, weights, plain);

    RunTelemetryCollector collector;
    RunOptions instrumented = plain;
    instrumented.telemetry = &collector;
    const RunResult result = simulate_weighted(*protocol, initial, weights, instrumented);

    EXPECT_TRUE(results_equal(result, unobserved));
    ASSERT_NE(result.telemetry, nullptr);
    EXPECT_EQ(result.telemetry->engine, "weighted");
}

TEST(Telemetry, DoesNotPerturbGraphEngine) {
    const auto protocol = make_epidemic_protocol();
    const InteractionGraph graph = InteractionGraph::ring(16);
    std::vector<Symbol> inputs(16, 0);
    inputs[3] = 1;
    RunOptions plain = base_options(default_budget(16), 35);
    plain.stop_after_stable_outputs = 2000;
    const GraphRunResult unobserved = simulate_on_graph(*protocol, graph, inputs, plain);

    RunTelemetryCollector collector;
    RunOptions instrumented = plain;
    instrumented.telemetry = &collector;
    const GraphRunResult result = simulate_on_graph(*protocol, graph, inputs, instrumented);

    EXPECT_EQ(result.stop_reason, unobserved.stop_reason);
    EXPECT_EQ(result.interactions, unobserved.interactions);
    EXPECT_EQ(result.effective_interactions, unobserved.effective_interactions);
    EXPECT_EQ(result.last_output_change, unobserved.last_output_change);
    EXPECT_EQ(result.consensus, unobserved.consensus);
    EXPECT_EQ(result.final_configuration.states(), unobserved.final_configuration.states());
    EXPECT_EQ(collector.telemetry().engine, "graph");
}

TEST(Telemetry, DoesNotPerturbCollapsedEngineAcrossThreadCounts) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {4000, 96});
    for (const unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        RunOptions plain = base_options(default_budget(4096), 36);
        plain.threads = threads;
        const RunResult unobserved = run_collapsed(*protocol, initial, plain);

        RunTelemetryCollector collector;
        RunOptions instrumented = plain;
        instrumented.telemetry = &collector;
        const RunResult result = run_collapsed(*protocol, initial, instrumented);

        EXPECT_TRUE(results_equal(result, unobserved));
        const RunTelemetry& data = *result.telemetry;
        EXPECT_EQ(data.engine, threads > 1 ? "parallel_collapsed" : "collapsed");
        EXPECT_EQ(data.threads, threads);
        EXPECT_GT(data.super_steps, 0u);
        // Super-step bookkeeping reconciles with the run totals: the
        // super-steps' interactions sum to the run's interactions.
        EXPECT_EQ(data.super_step_pairs, data.interactions);
        EXPECT_GT(phase_calls(data, Phase::kRunLengthDraw), 0u);
        EXPECT_EQ(phase_calls(data, Phase::kSuperStepApply), data.super_steps);
        EXPECT_GT(phase_calls(data, Phase::kWRecompute), 0u);
        if (threads > 1) {
            // The sharded stepper does its cascades inside the shard tasks
            // (kShardTask worker spans); the driving thread times the carve
            // and the fan-out section instead.  At this population most
            // rounds fall under the inline threshold, so only the round
            // split — not pooled dispatch — is guaranteed.
            EXPECT_GT(phase_calls(data, Phase::kShardCarve), 0u);
            EXPECT_GT(phase_calls(data, Phase::kShardTasks), 0u);
            EXPECT_EQ(data.shards.size(), threads);
            EXPECT_EQ(data.pool_rounds + data.inline_rounds, data.super_steps);
        } else {
            EXPECT_GT(phase_calls(data, Phase::kPairCascade), 0u);
        }
    }
}

TEST(Telemetry, ShardUtilizationPopulatedOncePoolEngages) {
    // Pooled dispatch needs super-steps of >= kMinPairsPerWorker * K
    // deferred pairs (~T = 1.5 sqrt(n) per step, less a few events), so use
    // a population large enough that the pool actually engages: n = 2^16,
    // K = 2 gives ~380-pair bulk realizations against a 128-pair threshold.
    const auto protocol = make_epidemic_protocol();
    const auto initial =
        CountConfiguration::from_input_counts(*protocol, {(1u << 16) - 1, 1});
    RunOptions options = base_options(0, 37);  // 0 = default budget for n
    options.threads = 2;

    RunTelemetryCollector collector;
    options.telemetry = &collector;
    run_collapsed(*protocol, initial, options);

    const RunTelemetry& data = collector.telemetry();
    ASSERT_EQ(data.shards.size(), 2u);
    EXPECT_GT(data.pool_rounds, 0u);
    for (std::size_t k = 0; k < data.shards.size(); ++k) {
        SCOPED_TRACE("shard " + std::to_string(k));
        EXPECT_EQ(data.shards[k].tasks, data.pool_rounds);
        EXPECT_GT(data.shards[k].busy_ns, 0u);
        // busy + wait = K * (summed round wall) by construction, so each
        // shard's busy share is bounded by the total round time.
        EXPECT_LE(data.shards[k].busy_ns, data.shards[k].busy_ns + data.shards[k].wait_ns);
    }
    EXPECT_GT(phase_calls(data, Phase::kShardTasks), 0u);
}

TEST(Telemetry, CollectorIsReusableAcrossRuns) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {63, 1});
    RunTelemetryCollector collector;
    RunOptions options = base_options(default_budget(64), 38);
    options.telemetry = &collector;

    const RunResult first = run_count_batch(*protocol, initial, options);
    const std::shared_ptr<const RunTelemetry> first_data = first.telemetry;
    EXPECT_EQ(first_data->interactions, first.interactions);

    // begin_run resets: the second run's telemetry starts from zero and the
    // first run's snapshot (shared_ptr) is left untouched.
    options.seed = 39;
    const RunResult second = simulate(*protocol, initial, options);
    EXPECT_EQ(second.telemetry->engine, "agent_array");
    EXPECT_EQ(second.telemetry->interactions, second.interactions);
    EXPECT_EQ(first_data->engine, "count_batch");
    EXPECT_EQ(first_data->interactions, first.interactions);
    EXPECT_NE(first.telemetry.get(), second.telemetry.get());
}

TEST(Telemetry, MeasureTrialsRejectsASharedCollector) {
    // A collector instruments exactly one run; a trial fan-out would
    // interleave begin_run/finish_run across workers.
    RunTelemetryCollector collector;
    TrialOptions options;
    options.trials = 2;
    options.base.telemetry = &collector;
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {15, 1});
    EXPECT_THROW(measure_trials(*protocol, initial, options), std::invalid_argument);
}

// --- Chrome trace exporter -----------------------------------------------

/// Runs a collapsed threads=2 run and returns its telemetry (shared
/// fixture for the exporter tests).
std::shared_ptr<const RunTelemetry> instrumented_collapsed_run() {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {4000, 96});
    RunOptions options = base_options(default_budget(4096), 40);
    options.threads = 2;
    RunTelemetryCollector collector;
    options.telemetry = &collector;
    return run_collapsed(*protocol, initial, options).telemetry;
}

TEST(ChromeTrace, EmitsValidJsonWithNestedSpans) {
    const std::shared_ptr<const RunTelemetry> data = instrumented_collapsed_run();
    ASSERT_NE(data, nullptr);
    ASSERT_FALSE(data->spans.empty());

    std::ostringstream out;
    telemetry::write_chrome_trace(out, *data);
    const std::string json = out.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\":"), std::string::npos);
    // Thread-name metadata for the driving thread, complete events after.
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("\"run_loop\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"super_step_apply\""), std::string::npos);

    // Spans nest properly per thread: any two either don't overlap or one
    // contains the other (this is what makes the flame graph render as a
    // stack — a half-overlap means a probe closed out of order).
    std::map<std::uint32_t, std::vector<const telemetry::TraceSpan*>> by_tid;
    for (const telemetry::TraceSpan& span : data->spans) {
        EXPECT_LE(span.begin_ns, span.end_ns);
        by_tid[span.tid].push_back(&span);
    }
    for (const auto& [tid, spans] : by_tid) {
        for (std::size_t i = 0; i < spans.size(); ++i) {
            for (std::size_t j = i + 1; j < spans.size(); ++j) {
                const auto* a = spans[i];
                const auto* b = spans[j];
                const bool disjoint = a->end_ns <= b->begin_ns || b->end_ns <= a->begin_ns;
                const bool a_in_b = b->begin_ns <= a->begin_ns && a->end_ns <= b->end_ns;
                const bool b_in_a = a->begin_ns <= b->begin_ns && b->end_ns <= a->end_ns;
                ASSERT_TRUE(disjoint || a_in_b || b_in_a)
                    << "tid " << tid << ": span [" << a->begin_ns << ", " << a->end_ns
                    << ") half-overlaps [" << b->begin_ns << ", " << b->end_ns << ")";
            }
        }
    }
}

TEST(ChromeTrace, FileWriterNamesThePathOnFailure) {
    const RunTelemetry data;
    try {
        telemetry::write_chrome_trace_file("/nonexistent-dir-popproto/trace.json", data);
        FAIL() << "expected an exception";
    } catch (const std::exception& error) {
        EXPECT_NE(std::string(error.what()).find("/nonexistent-dir-popproto/trace.json"),
                  std::string::npos)
            << error.what();
    }
}

// --- Prometheus exporter -------------------------------------------------

TEST(Prometheus, EmitsDocumentedMetricFamilies) {
    const std::shared_ptr<const RunTelemetry> data = instrumented_collapsed_run();
    ASSERT_NE(data, nullptr);

    std::ostringstream out;
    telemetry::write_prometheus(out, *data);
    const std::string text = out.str();

    for (const char* needle : {
             "# TYPE popproto_run_info gauge",
             "popproto_run_info{engine=\"parallel_collapsed\"",
             "popproto_run_wall_seconds",
             "# TYPE popproto_phase_seconds_total counter",
             "popproto_phase_seconds_total{phase=\"super_step_apply\"}",
             "popproto_phase_calls_total{phase=\"run_length_draw\"}",
             "popproto_shard_busy_seconds_total{shard=\"0\"}",
             "popproto_shard_wait_seconds_total{shard=\"1\"}",
             "popproto_pool_rounds_total{path=\"pooled\"}",
             "popproto_pool_rounds_total{path=\"inline\"}",
             "popproto_super_steps_total",
             "popproto_run_interactions_total",
         }) {
        EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
    }

    // Exposition-format hygiene: every line is a comment or `name value` /
    // `name{labels} value`, and the payload ends with a newline.
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#') continue;
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        ASSERT_GT(space, 0u) << line;
        // The value parses as a double.
        EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    }
}

TEST(Prometheus, FileWriterNamesThePathOnFailure) {
    const RunTelemetry data;
    try {
        telemetry::write_prometheus_file("/nonexistent-dir-popproto/run.prom", data);
        FAIL() << "expected an exception";
    } catch (const std::exception& error) {
        EXPECT_NE(std::string(error.what()).find("/nonexistent-dir-popproto/run.prom"),
                  std::string::npos)
            << error.what();
    }
}

// --- JsonlTraceWriter integration + error-path regressions ---------------

TEST(Telemetry, JsonlWriterEmitsOneTelemetryEventBeforeStop) {
    const auto protocol = make_epidemic_protocol();
    const auto initial = CountConfiguration::from_input_counts(*protocol, {63, 1});

    std::ostringstream out;
    JsonlTraceWriter writer(out);
    RunTelemetryCollector collector;
    RunOptions options = base_options(default_budget(64), 41);
    options.observer = &writer;
    options.telemetry = &collector;
    run_count_batch(*protocol, initial, options);

    std::vector<std::string> lines;
    {
        std::istringstream in(out.str());
        std::string line;
        while (std::getline(in, line)) lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 3u);
    for (const std::string& line : lines) {
        JsonChecker checker(line);
        EXPECT_TRUE(checker.valid()) << line;
    }
    // Exactly one telemetry event, immediately before the stop event.
    const std::string prefix = "{\"event\":\"telemetry\"";
    std::size_t telemetry_lines = 0;
    for (const std::string& line : lines)
        if (line.compare(0, prefix.size(), prefix) == 0) ++telemetry_lines;
    EXPECT_EQ(telemetry_lines, 1u);
    EXPECT_EQ(lines[lines.size() - 2].compare(0, prefix.size(), prefix), 0);
    EXPECT_NE(lines[lines.size() - 2].find("\"phases\":{"), std::string::npos);
    const std::string stop_prefix = "{\"event\":\"stop\"";
    EXPECT_EQ(lines.back().compare(0, stop_prefix.size(), stop_prefix), 0);

    // Without a collector there is no telemetry event.
    std::ostringstream plain_out;
    JsonlTraceWriter plain_writer(plain_out);
    options.telemetry = nullptr;
    options.observer = &plain_writer;
    run_count_batch(*protocol, initial, options);
    EXPECT_EQ(plain_out.str().find("\"event\":\"telemetry\""), std::string::npos);
}

TEST(JsonlTraceWriter, OpenFailureNamesThePath) {
    try {
        const JsonlTraceWriter writer("/nonexistent-dir-popproto/trace.jsonl");
        FAIL() << "expected an exception";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("/nonexistent-dir-popproto/trace.jsonl"),
                  std::string::npos)
            << error.what();
    }
}

/// A streambuf that accepts nothing: every overflow reports failure, the
/// way a closed pipe or a full disk surfaces through an ostream.
class FailingBuf final : public std::streambuf {
protected:
    int_type overflow(int_type) override { return traits_type::eof(); }
};

TEST(JsonlTraceWriter, MidRunWriteFailureThrowsInsteadOfTruncating) {
    // Regression: a failed stream used to be ignored, silently truncating
    // the trace; now the first lost line throws.
    FailingBuf buf;
    std::ostream broken(&buf);
    JsonlTraceWriter writer(broken);
    RunStartInfo info;
    info.engine = ObservedEngine::kCountBatch;
    info.population = 2;
    info.num_states = 2;
    EXPECT_THROW(writer.on_start(info), std::runtime_error);
}

TEST(JsonlTraceWriter, WriteFailureOnAnOpenedFileNamesThePath) {
    // A full disk mid-run must surface the path, not just "write failed".
    // /dev/full opens fine and fails every flush with ENOSPC — exactly the
    // failure the bug silently swallowed.
    if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "/dev/full unavailable";
    JsonlTraceWriter writer("/dev/full");
    try {
        // The ofstream buffers, so the failure may surface a few lines in;
        // ~10k short lines overflow any sane buffer.
        for (int i = 0; i < 10000; ++i) writer.on_output_change(i);
        FAIL() << "expected a write failure against /dev/full";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
            << error.what();
    }
}

}  // namespace
}  // namespace popproto
