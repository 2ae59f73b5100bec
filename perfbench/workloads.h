// The benchmark's workloads (perfbench/README.md "Workloads"): three
// Theorem 8 runs to silence through run_simulation, and a session mix
// against the real serve_popproto daemon over a Unix socket.

#ifndef POPPROTO_PERFBENCH_WORKLOADS_H
#define POPPROTO_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/configuration.h"
#include "core/simulator.h"
#include "core/tabulated_protocol.h"
#include "presburger/formula.h"
#include "service/session.h"
#include "spans.h"
#include "telemetry/telemetry.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Engine workloads: epidemic-serial, epidemic-parallel, predicate-serial

/// The paper's "at least 5% of the birds are fevered" predicate (Sect. 1):
/// x0 healthy, x1 fevered; true iff 20 x1 >= x0 + x1.
inline constexpr const char* kFeverPredicate = "x0 - 19*x1 < 1";

struct EngineWorkload {
    std::string name;
    std::uint64_t population = 0;
    unsigned threads = 1;
    bool predicate = false;  ///< compile kFeverPredicate instead of the epidemic
};

/// The workload's parameters (smoke mode shrinks the population); nullopt
/// for a name that is not an engine workload.
std::optional<EngineWorkload> engine_workload(const std::string& name, bool smoke);

/// What set-up builds once per pass: the protocol (the Theorem 5 compile for
/// the predicate), the initial configuration, and the expected verdict.
struct EngineSetup {
    std::unique_ptr<popproto::TabulatedProtocol> protocol;
    std::optional<popproto::CountConfiguration> initial;
    std::optional<popproto::Formula> formula;
    popproto::Symbol expected_consensus = popproto::kOutputTrue;
};

EngineSetup build_engine_setup(const EngineWorkload& workload, SpanLog* spans = nullptr);

/// Median wall seconds of one set-up (protocol build or compile plus the
/// initial configuration) over `samples` timed samples; cheap set-ups are
/// repeated inside a sample so that each sample spans at least two milliseconds.
double measure_setup_seconds(const EngineWorkload& workload, int samples);

/// Options of one run of the workload: defaults plus the thread count.
popproto::RunOptions engine_run_options(const EngineWorkload& workload, std::uint64_t seed);

/// True iff `result` is the correct Theorem 8 outcome: a silent stop with
/// effective_interactions == n - 1 (epidemic) or the consensus
/// Formula::evaluate predicts (predicate).  `inject_wrong` flips the
/// expectation, which the benchmark's own tests use to prove misses count.
bool engine_result_correct(const EngineWorkload& workload, const EngineSetup& setup,
                           const popproto::RunResult& result, bool inject_wrong);

struct EnginePass {
    std::vector<std::uint64_t> seeds;
    std::vector<double> run_seconds;
    std::vector<std::uint64_t> run_interactions;
    /// Per-run telemetry (traced passes only).
    std::vector<std::shared_ptr<const popproto::telemetry::RunTelemetry>> telemetry;

    double total_seconds() const;
};

/// Runs the workload to silence on fresh seeds from `seeds` until `seconds`
/// elapse (at least `min_runs`, at most `max_runs` runs), checking each
/// result into `result`.  With a span log every run gets a span and a
/// telemetry collector.
EnginePass run_engine_pass(const EngineWorkload& workload, const EngineSetup& setup,
                           SeedStream& seeds, double seconds, int min_runs, int max_runs,
                           bool inject_wrong, Result& result, SpanLog* spans);

/// The same seeds again, in order, under explicit options (parallel.efficiency
/// runs the parallel workload's seeds on the serial collapsed engine),
/// stopping once the runs took `max_seconds` (at least one run).
EnginePass rerun_engine_seeds(const EngineWorkload& workload, const EngineSetup& setup,
                              const std::vector<std::uint64_t>& seeds,
                              const popproto::RunOptions& base, bool inject_wrong,
                              Result& result, SpanLog* spans, const std::string& span_name,
                              double max_seconds = 1e300);

// ---------------------------------------------------------------------------
// The service daemon and the session mix

/// One serve_popproto child process on a Unix socket in the working
/// directory.  The destructor kills it and waits for it.
class Daemon {
public:
    /// Spawns the daemon and pings until it answers; `setup_seconds` is the
    /// time from spawn to the first ping that returns ok.  Throws
    /// std::runtime_error if it does not come up.
    Daemon(const std::string& binary, const std::string& socket, const std::string& spill_dir,
           unsigned workers);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    const std::string& socket() const { return socket_; }
    double setup_seconds() const { return setup_seconds_; }
    double peak_rss_mb() const;

private:
    std::string socket_;
    std::string spill_dir_;
    int pid_ = -1;
    double setup_seconds_ = 0.0;
};

/// Daemon worker threads of service-mix.
inline constexpr unsigned kDaemonWorkers = 2;
/// Client connections and sessions kept in flight (closed loop).
inline constexpr unsigned kMixConnections = 2;
inline constexpr unsigned kMixInFlight = 16;

/// The four session streams of the mix.
enum class Stream { kShort, kSliced, kEvicted, kModel };
inline constexpr int kNumStreams = 4;
const char* stream_name(Stream stream);

/// The stream's session spec.  short and model: a one-infected epidemic
/// of 1024 agents that runs to silence in one quantum.  sliced and evicted:
/// a budget-bound epidemic of 2^16 agents (budget 8n, below the ~16n
/// silence point) on the count-batch engine, cut into 8 quanta.
popproto::service::SessionSpec stream_spec(Stream stream, std::uint64_t seed, bool smoke);

/// The wire `submit` request for `spec`.
std::string submit_line(const popproto::service::SessionSpec& spec);

/// The fields a sliced session (or a ladder rung) must reproduce exactly
/// from a direct run_simulation of the same spec.
struct Outcome {
    std::string stop;
    std::uint64_t interactions = 0;
    std::uint64_t effective = 0;
    std::uint64_t last_change = 0;
    bool operator==(const Outcome&) const = default;
};

/// The wire name of a stop reason ("silent", "budget", ...).
const char* stop_reason_name(popproto::StopReason reason);
Outcome outcome_of(const popproto::RunResult& result);
/// From a `status` response of a finished session.
Outcome outcome_of(const popproto::service::JsonValue& status);

struct MixOutcome {
    double wall_seconds = 0.0;
    std::uint64_t completed = 0;
    /// Sessions completed, and their interactions, per second of each
    /// one-second window of the timed phase (rates over windows, so a pass
    /// reports medians that a brief stall of the shared host barely moves).
    std::vector<double> window_sessions_per_s;
    std::vector<double> window_interactions_per_s;
    std::vector<double> session_ms;  ///< submit -> done at the client
    std::vector<double> stream_ms[kNumStreams];
    std::vector<double> submit_rtt_ms;
    std::vector<double> status_rtt_ms;
    std::uint64_t rejected = 0;        ///< submits answered ok:false
    std::uint64_t evictions_seen = 0;  ///< evicted-stream sessions observed spilled
    std::string stats_json;            ///< the daemon's `stats` after the mix
};

/// Drives the daemon for `seconds` with kMixInFlight sessions in flight over
/// kMixConnections connections, then verifies every session into `result`.
MixOutcome run_service_mix(const Daemon& daemon, SeedStream& seeds, double seconds, bool smoke,
                           bool inject_wrong, Result& result, SpanLog* spans);

// ---------------------------------------------------------------------------
// Passes

/// --trace 0: the end-to-end metrics of one workload, untraced.
void end_to_end_pass(const Args& args, Result& result);

/// --trace 1: the layered traced pass (every per-layer metric).
void traced_pass(const Args& args, Result& result);

}  // namespace perfbench

#endif  // POPPROTO_PERFBENCH_WORKLOADS_H
