// Session model of the simulation service.
//
// A *session* is one simulated run owned by the daemon: a SessionSpec
// (what to run) plus the live lifecycle state the RunRegistry advances as
// workers execute bounded quanta of it.  The state machine (documented
// with transition edges in DESIGN.md "Service architecture"):
//
//             submit            scheduler           quantum expires
//   (new) --> kQueued  ------>  kRunning  --------> kQueued
//                ^                 |  \____ suspend ----> kSuspended
//                |                 |  \____ cancel -----> kCancelled
//                | resume          |  \____ error ------> kFailed
//                |                 \______ terminal ----> kDone
//             kSuspended --LRU evict--> kEvicted --resume--> kQueued
//
// kSuspended keeps the RunCheckpoint in memory; kEvicted has spilled it to
// the checkpoint store and holds only metadata.  Both resume bit-identically
// (same seed and boundaries => same RunResult as the uninterrupted run; the
// collapsed engine's super-step caveat is inherited from run_loop.h).

#ifndef POPPROTO_SERVICE_SESSION_H
#define POPPROTO_SERVICE_SESSION_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/tabulated_protocol.h"
#include "scenarios/scenario_spec.h"
#include "service/json.h"

namespace popproto::service {

/// What to simulate — the validated payload of a `submit` request, and the
/// part of a session that survives eviction and daemon restarts verbatim.
struct SessionSpec {
    /// One of "epidemic", "counting", "majority", "predicate".
    std::string protocol = "epidemic";

    /// Presburger predicate source (parser.h syntax) when protocol ==
    /// "predicate"; ignored otherwise.
    std::string predicate;

    /// Counting threshold when protocol == "counting" (the paper's
    /// count-to-five is threshold 5).
    std::uint32_t threshold = 5;

    /// Agents per input symbol (CountConfiguration::from_input_counts).
    std::vector<std::uint64_t> counts;

    /// "auto" | "agent" | "batch" | "collapsed" | "adaptive" (run_simulation
    /// dispatch; "adaptive" switches batch <-> collapsed mid-run).
    std::string engine = "auto";

    /// Pairing discipline: "uniform" (the classic scheduler, dispatched via
    /// run_simulation) or one of scenario_model_names() ("round_robin",
    /// "sweep", "adversarial", "dynamic_graph", "grid_mobility"), dispatched
    /// via run_scenario.  Non-uniform models require engine == "auto" and
    /// threads <= 1 (the pairing state is inherently sequential).
    std::string model = "uniform";

    /// adversarial: per-step look-ahead for null interactions.
    std::uint64_t probe = 16;

    /// dynamic_graph: named phase topologies ("complete", "ring", "line",
    /// "star"); required non-empty for that model.
    std::vector<std::string> phases;
    /// dynamic_graph: interactions per phase (0 resolves to 4n).
    std::uint64_t phase_length = 0;

    /// grid_mobility: torus dimensions (0 = auto-size) and Chebyshev
    /// contact radius.
    std::uint64_t torus_width = 0;
    std::uint64_t torus_height = 0;
    std::uint64_t radius = 1;

    /// Intra-run worker threads (collapsed engine only, like RunOptions).
    unsigned threads = 1;

    std::uint64_t seed = 1;

    /// Interaction budget; 0 selects default_budget(n).
    std::uint64_t budget = 0;

    /// Work-quantum length in interactions; 0 selects the registry default.
    /// Pause boundaries land on absolute multiples of this value, so a
    /// session's trajectory is independent of server load and of how often
    /// it was suspended/evicted in between.
    std::uint64_t quantum = 0;

    /// Scheduling weight: quanta granted per scheduler rotation (>= 1).
    std::uint64_t weight = 1;

    /// Snapshot period streamed to wire subscribers (0 = no snapshots).
    /// Snapshot indices are absolute, so the stream is independent of
    /// quantum boundaries.
    std::uint64_t snapshot_every = 0;

    /// When true, quanta run under a RunTelemetryCollector and the
    /// terminal "stop" event streamed to subscribers is preceded by the
    /// final quantum's "telemetry" event (jsonl_writer semantics).
    bool telemetry = false;

    /// Optional human-readable label echoed in status responses.
    std::string name;
};

/// Parses/serializes a spec for the wire protocol and spill manifests.
/// `parse_session_spec` checks types and ranges, then runs
/// validate_session_spec; both throw std::invalid_argument naming the
/// offending field.
SessionSpec parse_session_spec(const JsonValue& object);
JsonValue session_spec_to_json(const SessionSpec& spec);

/// The spec's cross-field rules (engine name, non-empty counts, weight,
/// predicate source, threads, model), shared by the wire parser and
/// RunRegistry::submit so both reject the same specs with the same message.
void validate_session_spec(const SessionSpec& spec);

/// Instantiates the spec's protocol (throws std::invalid_argument for an
/// unknown name or an uncompilable predicate) and its initial
/// configuration.  Deterministic: the same spec always yields the same
/// protocol tables, which is what makes re-building after eviction safe.
std::unique_ptr<TabulatedProtocol> build_protocol(const SessionSpec& spec);
CountConfiguration build_initial(const TabulatedProtocol& protocol, const SessionSpec& spec);

/// Maps the spec's engine string onto RunOptions::engine; throws on an
/// unknown name.
SimulationEngine parse_engine_name(const std::string& name);

/// Projects the spec's scenario fields onto a run_scenario ScenarioSpec
/// (meaningful only when spec.model != "uniform").
ScenarioSpec scenario_spec_from(const SessionSpec& spec);

/// Session lifecycle states (see the file comment for the machine).
enum class SessionState : std::uint8_t {
    kQueued,     ///< waiting in the fair scheduler for its next quantum
    kRunning,    ///< a worker is executing a quantum right now
    kSuspended,  ///< suspended by request; checkpoint resident in memory
    kEvicted,    ///< suspended and spilled; checkpoint lives on disk
    kDone,       ///< terminal: converged or exhausted its budget
    kFailed,     ///< terminal: a quantum threw; `error` carries the message
    kCancelled,  ///< terminal: cancelled by request
};

const char* session_state_name(SessionState state);

/// Point-in-time public view of a session (the `status` response payload).
struct SessionStatus {
    std::string id;
    std::string name;
    SessionState state = SessionState::kQueued;
    std::uint64_t interactions = 0;
    std::uint64_t effective_interactions = 0;
    std::uint64_t quanta = 0;  ///< work quanta executed so far
    /// Terminal runs only: the final stop reason / consensus / convergence.
    std::optional<StopReason> stop_reason;
    std::optional<Symbol> consensus;
    std::uint64_t last_output_change = 0;
    std::string error;  ///< kFailed only
};

/// Serializes a status as the wire response payload.
JsonValue session_status_to_json(const SessionStatus& status);

}  // namespace popproto::service

#endif  // POPPROTO_SERVICE_SESSION_H
