// RunRegistry: the session multiplexer at the core of the service daemon.
//
// Thousands of concurrent runs share a small pool of long-running worker
// threads.  Each worker repeatedly asks the DrrScheduler (scheduler.h) for
// the next session and executes one bounded *work quantum* of it: the run
// resumes from its in-memory RunCheckpoint, executes until the next
// absolute multiple of its quantum length (RunOptions::pause_after), saves
// the checkpoint the kernel delivers, and re-enters the fair queue.  Pause
// boundaries therefore sit on a per-session grid that does not depend on
// server load, worker count, or suspend/evict history — which is what makes
// a sliced run's RunResult bit-identical to the uninterrupted run with the
// same seed (run_loop.h; collapsed super-step caveat inherited).
//
// Suspended sessions beyond `max_resident_suspended` are spilled to the
// CheckpointStore by an LRU evictor (least recently dispatched first) and
// faulted back in on their next quantum.  `drain()` — the SIGTERM path —
// cooperatively stops every in-flight quantum at a loop boundary,
// checkpoints every non-terminal session to disk, and writes one manifest
// per session; `restore()` reverses this on restart, losing nothing.
//
// A session that reaches done, failed or cancelled leaves the live table
// for a compact FinishedSession record holding only what status, list,
// subscribe, stats and drain report; its spec, checkpoint, protocol and
// subscribers are released.  The daemon keeps every session it ever ran, so
// records are stored by session number in dense pages, 56 bytes each (plus
// the name or error text of a session that has one), and everything that
// scans sessions under the lock walks only the live table.
//
// A quantum attaches the session's trace observer only when the session
// has subscribers at dispatch; an unwatched quantum runs with no observer,
// so the kernel steps it without a single call.  A subscriber who attaches
// mid-quantum is served from the next quantum on (and always receives the
// final state event).
//
// Locking: one registry mutex guards the session table, the scheduler, the
// aggregate metrics and all lifecycle transitions; quanta execute outside
// the lock (a kRunning session's mutable state is owned by exactly one
// worker), and each settled quantum folds its RunResult (counters and the
// kernel's event tallies) into the aggregate metrics.  Subscriber fan-out
// uses a separate mutex so trace streaming does not serialize against
// scheduling.

#ifndef POPPROTO_SERVICE_REGISTRY_H
#define POPPROTO_SERVICE_REGISTRY_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/run_loop.h"
#include "core/simulator.h"
#include "observe/metrics.h"
#include "service/checkpoint_store.h"
#include "service/scheduler.h"
#include "service/session.h"

namespace popproto::service {

/// Receives one serialized JSONL event line per call; must be thread-safe
/// (events fire on worker threads) and must not call back into the
/// registry.
using LineSink = std::function<void(const std::string&)>;

/// Thrown by submit when the admission queue is at capacity.  Carries the
/// numbers the wire layer needs to build a structured "queue_full" error
/// (dispatch_request emits code/queued/max_queued fields instead of the
/// plain error string).
class QueueFullError : public std::runtime_error {
public:
    QueueFullError(std::size_t queued, std::size_t max_queued)
        : std::runtime_error("submit: admission queue is full (" +
                             std::to_string(queued) + " of " + std::to_string(max_queued) +
                             " sessions queued or running)"),
          queued(queued),
          max_queued(max_queued) {}

    std::size_t queued;
    std::size_t max_queued;
};

struct RegistryOptions {
    /// Worker threads executing quanta; 0 selects hardware concurrency.
    unsigned workers = 1;

    /// Admission bound: submit throws QueueFullError when this many
    /// sessions are already queued or running (0 = unlimited).  Suspended,
    /// evicted, and terminal sessions do not count against the bound.
    std::size_t max_queued = 0;

    /// Quantum length for sessions that do not set SessionSpec::quantum.
    std::uint64_t default_quantum = std::uint64_t{1} << 16;

    /// Suspended sessions whose checkpoints stay in memory; beyond this the
    /// LRU evictor spills to the store (0 = every suspend spills, which is
    /// what the eviction tests use).
    std::size_t max_resident_suspended = 64;

    /// Spill directory (checkpoints + manifests); created on demand.
    std::string spill_dir = "popproto-spill";
};

class RunRegistry {
public:
    explicit RunRegistry(RegistryOptions options);

    /// Stops workers without draining (in-memory state is discarded; use
    /// drain() first for a graceful shutdown).
    ~RunRegistry();

    /// Validates the spec (protocol instantiation included), creates a
    /// session, and queues its first quantum.  Returns the session id
    /// ("s-1", "s-2", ...).  Throws std::invalid_argument on a bad spec.
    std::string submit(const SessionSpec& spec);

    /// Point-in-time status; throws std::invalid_argument for unknown ids.
    SessionStatus status(const std::string& id) const;
    std::vector<SessionStatus> list() const;

    /// Lifecycle commands.  suspend/cancel of a running session interrupt
    /// its quantum cooperatively (the kernel checkpoint at the stop
    /// boundary is kept for suspend, discarded for cancel); both are
    /// idempotent where that is meaningful and throw std::invalid_argument
    /// when the transition is impossible (e.g. resuming a finished run).
    void suspend(const std::string& id);
    void resume(const std::string& id);
    void cancel(const std::string& id);

    /// Streams the session's JSONL trace events ({"session":"s-1",
    /// "event":...}) to `sink` until unsubscribed.  `token` is the caller's
    /// handle for unsubscribe (connection teardown).  A terminal session
    /// immediately receives a final synthetic "state" event instead, and
    /// the sink is not kept.
    void subscribe(const std::string& id, std::uint64_t token, LineSink sink);
    void unsubscribe(const std::string& id, std::uint64_t token);

    /// Aggregate counters: per-state session counts, eviction/fault
    /// totals, quanta executed, and the metrics aggregate over every
    /// settled quantum (stats_json embeds MetricsReport::to_json under
    /// "metrics"; quanta still executing are not in it yet).
    std::string stats_json() const;

    /// Graceful shutdown: stop dispatching, interrupt in-flight quanta at
    /// their next loop boundary, checkpoint every non-terminal session to
    /// the store, and write one manifest per session (without a spec for
    /// terminal sessions).  Idempotent.
    void drain();

    /// Recreates sessions from the store's manifests (the complement of
    /// drain, called before serving).  Non-terminal sessions re-enter the
    /// queue and fault their checkpoints back on first dispatch.  Returns
    /// the number of sessions restored.
    std::size_t restore();

    /// Blocks until no session is queued or running (test/drain helper).
    void wait_idle();

    const CheckpointStore& store() const { return store_; }

private:
    /// A done, failed or cancelled session, reduced to what status, list,
    /// subscribe, stats and drain report.
    struct FinishedSession {
        /// The session's name and error message (kFailed only), allocated
        /// only when either is non-empty: most sessions carry neither, and
        /// two inline strings would double the record.
        struct Text {
            std::string name;
            std::string error;
        };
        static std::unique_ptr<Text> make_text(std::string name, std::string error);

        std::uint64_t interactions = 0;
        std::uint64_t effective_interactions = 0;
        std::uint64_t last_output_change = 0;
        std::uint64_t quanta = 0;
        std::unique_ptr<Text> text;
        std::optional<StopReason> stop_reason;  // kDone only
        Symbol consensus = 0;                   // meaningful iff has_consensus
        bool has_consensus = false;
        /// A terminal state; kQueued marks a page slot that holds no record.
        SessionState state = SessionState::kQueued;

        SessionStatus status(const std::string& id) const;
    };

    /// A live session: queued, running, suspended or evicted.
    struct Session {
        std::string id;
        SessionSpec spec;
        SessionState state = SessionState::kQueued;
        std::uint64_t quantum = 1;  // resolved from spec/default

        // Progress counters (updated under the registry mutex at quantum
        // boundaries; mid-quantum reads see the last boundary).
        std::uint64_t interactions = 0;
        std::uint64_t effective_interactions = 0;
        std::uint64_t last_output_change = 0;
        std::uint64_t quanta = 0;

        // Resumable state.  `checkpoint` is resident iff the session has
        // progress and was not evicted; `checkpoint_on_disk` means the
        // store holds a (possibly additional) copy to fault from.
        std::optional<RunCheckpoint> checkpoint;
        bool checkpoint_on_disk = false;

        // Compiled protocol, built lazily and dropped on eviction (the
        // spec rebuilds it deterministically).
        std::unique_ptr<TabulatedProtocol> protocol;

        // Cooperative-interrupt plumbing (suspend/cancel/drain).
        std::atomic<bool> stop_requested{false};
        enum class PendingOp { kNone, kSuspend, kCancel } pending = PendingOp::kNone;

        /// LRU stamp: the dispatch clock value of the last quantum.
        std::uint64_t last_dispatched = 0;

        /// Wire subscribers (guarded by subscriber_mutex_); the atomic
        /// count lets the trace observer skip serialization entirely when
        /// nobody is listening.
        std::vector<std::pair<std::uint64_t, LineSink>> subscribers;
        std::atomic<std::size_t> subscriber_count{0};

        SessionStatus status() const;
        /// The record this session leaves on reaching terminal `state`.
        FinishedSession finished(SessionState state, std::string error = {}) const;
    };

    /// What one quantum produced, handed from the unlocked execution back
    /// to the locked lifecycle transition.
    struct QuantumOutcome {
        std::optional<RunCheckpoint> checkpoint;  // kPaused quanta only
        std::optional<RunResult> result;          // absent when `error` is set
        std::string error;
        bool faulted = false;  // checkpoint was loaded back from the store
        double wall_seconds = 0.0;  // the quantum's run, for the metrics
    };

    /// The locked transition's outputs the worker acts on after unlocking.
    struct Settled {
        bool runnable = false;       // session re-enters the ring
        std::string state_event;     // synthetic event to publish, if any
    };

    void worker_loop();
    std::size_t backlog_locked() const;
    QuantumOutcome run_one_quantum(Session& session);
    Settled settle_after_quantum(Session& session, QuantumOutcome outcome);
    void evict_lru_locked();
    void publish(Session& session, const std::string& line);
    std::shared_ptr<Session> find_live_locked(const std::string& id) const;
    const FinishedSession* find_finished_locked(const std::string& id) const;
    void retire_locked(const Session& session, FinishedSession record);
    void add_finished_locked(std::uint64_t number, FinishedSession record);
    std::size_t finished_count_locked() const;
    /// Calls visit(id, record) for every finished session.  Caller holds
    /// mutex_.
    template <typename Visit>
    void for_each_finished_locked(Visit&& visit) const {
        for (const auto& [page_number, page] : finished_)
            for (std::uint64_t slot = 0; slot < kFinishedPage; ++slot)
                if ((*page)[slot].state != SessionState::kQueued)
                    visit("s-" + std::to_string(page_number * kFinishedPage + slot),
                          (*page)[slot]);
    }
    void restore_one(const std::string& id, const std::string& manifest);

    class SessionTrace;
    class CaptureSink;

    RegistryOptions options_;
    CheckpointStore store_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;  // live only
    // Finished sessions by number ("s-N" holds slot N % kFinishedPage of
    // page N / kFinishedPage).  Numbers are handed out densely, so pages
    // fill up.
    static constexpr std::uint64_t kFinishedPage = 256;
    using FinishedPage = std::array<FinishedSession, kFinishedPage>;
    std::map<std::uint64_t, std::unique_ptr<FinishedPage>> finished_;
    // Finished sessions whose final state event is still being published.
    std::unordered_map<std::string, std::shared_ptr<Session>> retiring_;
    std::array<std::uint64_t, 7> finished_by_state_{};  // indexed by SessionState
    DrrScheduler scheduler_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
    bool draining_ = false;
    unsigned running_ = 0;
    std::uint64_t next_session_number_ = 1;
    std::uint64_t dispatch_clock_ = 0;

    // Aggregate counters (under mutex_).
    std::uint64_t submitted_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t quanta_executed_ = 0;
    MetricsReport metrics_;

    mutable std::mutex subscriber_mutex_;
};

}  // namespace popproto::service

#endif  // POPPROTO_SERVICE_REGISTRY_H
