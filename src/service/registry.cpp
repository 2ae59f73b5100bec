#include "service/registry.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/batch_simulator.h"
#include "core/require.h"
#include "observe/jsonl_writer.h"
#include "scenarios/scenario_spec.h"
#include "service/json.h"
#include "telemetry/telemetry.h"

namespace popproto::service {

namespace {

SessionState parse_session_state_name(const std::string& name) {
    if (name == "queued") return SessionState::kQueued;
    if (name == "suspended") return SessionState::kSuspended;
    if (name == "evicted") return SessionState::kEvicted;
    if (name == "done") return SessionState::kDone;
    if (name == "failed") return SessionState::kFailed;
    if (name == "cancelled") return SessionState::kCancelled;
    // "running" never appears in a manifest (drain interrupts every
    // quantum before writing them); treat it defensively as queued.
    if (name == "running") return SessionState::kQueued;
    throw std::invalid_argument("unknown session state \"" + name + "\"");
}

/// A session's spill manifest.  Live sessions carry their spec so restore
/// can resume them; finished ones carry only their name beside the status
/// fields.
std::string manifest_json(const SessionStatus& status, const SessionSpec* spec) {
    JsonValue::Object object;
    object.emplace_back("id", JsonValue(status.id));
    object.emplace_back("state", JsonValue(std::string(session_state_name(status.state))));
    if (spec != nullptr)
        object.emplace_back("spec", session_spec_to_json(*spec));
    else if (!status.name.empty())
        object.emplace_back("name", JsonValue(status.name));
    object.emplace_back("interactions", JsonValue(status.interactions));
    object.emplace_back("effective_interactions", JsonValue(status.effective_interactions));
    object.emplace_back("last_output_change", JsonValue(status.last_output_change));
    object.emplace_back("quanta", JsonValue(status.quanta));
    if (status.stop_reason)
        object.emplace_back(
            "stop_reason",
            JsonValue(std::string(stop_reason_label(*status.stop_reason))));
    if (status.consensus)
        object.emplace_back("consensus", JsonValue(std::uint64_t{*status.consensus}));
    if (!status.error.empty()) object.emplace_back("error", JsonValue(status.error));
    return JsonValue(std::move(object)).to_string();
}

bool is_terminal(SessionState state) {
    return state == SessionState::kDone || state == SessionState::kFailed ||
           state == SessionState::kCancelled;
}

/// N of a session id "s-N" in the form the registry hands out (N >= 1, no
/// leading zero, fits 64 bits), or nullopt.
std::optional<std::uint64_t> session_number(const std::string& id) {
    if (id.size() < 3 || id.compare(0, 2, "s-") != 0 || id[2] == '0') return std::nullopt;
    std::uint64_t number = 0;
    for (std::size_t i = 2; i < id.size(); ++i) {
        if (id[i] < '0' || id[i] > '9') return std::nullopt;
        const auto digit = static_cast<std::uint64_t>(id[i] - '0');
        if (number > (~std::uint64_t{0} - digit) / 10) return std::nullopt;
        number = number * 10 + digit;
    }
    return number;
}

}  // namespace

SessionStatus RunRegistry::Session::status() const {
    SessionStatus status;
    status.id = id;
    status.name = spec.name;
    status.state = state;
    status.interactions = interactions;
    status.effective_interactions = effective_interactions;
    status.quanta = quanta;
    status.last_output_change = last_output_change;
    return status;
}

RunRegistry::FinishedSession RunRegistry::Session::finished(SessionState terminal,
                                                           std::string error) const {
    FinishedSession record;
    record.text = FinishedSession::make_text(spec.name, std::move(error));
    record.interactions = interactions;
    record.effective_interactions = effective_interactions;
    record.last_output_change = last_output_change;
    record.quanta = quanta;
    record.state = terminal;
    return record;
}

std::unique_ptr<RunRegistry::FinishedSession::Text> RunRegistry::FinishedSession::make_text(
    std::string name, std::string error) {
    if (name.empty() && error.empty()) return nullptr;
    return std::make_unique<Text>(Text{std::move(name), std::move(error)});
}

SessionStatus RunRegistry::FinishedSession::status(const std::string& id) const {
    SessionStatus status;
    status.id = id;
    if (text != nullptr) {
        status.name = text->name;
        status.error = text->error;
    }
    status.state = state;
    status.interactions = interactions;
    status.effective_interactions = effective_interactions;
    status.quanta = quanta;
    status.stop_reason = stop_reason;
    if (has_consensus) status.consensus = consensus;
    status.last_output_change = last_output_change;
    return status;
}

/// Stores the (single, at the pause boundary) checkpoint a quantum emits.
class RunRegistry::CaptureSink final : public CheckpointSink {
public:
    explicit CaptureSink(std::optional<RunCheckpoint>& target) : target_(target) {}
    void on_checkpoint(const RunCheckpoint& checkpoint) override { target_ = checkpoint; }

private:
    std::optional<RunCheckpoint>& target_;
};

/// Streams one session's trace to its wire subscribers, reusing the
/// JsonlTraceWriter serialization with two quantum-boundary filters: the
/// "start" event fires only for the session's first quantum, and the
/// "stop" event only when the run is terminal (kPaused quantum boundaries
/// are service bookkeeping, not trajectory events).  Each line gets the
/// session id spliced in: {"session":"s-1","event":...}.  Attached only to
/// quanta dispatched while the session has subscribers; a subscriber who
/// leaves mid-quantum stops the serialization at once.
class RunRegistry::SessionTrace final : public RunObserver {
public:
    SessionTrace(RunRegistry& registry, Session& session, bool first_segment)
        : registry_(registry),
          session_(session),
          first_segment_(first_segment),
          writer_([this](const std::string& line) { forward(line); }) {}

    void on_start(const RunStartInfo& info) override {
        if (first_segment_ && listening()) writer_.on_start(info);
    }
    void on_snapshot(std::uint64_t interaction_index,
                     const CountConfiguration& configuration) override {
        if (listening()) writer_.on_snapshot(interaction_index, configuration);
    }
    void on_output_change(std::uint64_t interaction_index) override {
        if (listening()) writer_.on_output_change(interaction_index);
    }
    void on_engine_switch(const EngineSwitchInfo& info) override {
        if (listening()) writer_.on_engine_switch(info);
    }
    void on_stop(const RunResult& result, double wall_seconds) override {
        if (result.stop_reason != StopReason::kPaused && listening())
            writer_.on_stop(result, wall_seconds);
    }

private:
    bool listening() const {
        return session_.subscriber_count.load(std::memory_order_relaxed) > 0;
    }

    void forward(const std::string& line) {
        // All writer lines are objects starting with {"event": — splice the
        // session id in front so multiplexed subscriber streams stay
        // attributable.
        std::string tagged = "{\"session\":" + json_quote(session_.id) + ",";
        tagged.append(line, 1, line.size() - 1);
        registry_.publish(session_, tagged);
    }

    RunRegistry& registry_;
    Session& session_;
    const bool first_segment_;
    JsonlTraceWriter writer_;
};

RunRegistry::RunRegistry(RegistryOptions options)
    : options_(std::move(options)), store_(options_.spill_dir) {
    unsigned workers = options_.workers;
    if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
    require(options_.default_quantum >= 1, "RunRegistry: default_quantum must be at least 1");
    workers_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        workers_.emplace_back([this] { worker_loop(); });
}

RunRegistry::~RunRegistry() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        for (auto& [id, session] : sessions_) session->stop_requested.store(true);
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
        if (worker.joinable()) worker.join();
    }
}

std::string RunRegistry::submit(const SessionSpec& spec) {
    // Validate eagerly, before any state changes: check the spec's rules
    // and instantiate the protocol and initial configuration now, so a bad
    // submit fails at the wire, not inside a worker.
    validate_session_spec(spec);
    std::unique_ptr<TabulatedProtocol> protocol = build_protocol(spec);
    const CountConfiguration initial = build_initial(*protocol, spec);
    require(initial.population_size() >= 2, "submit: population must be at least 2");

    std::unique_lock<std::mutex> lock(mutex_);
    require(!draining_ && !stopping_, "submit: registry is draining");
    if (options_.max_queued != 0) {
        const std::size_t backlog = backlog_locked();
        if (backlog >= options_.max_queued)
            throw QueueFullError(backlog, options_.max_queued);
    }
    auto session = std::make_shared<Session>();
    session->id = "s-" + std::to_string(next_session_number_++);
    session->spec = spec;
    session->quantum = spec.quantum != 0 ? spec.quantum : options_.default_quantum;
    session->protocol = std::move(protocol);
    sessions_.emplace(session->id, session);
    scheduler_.add(session->id, spec.weight);
    ++submitted_;
    const std::string id = session->id;
    lock.unlock();
    work_cv_.notify_one();
    return id;
}

/// Sessions contending for workers right now (the admission-bound metric
/// and the stats "queue_depth" value).  Caller holds mutex_; the scan
/// covers live sessions only.
std::size_t RunRegistry::backlog_locked() const {
    std::size_t backlog = 0;
    for (const auto& [id, session] : sessions_) {
        if (session->state == SessionState::kQueued ||
            session->state == SessionState::kRunning)
            ++backlog;
    }
    return backlog;
}

/// The live session `id`, or null once it has finished; throws
/// std::invalid_argument for unknown ids.  Caller holds mutex_.
std::shared_ptr<RunRegistry::Session> RunRegistry::find_live_locked(const std::string& id) const {
    const auto it = sessions_.find(id);
    if (it != sessions_.end()) return it->second;
    if (find_finished_locked(id) == nullptr)
        throw std::invalid_argument("unknown session \"" + id + "\"");
    return nullptr;
}

/// The finished record of `id`, or null.  Caller holds mutex_.
const RunRegistry::FinishedSession* RunRegistry::find_finished_locked(
    const std::string& id) const {
    const std::optional<std::uint64_t> number = session_number(id);
    if (!number) return nullptr;
    const auto page = finished_.find(*number / kFinishedPage);
    if (page == finished_.end()) return nullptr;
    const FinishedSession& record = (*page->second)[*number % kFinishedPage];
    return record.state != SessionState::kQueued ? &record : nullptr;
}

/// Files `record` under session number `number`.  Caller holds mutex_.
void RunRegistry::add_finished_locked(std::uint64_t number, FinishedSession record) {
    std::unique_ptr<FinishedPage>& page = finished_[number / kFinishedPage];
    if (page == nullptr) page = std::make_unique<FinishedPage>();
    ++finished_by_state_[static_cast<int>(record.state)];
    (*page)[number % kFinishedPage] = std::move(record);
}

std::size_t RunRegistry::finished_count_locked() const {
    std::size_t count = 0;
    for (const std::uint64_t sessions : finished_by_state_) count += sessions;
    return count;
}

SessionStatus RunRegistry::status(const std::string& id) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const std::shared_ptr<Session> session = find_live_locked(id)) return session->status();
    return find_finished_locked(id)->status(id);
}

std::vector<SessionStatus> RunRegistry::list() const {
    std::vector<SessionStatus> statuses;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        statuses.reserve(sessions_.size() + finished_count_locked());
        for (const auto& [id, session] : sessions_) statuses.push_back(session->status());
        for_each_finished_locked([&](const std::string& id, const FinishedSession& record) {
            statuses.push_back(record.status(id));
        });
    }
    std::sort(statuses.begin(), statuses.end(),
              [](const SessionStatus& a, const SessionStatus& b) {
                  // Numeric sort on the "s-N" suffix so s-10 follows s-9.
                  return a.id.size() != b.id.size() ? a.id.size() < b.id.size() : a.id < b.id;
              });
    return statuses;
}

void RunRegistry::suspend(const std::string& id) {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::shared_ptr<Session> session = find_live_locked(id);
    switch (session != nullptr ? session->state : find_finished_locked(id)->state) {
        case SessionState::kRunning:
            session->pending = Session::PendingOp::kSuspend;
            session->stop_requested.store(true);
            return;
        case SessionState::kQueued:
            scheduler_.remove(id);
            session->state = SessionState::kSuspended;
            evict_lru_locked();
            return;
        case SessionState::kSuspended:
        case SessionState::kEvicted:
            return;  // idempotent
        case SessionState::kDone:
        case SessionState::kFailed:
        case SessionState::kCancelled:
            throw std::invalid_argument("suspend: session " + id + " is terminal");
    }
}

void RunRegistry::resume(const std::string& id) {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::shared_ptr<Session> session = find_live_locked(id);
    switch (session != nullptr ? session->state : find_finished_locked(id)->state) {
        case SessionState::kSuspended:
        case SessionState::kEvicted:
            // An evicted session's checkpoint stays on disk and is faulted
            // back in by the worker on its next quantum.
            session->state = SessionState::kQueued;
            scheduler_.add(id, session->spec.weight);
            lock.unlock();
            work_cv_.notify_one();
            return;
        case SessionState::kQueued:
        case SessionState::kRunning:
            // A pending suspend that has not landed yet is withdrawn.
            if (session->pending == Session::PendingOp::kSuspend) {
                session->pending = Session::PendingOp::kNone;
                session->stop_requested.store(false);
            }
            return;
        case SessionState::kDone:
        case SessionState::kFailed:
        case SessionState::kCancelled:
            throw std::invalid_argument("resume: session " + id + " is terminal");
    }
}

void RunRegistry::cancel(const std::string& id) {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::shared_ptr<Session> session = find_live_locked(id);
    switch (session != nullptr ? session->state : find_finished_locked(id)->state) {
        case SessionState::kRunning:
            session->pending = Session::PendingOp::kCancel;
            session->stop_requested.store(true);
            return;
        case SessionState::kQueued:
            scheduler_.remove(id);
            [[fallthrough]];
        case SessionState::kSuspended:
        case SessionState::kEvicted: {
            retire_locked(*session, session->finished(SessionState::kCancelled));
            lock.unlock();
            publish(*session, "{\"session\":" + json_quote(id) +
                                  ",\"event\":\"state\",\"state\":\"cancelled\"}");
            idle_cv_.notify_all();
            lock.lock();
            retiring_.erase(id);
            return;
        }
        case SessionState::kCancelled:
            return;  // idempotent
        case SessionState::kDone:
        case SessionState::kFailed:
            throw std::invalid_argument("cancel: session " + id + " is terminal");
    }
}

void RunRegistry::subscribe(const std::string& id, std::uint64_t token, LineSink sink) {
    require(static_cast<bool>(sink), "subscribe: sink must be callable");
    std::unique_lock<std::mutex> lock(mutex_);
    if (const std::shared_ptr<Session> session = find_live_locked(id)) {
        const std::lock_guard<std::mutex> subscriber_lock(subscriber_mutex_);
        session->subscribers.emplace_back(token, std::move(sink));
        session->subscriber_count.store(session->subscribers.size(),
                                        std::memory_order_relaxed);
        return;
    }
    const SessionState state = find_finished_locked(id)->state;
    lock.unlock();
    // A finished session's events all fired in the past: answer with its
    // final state rather than keep a sink that could never fire.
    sink("{\"session\":" + json_quote(id) + ",\"event\":\"state\",\"state\":\"" +
         session_state_name(state) + "\"}");
}

void RunRegistry::unsubscribe(const std::string& id, std::uint64_t token) {
    std::shared_ptr<Session> session;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const auto* table : {&sessions_, &retiring_}) {
            if (const auto it = table->find(id); it != table->end()) {
                session = it->second;
                break;
            }
        }
    }
    if (session == nullptr) return;  // unknown, or finished with no sink left to reach
    const std::lock_guard<std::mutex> subscriber_lock(subscriber_mutex_);
    auto& subscribers = session->subscribers;
    subscribers.erase(std::remove_if(subscribers.begin(), subscribers.end(),
                                     [&](const auto& entry) { return entry.first == token; }),
                      subscribers.end());
    session->subscriber_count.store(subscribers.size(), std::memory_order_relaxed);
}

void RunRegistry::publish(Session& session, const std::string& line) {
    std::vector<LineSink> sinks;
    {
        const std::lock_guard<std::mutex> lock(subscriber_mutex_);
        sinks.reserve(session.subscribers.size());
        for (const auto& [token, sink] : session.subscribers) sinks.push_back(sink);
    }
    for (const LineSink& sink : sinks) sink(line);
}

void RunRegistry::worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock, [&] { return stopping_ || draining_ || !scheduler_.empty(); });
        if (stopping_ || draining_) return;
        std::optional<DrrScheduler::Entry> entry = scheduler_.take();
        if (!entry) continue;
        const auto it = sessions_.find(entry->id);
        if (it == sessions_.end()) continue;  // cancelled + erased underneath
        const std::shared_ptr<Session> session = it->second;
        session->state = SessionState::kRunning;
        session->last_dispatched = ++dispatch_clock_;
        ++running_;
        lock.unlock();

        QuantumOutcome outcome = run_one_quantum(*session);

        lock.lock();
        --running_;
        Settled settled = settle_after_quantum(*session, std::move(outcome));
        scheduler_.give_back(std::move(*entry), settled.runnable);
        lock.unlock();
        if (settled.runnable) work_cv_.notify_one();
        idle_cv_.notify_all();
        if (!settled.state_event.empty()) publish(*session, settled.state_event);
        lock.lock();
        retiring_.erase(session->id);  // a no-op unless this quantum finished it
    }
}

RunRegistry::QuantumOutcome RunRegistry::run_one_quantum(Session& session) {
    QuantumOutcome outcome;
    try {
        if (!session.checkpoint.has_value() && session.checkpoint_on_disk) {
            session.checkpoint = store_.load_checkpoint(session.id);
            outcome.faulted = true;
        }
        if (session.protocol == nullptr) session.protocol = build_protocol(session.spec);
        const CountConfiguration initial = build_initial(*session.protocol, session.spec);

        CaptureSink capture(outcome.checkpoint);
        // Only a watched quantum carries an observer: the metrics come from
        // the RunResult's tallies either way.
        std::optional<SessionTrace> trace;
        if (session.subscriber_count.load(std::memory_order_relaxed) > 0)
            trace.emplace(*this, session, !session.checkpoint.has_value());

        std::optional<telemetry::RunTelemetryCollector> telemetry_collector;

        RunOptions options;
        options.engine = parse_engine_name(session.spec.engine);
        options.threads = session.spec.threads;
        options.seed = session.spec.seed;
        options.max_interactions = session.spec.budget;
        if (trace) options.observer = &*trace;
        if (session.spec.snapshot_every != 0)
            options.snapshots = SnapshotSchedule::every(session.spec.snapshot_every);
        if (session.spec.telemetry) options.telemetry = &telemetry_collector.emplace();
        options.checkpoint_sink = &capture;
        options.stop_flag = &session.stop_requested;
        if (session.checkpoint.has_value()) options.resume_from = &*session.checkpoint;

        // The pause boundary is the next absolute multiple of the quantum
        // length: the grid is a property of the session, not of server
        // load, so sliced execution replays the uninterrupted trajectory.
        const std::uint64_t done =
            session.checkpoint.has_value() ? session.checkpoint->interactions : 0;
        options.pause_after = (done / session.quantum + 1) * session.quantum;

        // Non-uniform pairing models go through the scenario front door;
        // everything else (quantum grid, checkpoint capture, observers,
        // telemetry) is identical because both paths share the run-loop
        // kernel.
        const auto start = std::chrono::steady_clock::now();
        if (session.spec.model != "uniform")
            outcome.result = run_scenario(*session.protocol, initial,
                                          scenario_spec_from(session.spec), options);
        else
            outcome.result = run_simulation(*session.protocol, initial, options);
        outcome.wall_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    } catch (const std::exception& error) {
        outcome.error = error.what();
        if (outcome.error.empty()) outcome.error = "unknown error";
    }
    return outcome;
}

RunRegistry::Settled RunRegistry::settle_after_quantum(Session& session,
                                                       QuantumOutcome outcome) {
    Settled settled;
    ++quanta_executed_;
    ++session.quanta;
    if (outcome.faulted) ++faults_;
    if (outcome.result) {
        ++metrics_.runs_started;
        metrics_.add_finished_run(*outcome.result, outcome.wall_seconds);
    }

    const auto state_event = [&](const char* state) {
        return "{\"session\":" + json_quote(session.id) +
               ",\"event\":\"state\",\"state\":\"" + state + "\"}";
    };

    if (!outcome.error.empty()) {
        retire_locked(session, session.finished(SessionState::kFailed, std::move(outcome.error)));
        settled.state_event = state_event("failed");
        return settled;
    }

    const RunResult& result = *outcome.result;
    session.interactions = result.interactions;
    session.effective_interactions = result.effective_interactions;
    session.last_output_change = result.last_output_change;

    if (result.stop_reason != StopReason::kPaused) {
        FinishedSession record = session.finished(SessionState::kDone);
        record.stop_reason = result.stop_reason;
        record.has_consensus = result.consensus.has_value();
        record.consensus = result.consensus.value_or(0);
        retire_locked(session, std::move(record));
        settled.state_event = state_event("done");
        return settled;
    }

    // A paused quantum always carries the boundary checkpoint.
    session.checkpoint = std::move(outcome.checkpoint);
    const Session::PendingOp pending = session.pending;
    session.pending = Session::PendingOp::kNone;
    session.stop_requested.store(false);

    if (pending == Session::PendingOp::kCancel) {
        retire_locked(session, session.finished(SessionState::kCancelled));
        settled.state_event = state_event("cancelled");
        return settled;
    }
    if (pending == Session::PendingOp::kSuspend || draining_ || stopping_) {
        session.state = SessionState::kSuspended;
        if (pending == Session::PendingOp::kSuspend) {
            settled.state_event = state_event("suspended");
            evict_lru_locked();
        }
        return settled;
    }
    session.state = SessionState::kQueued;
    settled.runnable = true;
    return settled;
}

/// Replaces a session that just finished by its compact record and deletes
/// its spilled files.  The Session waits in retiring_, where unsubscribe
/// still reaches its sinks, until the caller has published its final state
/// event and erased it; it then dies with the caller's last reference,
/// taking its spec, checkpoint, protocol and subscriber list with it.
/// Caller holds mutex_ and a reference to `session`.
void RunRegistry::retire_locked(const Session& session, FinishedSession record) {
    if (session.checkpoint_on_disk) store_.remove(session.id);
    add_finished_locked(*session_number(session.id), std::move(record));
    retiring_.insert(sessions_.extract(session.id));
}

void RunRegistry::evict_lru_locked() {
    for (;;) {
        std::vector<Session*> resident;
        for (auto& [id, session] : sessions_) {
            if (session->state == SessionState::kSuspended && session->checkpoint.has_value())
                resident.push_back(session.get());
        }
        if (resident.size() <= options_.max_resident_suspended) return;
        Session* victim = *std::min_element(
            resident.begin(), resident.end(), [](const Session* a, const Session* b) {
                return a->last_dispatched < b->last_dispatched;
            });
        store_.save_checkpoint(victim->id, *victim->checkpoint);
        store_.save_manifest(victim->id, manifest_json(victim->status(), &victim->spec));
        victim->checkpoint.reset();
        victim->protocol.reset();
        victim->checkpoint_on_disk = true;
        victim->state = SessionState::kEvicted;
        ++evictions_;
    }
}

std::string RunRegistry::stats_json() const {
    std::array<std::uint64_t, 7> by_state{};
    std::uint64_t submitted = 0, evictions = 0, faults = 0, quanta = 0;
    std::size_t num_sessions = 0, queue_depth = 0;
    MetricsReport metrics;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        by_state = finished_by_state_;
        for (const auto& [id, session] : sessions_)
            ++by_state[static_cast<int>(session->state)];
        submitted = submitted_;
        evictions = evictions_;
        faults = faults_;
        quanta = quanta_executed_;
        num_sessions = sessions_.size() + finished_count_locked();
        queue_depth = backlog_locked();
        metrics = metrics_;
    }
    std::string out = "{\"sessions\":{";
    const SessionState states[] = {
        SessionState::kQueued,    SessionState::kRunning, SessionState::kSuspended,
        SessionState::kEvicted,   SessionState::kDone,    SessionState::kFailed,
        SessionState::kCancelled,
    };
    bool first = true;
    for (const SessionState state : states) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += session_state_name(state);
        out += "\":";
        out += std::to_string(by_state[static_cast<int>(state)]);
    }
    out += "},\"total_sessions\":" + std::to_string(num_sessions);
    out += ",\"queue_depth\":" + std::to_string(queue_depth);
    out += ",\"max_queued\":" + std::to_string(options_.max_queued);
    out += ",\"submitted\":" + std::to_string(submitted);
    out += ",\"evictions\":" + std::to_string(evictions);
    out += ",\"faults\":" + std::to_string(faults);
    out += ",\"quanta\":" + std::to_string(quanta);
    out += ",\"workers\":" + std::to_string(workers_.size());
    out += ",\"metrics\":" + metrics.to_json();
    out += '}';
    return out;
}

void RunRegistry::drain() {
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (draining_) return;
        draining_ = true;
        for (auto& [id, session] : sessions_) {
            if (session->state == SessionState::kRunning)
                session->stop_requested.store(true);
        }
        work_cv_.notify_all();
        idle_cv_.wait(lock, [&] { return running_ == 0; });
    }
    for (std::thread& worker : workers_) {
        if (worker.joinable()) worker.join();
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, session] : sessions_) {
        if (session->checkpoint.has_value()) {
            store_.save_checkpoint(id, *session->checkpoint);
            session->checkpoint_on_disk = true;
        }
        store_.save_manifest(id, manifest_json(session->status(), &session->spec));
    }
    for_each_finished_locked([&](const std::string& id, const FinishedSession& record) {
        store_.save_manifest(id, manifest_json(record.status(id), nullptr));
    });
}

std::size_t RunRegistry::restore() {
    const auto manifests = store_.list_manifests();
    for (const auto& [id, manifest] : manifests) restore_one(id, manifest);
    work_cv_.notify_all();
    return manifests.size();
}

void RunRegistry::restore_one(const std::string& id, const std::string& manifest) {
    const JsonValue parsed = parse_json(manifest);
    const JsonValue* state_value = parsed.find("state");
    require(state_value != nullptr, "manifest for " + id + " has no 'state'");
    const SessionState state = parse_session_state_name(state_value->as_string("'state'"));

    // Live sessions need their spec to resume.  Finished ones are drained
    // without it, but manifests that still carry one load too.
    const JsonValue* spec_value = parsed.find("spec");
    require(spec_value != nullptr || is_terminal(state), "manifest for " + id + " has no 'spec'");
    std::optional<SessionSpec> spec;
    if (spec_value != nullptr) spec = parse_session_spec(*spec_value);

    FinishedSession record;
    record.state = state;
    std::string name, error;
    if (spec) {
        name = spec->name;
    } else if (const JsonValue* value = parsed.find("name")) {
        name = value->as_string("'name'");
    }
    if (const JsonValue* value = parsed.find("error")) error = value->as_string("'error'");
    record.text = FinishedSession::make_text(std::move(name), std::move(error));
    if (const JsonValue* value = parsed.find("interactions"))
        record.interactions = value->as_u64("'interactions'");
    if (const JsonValue* value = parsed.find("effective_interactions"))
        record.effective_interactions = value->as_u64("'effective_interactions'");
    if (const JsonValue* value = parsed.find("last_output_change"))
        record.last_output_change = value->as_u64("'last_output_change'");
    if (const JsonValue* value = parsed.find("quanta"))
        record.quanta = value->as_u64("'quanta'");
    if (const JsonValue* value = parsed.find("stop_reason"))
        record.stop_reason = parse_stop_reason_label(value->as_string("'stop_reason'"));
    if (const JsonValue* value = parsed.find("consensus")) {
        record.consensus = static_cast<Symbol>(value->as_u64("'consensus'"));
        record.has_consensus = true;
    }

    const std::optional<std::uint64_t> number = session_number(id);
    require(number.has_value(), "restore: session id \"" + id + "\" is not of the form s-N");
    std::unique_lock<std::mutex> lock(mutex_);
    require(sessions_.find(id) == sessions_.end() && find_finished_locked(id) == nullptr,
            "restore: duplicate session " + id);
    // Keep fresh submissions from colliding with restored ids.
    if (*number >= next_session_number_) next_session_number_ = *number + 1;

    if (is_terminal(state)) {
        add_finished_locked(*number, std::move(record));
        return;
    }
    // Everything in flight resumes from the queue; the spilled checkpoint
    // (if any) is faulted back on first dispatch.
    auto session = std::make_shared<Session>();
    session->id = id;
    session->spec = std::move(*spec);
    session->quantum =
        session->spec.quantum != 0 ? session->spec.quantum : options_.default_quantum;
    session->interactions = record.interactions;
    session->effective_interactions = record.effective_interactions;
    session->last_output_change = record.last_output_change;
    session->quanta = record.quanta;
    session->checkpoint_on_disk = store_.has_checkpoint(id);
    scheduler_.add(id, session->spec.weight);
    sessions_.emplace(id, std::move(session));
}

void RunRegistry::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return scheduler_.empty() && running_ == 0; });
}

}  // namespace popproto::service
