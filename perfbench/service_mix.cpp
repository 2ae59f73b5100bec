#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/batch_simulator.h"
#include "service/client.h"
#include "service/json.h"
#include "service/session.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

using popproto::service::JsonValue;
using popproto::service::ServiceClient;
using popproto::service::SessionSpec;

namespace {

bool response_ok(const JsonValue& response) {
    const JsonValue* ok = response.find("ok");
    return ok != nullptr && ok->kind() == JsonValue::Kind::kBool && ok->as_bool("ok");
}

}  // namespace

// ---------------------------------------------------------------------------
// Daemon

Daemon::Daemon(const std::string& binary, const std::string& socket,
               const std::string& spill_dir, unsigned workers)
    : socket_(socket), spill_dir_(spill_dir) {
    std::filesystem::remove(socket_);
    std::filesystem::remove_all(spill_dir_);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "daemon.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const std::string workers_text = std::to_string(workers);
    // --max-resident 0 spills every suspended session (the evicted stream);
    // the admission bound sits far above the closed loop's 16 sessions, so
    // a queue_full answer means the client lost track of its sessions.
    std::vector<std::string> arguments = {binary,         "--socket",       socket_,
                                          "--spill-dir",  spill_dir_,       "--workers",
                                          workers_text,   "--max-resident", "0",
                                          "--max-queued", "64",             "--quiet"};
    std::vector<char*> argv;
    for (std::string& argument : arguments) argv.push_back(argument.data());
    argv.push_back(nullptr);

    const Clock::time_point start = Clock::now();
    const int spawned = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
        pid_ = -1;
        throw std::runtime_error("cannot spawn " + binary);
    }
    for (;;) {
        try {
            ServiceClient client = ServiceClient::connect_unix(socket_);
            if (response_ok(popproto::service::parse_json(client.request("{\"cmd\":\"ping\"}"))))
                break;
        } catch (const std::exception&) {
            // Not listening yet.
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error(binary + " exited during start-up (see daemon.log)");
        }
        if (seconds_since(start) > 30.0) {
            throw std::runtime_error(binary + " did not answer ping within 30 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    setup_seconds_ = seconds_since(start);
}

Daemon::~Daemon() {
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }
    std::error_code ignored;
    std::filesystem::remove(socket_, ignored);
    std::filesystem::remove_all(spill_dir_, ignored);
}

double Daemon::peak_rss_mb() const { return peak_rss_mb_of(pid_); }

// ---------------------------------------------------------------------------
// The session mix

const char* stream_name(Stream stream) {
    switch (stream) {
        case Stream::kShort:
            return "short";
        case Stream::kSliced:
            return "sliced";
        case Stream::kEvicted:
            return "evicted";
        case Stream::kModel:
            return "model";
    }
    return "unknown";
}

SessionSpec stream_spec(Stream stream, std::uint64_t seed, bool smoke) {
    SessionSpec spec;
    spec.protocol = "epidemic";
    spec.seed = seed;
    if (stream == Stream::kSliced || stream == Stream::kEvicted) {
        const std::uint64_t n = std::uint64_t{1} << (smoke ? 12 : 16);
        spec.counts = {n - 1, 1};
        spec.engine = "batch";
        spec.budget = 8 * n;
        spec.quantum = n;
    } else {
        spec.counts = {smoke ? 63u : 1023u, 1};
        spec.engine = "auto";
        if (stream == Stream::kModel) spec.model = "adversarial";
    }
    return spec;
}

std::string submit_line(const SessionSpec& spec) {
    JsonValue::Object object = {{"cmd", JsonValue(std::string("submit"))}};
    const JsonValue fields = popproto::service::session_spec_to_json(spec);
    for (const auto& member : fields.as_object("spec")) object.push_back(member);
    return JsonValue(std::move(object)).to_string();
}

const char* stop_reason_name(popproto::StopReason reason) {
    switch (reason) {
        case popproto::StopReason::kSilent:
            return "silent";
        case popproto::StopReason::kStableOutputs:
            return "stable_outputs";
        case popproto::StopReason::kBudget:
            return "budget";
        case popproto::StopReason::kPaused:
            return "paused";
    }
    return "unknown";
}

Outcome outcome_of(const popproto::RunResult& result) {
    return {stop_reason_name(result.stop_reason), result.interactions,
            result.effective_interactions, result.last_output_change};
}

Outcome outcome_of(const JsonValue& status) {
    // A failed session carries no stop reason or convergence index; its
    // outcome then matches no reference.
    const auto u64 = [&](const char* key) {
        const JsonValue* value = status.find(key);
        return value != nullptr ? value->as_u64(key) : 0;
    };
    const JsonValue* stop = status.find("stop_reason");
    return {stop != nullptr ? stop->as_string("stop_reason") : "none", u64("interactions"),
            u64("effective_interactions"), u64("last_output_change")};
}

namespace {

constexpr auto kIdlePollPause = std::chrono::microseconds(250);

/// The mix: 70% short, 20% sliced, 5% evicted, 5% model, dealt from a
/// seeded shuffle of a 20-card deck so every pass holds the exact shares
/// (a per-session coin would let the share of 8-quantum sessions, and with
/// it the throughput, wander from pass to pass).
class StreamDeck {
public:
    Stream next(SeedStream& rng) {
        if (position_ == deck_.size()) {
            for (std::size_t i = deck_.size() - 1; i > 0; --i)
                std::swap(deck_[i], deck_[rng.next() % (i + 1)]);
            position_ = 0;
        }
        return deck_[position_++];
    }

private:
    std::vector<Stream> deck_ = [] {
        std::vector<Stream> deck(14, Stream::kShort);
        deck.insert(deck.end(), 4, Stream::kSliced);
        deck.push_back(Stream::kEvicted);
        deck.push_back(Stream::kModel);
        return deck;
    }();
    std::size_t position_ = deck_.size();
};

struct Finished {
    Stream stream = Stream::kShort;
    std::uint64_t seed = 0;
    double ms = 0.0;
    double done_s = 0.0;  ///< since the mix started
    JsonValue status;
};

struct Slot {
    bool active = false;
    Stream stream = Stream::kShort;
    std::uint64_t seed = 0;
    std::string id;
    int phase = 0;  // evicted stream: 0 await first quantum, 1 await spill, 2 await done
    Clock::time_point submitted;
    std::uint64_t group = 0;
    std::int64_t span = -1;
};

/// One connection's closed loop over its share of the in-flight sessions.
/// Spans: wire requests on the connection's lane, each session on a lane of
/// its slot, the session span parenting its requests.
struct ClientLoop {
    ClientLoop(const std::string& socket, std::uint64_t seed,
               const std::vector<std::uint64_t>& sliced_seeds, bool smoke, SpanLog* spans,
               std::int64_t parent_span, std::uint32_t lane, std::uint32_t session_lane_base)
        : client(ServiceClient::connect_unix(socket)),
          rng(seed),
          sliced_seeds(sliced_seeds),
          smoke(smoke),
          spans(spans),
          parent_span(parent_span),
          lane(lane),
          session_lane_base(session_lane_base) {}

    ServiceClient client;
    SeedStream rng;
    StreamDeck deck;
    const std::vector<std::uint64_t>& sliced_seeds;
    const bool smoke;
    SpanLog* const spans;
    const std::int64_t parent_span;
    const std::uint32_t lane;
    const std::uint32_t session_lane_base;

    std::vector<Finished> finished;
    std::vector<double> submit_rtt_ms, status_rtt_ms;
    std::uint64_t rejected = 0;
    std::uint64_t lost = 0;  // sessions never seen done (wire error or timeout)
    std::uint64_t evictions_seen = 0;
    Clock::time_point mix_start;

    JsonValue request(const std::string& line, const char* name, const Slot& slot,
                      std::vector<double>* rtt) {
        const Span span(spans, name, slot.group, lane, slot.span);
        const Clock::time_point start = Clock::now();
        const std::string response = client.request(line);
        if (rtt != nullptr) rtt->push_back(seconds_since(start) * 1e3);
        return popproto::service::parse_json(response);
    }

    void submit(Slot& slot, std::size_t index) {
        slot = Slot{};
        slot.stream = deck.next(rng);
        slot.seed = (slot.stream == Stream::kSliced || slot.stream == Stream::kEvicted)
                        ? sliced_seeds[rng.next() % sliced_seeds.size()]
                        : rng.next();
        slot.submitted = Clock::now();
        if (spans != nullptr) {
            slot.group = spans->new_group();
            slot.span = spans->begin(std::string("session.") + stream_name(slot.stream),
                                     slot.group, parent_span,
                                     session_lane_base + static_cast<std::uint32_t>(index));
        }
        const JsonValue response = request(submit_line(stream_spec(slot.stream, slot.seed, smoke)),
                                           "wire.submit", slot, &submit_rtt_ms);
        if (!response_ok(response)) {
            ++rejected;
            close(slot);
            return;
        }
        slot.id = response.find("session")->as_string("session");
        slot.active = true;
    }

    void close(Slot& slot) {
        if (spans != nullptr && slot.span >= 0) spans->end(slot.span);
        slot.active = false;
    }

    /// One status poll; true when the session finished or changed phase.
    bool advance(Slot& slot) {
        const std::string session = popproto::service::json_quote(slot.id);
        const JsonValue status = request("{\"cmd\":\"status\",\"session\":" + session + "}",
                                         "wire.status", slot, &status_rtt_ms);
        if (!response_ok(status)) {
            ++lost;
            close(slot);
            return true;
        }
        const std::string& state = status.find("state")->as_string("state");
        if (state == "done" || state == "failed" || state == "cancelled") {
            const Clock::time_point now = Clock::now();
            finished.push_back({slot.stream, slot.seed,
                                seconds_between(slot.submitted, now) * 1e3,
                                seconds_between(mix_start, now), status});
            close(slot);
            return true;
        }
        if (slot.stream != Stream::kEvicted) return false;
        if (slot.phase == 0 && status.find("quanta")->as_u64("quanta") >= 1) {
            // A refusal means the session finished first; the next status
            // poll collects it.
            if (response_ok(request("{\"cmd\":\"suspend\",\"session\":" + session + "}",
                                    "wire.suspend", slot, nullptr))) {
                slot.phase = 1;
                return true;
            }
        } else if (slot.phase == 1 && state == "evicted") {
            ++evictions_seen;
            if (response_ok(request("{\"cmd\":\"resume\",\"session\":" + session + "}",
                                    "wire.resume", slot, nullptr))) {
                slot.phase = 2;
                return true;
            }
        }
        return false;
    }

    void run(Clock::time_point start, Clock::time_point deadline,
             Clock::time_point hard_deadline, std::size_t slots) {
        mix_start = start;
        std::vector<Slot> table(slots);
        try {
            for (;;) {
                bool any = false, progressed = false;
                for (std::size_t i = 0; i < table.size(); ++i) {
                    if (table[i].active) {
                        any = true;
                        progressed = advance(table[i]) || progressed;
                    } else if (Clock::now() < deadline) {
                        any = progressed = true;
                        submit(table[i], i);
                    }
                }
                if (!any || Clock::now() > hard_deadline) break;
                // A round where nothing moved yields the CPU to the daemon:
                // a spinning client would compete with the workers it waits on.
                if (!progressed) std::this_thread::sleep_for(kIdlePollPause);
            }
        } catch (const std::exception& error) {
            std::fprintf(stderr, "perfbench: service-mix connection failed: %s\n",
                         error.what());
        }
        for (Slot& slot : table) {
            if (slot.active) {
                ++lost;
                close(slot);
            }
        }
    }
};

/// Checks one finished session: short and model sessions against the
/// Theorem 8 outcome, sliced and evicted ones against a direct
/// run_simulation of the same spec (`reference`).
bool session_correct(const Finished& session, const popproto::RunResult* reference, bool smoke,
                     bool inject_wrong) {
    const JsonValue& status = session.status;
    if (status.find("state")->as_string("state") != "done") return false;
    const Outcome outcome = outcome_of(status);
    if (reference == nullptr) {
        const std::uint64_t n = smoke ? 64 : 1024;
        const JsonValue* consensus = status.find("consensus");
        return outcome.stop == "silent" && outcome.effective == n - (inject_wrong ? 0 : 1) &&
               consensus != nullptr && consensus->kind() == JsonValue::Kind::kUInt &&
               consensus->as_u64("consensus") == popproto::kOutputTrue;
    }
    Outcome expected = outcome_of(*reference);
    if (inject_wrong) ++expected.interactions;
    return outcome == expected;
}

}  // namespace

MixOutcome run_service_mix(const Daemon& daemon, SeedStream& seeds, double seconds, bool smoke,
                           bool inject_wrong, Result& result, SpanLog* spans) {
    // Sliced sessions draw from a small seed pool so each distinct spec is
    // checked against one direct reference run after the timed phase.
    std::vector<std::uint64_t> sliced_seeds(16);
    for (std::uint64_t& seed : sliced_seeds) seed = seeds.next();

    const std::int64_t parent_span = [&]() -> std::int64_t {
        if (spans == nullptr) return -1;
        return spans->begin("service-mix", spans->new_group(), -1, 0);
    }();
    std::vector<std::unique_ptr<ClientLoop>> loops;
    for (unsigned c = 0; c < kMixConnections; ++c) {
        loops.push_back(std::make_unique<ClientLoop>(
            daemon.socket(), seeds.next(), sliced_seeds, smoke, spans, parent_span, 1 + c,
            1000 + c * (kMixInFlight / kMixConnections)));
    }

    const Clock::time_point start = Clock::now();
    const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
    const auto hard_deadline = deadline + std::chrono::seconds(60);
    std::vector<std::thread> threads;
    for (auto& loop : loops)
        threads.emplace_back([&loop, start, deadline, hard_deadline] {
            loop->run(start, deadline, hard_deadline, kMixInFlight / kMixConnections);
        });
    for (std::thread& thread : threads) thread.join();

    MixOutcome outcome;
    outcome.wall_seconds = seconds_since(start);
    if (spans != nullptr) spans->end(parent_span);
    {
        ServiceClient client = ServiceClient::connect_unix(daemon.socket());
        outcome.stats_json = client.request("{\"cmd\":\"stats\"}");
    }

    // References for every sliced seed used, computed after the timed phase.
    std::map<std::uint64_t, popproto::RunResult> references;
    for (const auto& loop : loops) {
        for (const Finished& session : loop->finished) {
            if (session.stream != Stream::kSliced && session.stream != Stream::kEvicted)
                continue;
            if (references.count(session.seed) != 0) continue;
            const SessionSpec spec = stream_spec(Stream::kSliced, session.seed, smoke);
            const auto protocol = popproto::service::build_protocol(spec);
            popproto::RunOptions options;
            options.seed = spec.seed;
            options.max_interactions = spec.budget;
            options.engine = popproto::service::parse_engine_name(spec.engine);
            references.emplace(session.seed,
                               popproto::run_simulation(
                                   *protocol, popproto::service::build_initial(*protocol, spec),
                                   options));
        }
    }

    const double window = seconds >= 4.0 ? 1.0 : seconds / 4.0;
    const std::size_t windows = static_cast<std::size_t>(seconds / window);
    outcome.window_sessions_per_s.assign(windows, 0.0);
    outcome.window_interactions_per_s.assign(windows, 0.0);
    for (const auto& loop : loops) {
        for (const Finished& session : loop->finished) {
            const auto reference = references.find(session.seed);
            const bool sliced =
                session.stream == Stream::kSliced || session.stream == Stream::kEvicted;
            const bool ok = session_correct(session, sliced ? &reference->second : nullptr,
                                            smoke, inject_wrong);
            result.check(ok);
            if (!ok) continue;
            ++outcome.completed;
            const std::size_t bucket = static_cast<std::size_t>(session.done_s / window);
            if (bucket < windows) {
                outcome.window_sessions_per_s[bucket] += 1.0 / window;
                outcome.window_interactions_per_s[bucket] +=
                    double(session.status.find("interactions")->as_u64("interactions")) / window;
            }
            outcome.session_ms.push_back(session.ms);
            outcome.stream_ms[static_cast<int>(session.stream)].push_back(session.ms);
        }
        for (std::uint64_t miss = 0; miss < loop->rejected + loop->lost; ++miss)
            result.check(false);
        outcome.rejected += loop->rejected;
        outcome.evictions_seen += loop->evictions_seen;
        outcome.submit_rtt_ms.insert(outcome.submit_rtt_ms.end(), loop->submit_rtt_ms.begin(),
                                     loop->submit_rtt_ms.end());
        outcome.status_rtt_ms.insert(outcome.status_rtt_ms.end(), loop->status_rtt_ms.begin(),
                                     loop->status_rtt_ms.end());
    }
    return outcome;
}

}  // namespace perfbench
