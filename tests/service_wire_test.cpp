// The service wire layer: JSON parsing/serialization, request framing and
// dispatch, spec validation, and the socket transport end to end
// (WireServer + ServiceClient over loopback TCP and a Unix-domain socket).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/json.h"
#include "service/registry.h"
#include "service/server.h"
#include "service/session.h"
#include "service/wire.h"

namespace popproto::service {
namespace {

// ---------------------------------------------------------------------------
// JSON.

TEST(Json, RoundTripsScalarsArraysAndObjects) {
    const std::string text =
        "{\"a\":true,\"b\":null,\"c\":18446744073709551615,\"d\":-7,"
        "\"e\":1.5,\"f\":\"hi\\n\\\"there\\\"\",\"g\":[1,2,3],\"h\":{\"k\":\"v\"}}";
    const JsonValue value = parse_json(text);
    ASSERT_TRUE(value.is_object());
    EXPECT_TRUE(value.find("a")->as_bool("a"));
    EXPECT_TRUE(value.find("b")->is_null());
    // Full uint64 precision survives — seeds exceed the double-exact range.
    EXPECT_EQ(value.find("c")->as_u64("c"), 18446744073709551615ull);
    EXPECT_EQ(value.find("e")->as_double("e"), 1.5);
    EXPECT_EQ(value.find("f")->as_string("f"), "hi\n\"there\"");
    EXPECT_EQ(value.find("g")->as_array("g").size(), 3u);
    EXPECT_EQ(value.find("h")->find("k")->as_string("k"), "v");
    // Compact re-serialization is the identity on compact input.
    EXPECT_EQ(value.to_string(), text);
}

TEST(Json, ParseErrorsCarryByteOffsets) {
    const auto error_message = [](const std::string& text) -> std::string {
        try {
            parse_json(text);
        } catch (const std::invalid_argument& error) {
            return error.what();
        }
        ADD_FAILURE() << "parse unexpectedly succeeded: " << text;
        return {};
    };
    EXPECT_EQ(error_message("{\"a\" 1}").rfind("json: offset ", 0), 0u);
    EXPECT_EQ(error_message("[1,]").rfind("json: offset ", 0), 0u);
    EXPECT_EQ(error_message("{} trailing").rfind("json: offset ", 0), 0u);
    EXPECT_EQ(error_message("").rfind("json: offset ", 0), 0u);
}

TEST(Json, TypedAccessorsNameTheField) {
    const JsonValue value = parse_json("{\"seed\":\"oops\",\"n\":-1}");
    try {
        value.find("seed")->as_u64("'seed'");
        FAIL() << "as_u64 on a string unexpectedly succeeded";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("'seed'"), std::string::npos);
    }
    EXPECT_THROW(value.find("n")->as_u64("'n'"), std::invalid_argument);  // negative
}

TEST(Json, QuoteEscapesControlCharacters) {
    EXPECT_EQ(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

// ---------------------------------------------------------------------------
// Request framing and spec parsing.

TEST(Wire, ParsesRequestsAndEchoesCorrelationIds) {
    const WireRequest request = parse_request("{\"cmd\":\"status\",\"id\":\"r7\"}");
    EXPECT_EQ(request.command, "status");
    ASSERT_TRUE(request.request_id.has_value());
    EXPECT_EQ(*request.request_id, "r7");

    EXPECT_THROW(parse_request("[1,2]"), std::invalid_argument);     // not an object
    EXPECT_THROW(parse_request("{\"x\":1}"), std::invalid_argument);  // no cmd
    EXPECT_THROW(parse_request("{\"cmd\":1}"), std::invalid_argument);

    EXPECT_EQ(ok_response(std::nullopt), "{\"ok\":true}");
    EXPECT_EQ(ok_response(std::string("r1")), "{\"ok\":true,\"id\":\"r1\"}");
    EXPECT_EQ(error_response(std::string("r1"), "bad"),
              "{\"ok\":false,\"id\":\"r1\",\"error\":\"bad\"}");
}

TEST(Wire, SessionSpecParsesAndValidates) {
    const JsonValue payload = parse_json(
        "{\"cmd\":\"submit\",\"protocol\":\"counting\",\"threshold\":3,"
        "\"counts\":[40,8],\"engine\":\"agent\",\"seed\":11,\"quantum\":97,"
        "\"weight\":2,\"name\":\"demo\"}");
    const SessionSpec spec = parse_session_spec(payload);
    EXPECT_EQ(spec.protocol, "counting");
    EXPECT_EQ(spec.threshold, 3u);
    EXPECT_EQ(spec.counts, (std::vector<std::uint64_t>{40, 8}));
    EXPECT_EQ(spec.engine, "agent");
    EXPECT_EQ(spec.seed, 11u);
    EXPECT_EQ(spec.quantum, 97u);
    EXPECT_EQ(spec.weight, 2u);
    EXPECT_EQ(spec.name, "demo");

    // The spec survives the manifest round trip verbatim.
    const SessionSpec reparsed = parse_session_spec(session_spec_to_json(spec));
    EXPECT_EQ(session_spec_to_json(reparsed).to_string(),
              session_spec_to_json(spec).to_string());

    const auto expect_rejected = [](const std::string& text, const std::string& field) {
        try {
            parse_session_spec(parse_json(text));
            ADD_FAILURE() << "spec unexpectedly accepted: " << text;
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
                << error.what();
        }
    };
    expect_rejected("{\"cmd\":\"submit\"}", "counts");
    expect_rejected("{\"counts\":[]}", "counts");
    expect_rejected("{\"counts\":[10,2],\"weight\":0}", "weight");
    expect_rejected("{\"counts\":[10,2],\"seed\":\"x\"}", "seed");
}

TEST(Wire, ScenarioModelSpecsRoundTripAndValidate) {
    // Every scenario knob survives the manifest round trip.
    const JsonValue payload = parse_json(
        "{\"cmd\":\"submit\",\"protocol\":\"epidemic\",\"counts\":[30,2],"
        "\"seed\":7,\"model\":\"dynamic_graph\",\"phases\":[\"ring\",\"star\"],"
        "\"phase_length\":50}");
    const SessionSpec spec = parse_session_spec(payload);
    EXPECT_EQ(spec.model, "dynamic_graph");
    EXPECT_EQ(spec.phases, (std::vector<std::string>{"ring", "star"}));
    EXPECT_EQ(spec.phase_length, 50u);
    const SessionSpec reparsed = parse_session_spec(session_spec_to_json(spec));
    EXPECT_EQ(session_spec_to_json(reparsed).to_string(),
              session_spec_to_json(spec).to_string());

    // The default model leaves the manifest untouched — old manifests stay
    // byte-identical.
    SessionSpec plain;
    plain.counts = {10, 2};
    EXPECT_EQ(session_spec_to_json(plain).to_string().find("\"model\""),
              std::string::npos);

    const auto expect_rejected = [](const std::string& text, const std::string& needle) {
        try {
            parse_session_spec(parse_json(text));
            ADD_FAILURE() << "spec unexpectedly accepted: " << text;
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
                << error.what();
        }
    };
    expect_rejected("{\"counts\":[10,2],\"model\":\"teleport\"}", "unknown model");
    expect_rejected("{\"counts\":[10,2],\"model\":\"sweep\",\"engine\":\"batch\"}",
                    "engine");
    expect_rejected("{\"counts\":[10,2],\"model\":\"sweep\",\"threads\":4}", "threads");
    expect_rejected("{\"counts\":[10,2],\"model\":\"dynamic_graph\"}", "phases");
}

TEST(Wire, WireAndInProcessSubmitsRejectSpecsWithTheSameMessage) {
    RegistryOptions options;
    options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_same_rules").string();
    std::filesystem::remove_all(options.spill_dir);
    RunRegistry registry(options);

    // Each rule of validate_session_spec, broken once.  The same spec goes
    // over the wire (as its manifest JSON) and to RunRegistry::submit.
    const std::vector<std::function<void(SessionSpec&)>> breaks = {
        [](SessionSpec& spec) { spec.counts.clear(); },
        [](SessionSpec& spec) { spec.engine = "warp"; },
        [](SessionSpec& spec) { spec.weight = 0; },
        [](SessionSpec& spec) { spec.protocol = "predicate"; },
        [](SessionSpec& spec) {
            spec.threads = 4;
            spec.engine = "batch";
        },
        [](SessionSpec& spec) { spec.model = "teleport"; },
        [](SessionSpec& spec) {
            spec.model = "sweep";
            spec.engine = "batch";
        },
        [](SessionSpec& spec) {
            spec.model = "sweep";
            spec.threads = 4;
        },
        [](SessionSpec& spec) { spec.model = "dynamic_graph"; },
    };
    for (const auto& break_rule : breaks) {
        SessionSpec spec;
        spec.counts = {10, 2};
        break_rule(spec);
        const JsonValue payload = session_spec_to_json(spec);
        const auto response =
            dispatch_request(registry, WireRequest{"submit", std::nullopt, payload});
        ASSERT_TRUE(response.has_value());
        const JsonValue wire = parse_json(*response);
        ASSERT_FALSE(wire.find("ok")->as_bool("ok")) << payload.to_string();
        try {
            registry.submit(spec);
            ADD_FAILURE() << "in-process submit accepted " << payload.to_string();
        } catch (const std::invalid_argument& error) {
            EXPECT_EQ(wire.find("error")->as_string("error"), error.what())
                << payload.to_string();
        }
    }
    EXPECT_TRUE(registry.list().empty());
    std::filesystem::remove_all(options.spill_dir);
}

TEST(Wire, SubmitsWithWrappingCountsOrOverflowingPredicatesAreRejectedByName) {
    RegistryOptions options;
    options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_overflow").string();
    std::filesystem::remove_all(options.spill_dir);
    RunRegistry registry(options);
    const auto error_of = [&](const std::string& line) {
        const auto response = dispatch_request(registry, parse_request(line));
        EXPECT_TRUE(response.has_value()) << line;
        const JsonValue reply = parse_json(response.value_or("{}"));
        EXPECT_FALSE(reply.find("ok")->as_bool("ok")) << *response;
        const JsonValue* error = reply.find("error");
        return error != nullptr ? error->as_string("error") : std::string("no error");
    };

    // 2^64 - 1 + 3 must not wrap to a population of 2 and run.
    EXPECT_EQ(error_of("{\"cmd\":\"submit\",\"protocol\":\"epidemic\","
                       "\"counts\":[18446744073709551615,3],\"engine\":\"batch\","
                       "\"budget\":100}"),
              "from_input_counts: counts sum past 2^64 - 1 agents");
    // The constant sum overflows int64 inside the Presburger parser.
    const std::string formula = "x0 + 9223372036854775807 + 9223372036854775807 < 1";
    EXPECT_EQ(error_of("{\"cmd\":\"submit\",\"protocol\":\"predicate\",\"predicate\":\"" +
                       formula + "\",\"counts\":[5,3]}"),
              "parse_formula: integer overflow at position 27 in \"" + formula + "\"");
    EXPECT_TRUE(registry.list().empty());
    std::filesystem::remove_all(options.spill_dir);
}

// A predicate whose atom is too large for a state table is refused by the
// compiler, under its name and with the atom, and no session is created.
TEST(Wire, OversizedPredicateAtomsAreRejectedByTheCompilersName) {
    RegistryOptions options;
    options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_oversized_atom").string();
    std::filesystem::remove_all(options.spill_dir);
    RunRegistry registry(options);
    const auto response = dispatch_request(
        registry, parse_request("{\"cmd\":\"submit\",\"protocol\":\"predicate\","
                                "\"predicate\":\"1000000000*x0 < 5\",\"counts\":[5]}"));
    ASSERT_TRUE(response.has_value());
    const JsonValue reply = parse_json(*response);
    EXPECT_FALSE(reply.find("ok")->as_bool("ok")) << *response;
    const JsonValue* error = reply.find("error");
    ASSERT_NE(error, nullptr) << *response;
    EXPECT_EQ(error->as_string("error"),
              "compile_formula: atom (1000000000 x0 < 5): coefficients or constant too large "
              "for a state table");
    EXPECT_TRUE(registry.list().empty());
    std::filesystem::remove_all(options.spill_dir);
}

TEST(Wire, QueueFullRejectionsAreStructured) {
    RegistryOptions options;
    options.workers = 1;
    options.max_queued = 1;
    options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_queue_full").string();
    std::filesystem::remove_all(options.spill_dir);
    RunRegistry registry(options);

    // One long-budget session fills the bounded admission queue.
    const std::string submit =
        "{\"cmd\":\"submit\",\"id\":\"q1\",\"protocol\":\"epidemic\","
        "\"counts\":[1048575,1],\"engine\":\"agent\",\"seed\":3,"
        "\"quantum\":65536,\"budget\":1073741824}";
    const auto first = dispatch_request(registry, parse_request(submit));
    ASSERT_TRUE(first.has_value());
    EXPECT_NE(first->find("\"ok\":true"), std::string::npos) << *first;

    const auto second = dispatch_request(registry, parse_request(submit));
    ASSERT_TRUE(second.has_value());
    const JsonValue rejection = parse_json(*second);
    EXPECT_FALSE(rejection.find("ok")->as_bool("ok"));
    EXPECT_EQ(rejection.find("id")->as_string("id"), "q1");
    EXPECT_EQ(rejection.find("code")->as_string("code"), "queue_full");
    EXPECT_EQ(rejection.find("queued")->as_u64("queued"), 1u);
    EXPECT_EQ(rejection.find("max_queued")->as_u64("max_queued"), 1u);
    EXPECT_NE(rejection.find("error")->as_string("error").find("admission queue"),
              std::string::npos);

    for (const SessionStatus& status : registry.list()) registry.cancel(status.id);
    registry.wait_idle();
    std::filesystem::remove_all(options.spill_dir);
}

TEST(Wire, DispatchesCommandsAgainstARegistry) {
    RegistryOptions options;
    options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_dispatch").string();
    std::filesystem::remove_all(options.spill_dir);
    RunRegistry registry(options);

    const auto dispatch = [&](const std::string& line) {
        const auto response = dispatch_request(registry, parse_request(line));
        EXPECT_TRUE(response.has_value()) << line;
        return response.value_or(std::string());
    };

    EXPECT_EQ(dispatch("{\"cmd\":\"ping\",\"id\":\"p\"}"), "{\"ok\":true,\"id\":\"p\"}");

    const std::string submitted = dispatch(
        "{\"cmd\":\"submit\",\"protocol\":\"epidemic\",\"counts\":[63,1],"
        "\"engine\":\"agent\",\"seed\":5}");
    EXPECT_EQ(submitted.rfind("{\"ok\":true,\"session\":\"s-", 0), 0u) << submitted;
    registry.wait_idle();

    const std::string status = dispatch("{\"cmd\":\"status\",\"session\":\"s-1\"}");
    EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
    EXPECT_NE(status.find("\"stop_reason\""), std::string::npos) << status;

    const std::string list = dispatch("{\"cmd\":\"list\"}");
    EXPECT_NE(list.find("\"sessions\":[{"), std::string::npos) << list;

    const std::string stats = dispatch("{\"cmd\":\"stats\"}");
    EXPECT_NE(stats.find("\"stats\":{\"sessions\":{"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"metrics\":{"), std::string::npos) << stats;
    EXPECT_NO_THROW(parse_json(stats));  // the raw splice still yields valid JSON

    // Errors become {"ok":false,...} responses, never exceptions.
    const std::string missing = dispatch("{\"cmd\":\"status\",\"session\":\"s-404\"}");
    EXPECT_EQ(missing.rfind("{\"ok\":false,\"error\":", 0), 0u) << missing;
    const std::string unknown = dispatch("{\"cmd\":\"warp\"}");
    EXPECT_NE(unknown.find("unknown command \\\"warp\\\""), std::string::npos) << unknown;
    const std::string bad_submit = dispatch("{\"cmd\":\"submit\",\"counts\":[1]}");
    EXPECT_EQ(bad_submit.rfind("{\"ok\":false,", 0), 0u) << bad_submit;

    // Transport-level commands are not dispatched here.
    EXPECT_FALSE(dispatch_request(registry, parse_request("{\"cmd\":\"subscribe\"}")));
    EXPECT_FALSE(dispatch_request(registry, parse_request("{\"cmd\":\"shutdown\"}")));
    std::filesystem::remove_all(options.spill_dir);
}

// ---------------------------------------------------------------------------
// Socket transport, end to end.

bool line_has(const std::string& line, const std::string& needle) {
    return line.find(needle) != std::string::npos;
}

/// Polls `status` through the client until the session is terminal.
std::string wait_terminal(ServiceClient& client, const std::string& id) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
        const std::string status =
            client.request("{\"cmd\":\"status\",\"session\":" + json_quote(id) + "}");
        if (line_has(status, "\"state\":\"done\"") ||
            line_has(status, "\"state\":\"failed\"") ||
            line_has(status, "\"state\":\"cancelled\""))
            return status;
        if (std::chrono::steady_clock::now() > deadline) {
            ADD_FAILURE() << "session " << id << " never settled: " << status;
            return status;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

std::string session_id_of(const std::string& submit_response) {
    const JsonValue parsed = parse_json(submit_response);
    const JsonValue* session = parsed.find("session");
    return session != nullptr ? session->as_string("session") : std::string();
}

void exercise_server(RunRegistry& registry, WireServer& server, ServiceClient client) {
    EXPECT_EQ(client.request("{\"cmd\":\"ping\"}"), "{\"ok\":true}");

    const std::string submitted = client.request(
        "{\"cmd\":\"submit\",\"id\":\"r1\",\"protocol\":\"counting\","
        "\"threshold\":3,\"counts\":[40,8],\"engine\":\"agent\",\"seed\":11,"
        "\"snapshot_every\":64}");
    EXPECT_TRUE(line_has(submitted, "\"ok\":true")) << submitted;
    EXPECT_TRUE(line_has(submitted, "\"id\":\"r1\"")) << submitted;
    const std::string id = session_id_of(submitted);
    ASSERT_FALSE(id.empty());

    const std::string final_status = wait_terminal(client, id);
    EXPECT_TRUE(line_has(final_status, "\"state\":\"done\"")) << final_status;

    // Subscribing to the settled session streams the synthetic state event
    // on the same connection, after the subscribe ack.
    const std::string ack =
        client.request("{\"cmd\":\"subscribe\",\"session\":" + json_quote(id) + "}");
    EXPECT_TRUE(line_has(ack, "\"ok\":true")) << ack;
    EXPECT_TRUE(line_has(ack, "\"token\"")) << ack;
    const std::string event = client.read_line();
    EXPECT_TRUE(line_has(event, "\"session\":" + json_quote(id))) << event;
    EXPECT_TRUE(line_has(event, "\"state\":\"done\"")) << event;

    const std::string stats = client.request("{\"cmd\":\"stats\"}");
    EXPECT_TRUE(line_has(stats, "\"submitted\":")) << stats;

    // Malformed frames are answered, not fatal to the connection.
    const std::string bad = client.request("this is not json");
    EXPECT_EQ(bad.rfind("{\"ok\":false,", 0), 0u) << bad;
    EXPECT_EQ(client.request("{\"cmd\":\"ping\"}"), "{\"ok\":true}");

    EXPECT_FALSE(server.shutdown_requested());
    EXPECT_TRUE(line_has(client.request("{\"cmd\":\"shutdown\"}"), "\"ok\":true"));
    EXPECT_TRUE(server.shutdown_requested());
    (void)registry;
}

TEST(WireServerTest, ServesClientsOverLoopbackTcp) {
    RegistryOptions registry_options;
    registry_options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_tcp").string();
    std::filesystem::remove_all(registry_options.spill_dir);
    RunRegistry registry(registry_options);

    ServerOptions server_options;
    server_options.tcp_port = 0;  // ephemeral
    WireServer server(registry, server_options);
    server.start();
    ASSERT_GT(server.tcp_port(), 0);

    exercise_server(registry, server,
                    ServiceClient::connect_tcp("127.0.0.1", server.tcp_port()));
    server.stop();
    std::filesystem::remove_all(registry_options.spill_dir);
}

TEST(WireServerTest, ServesClientsOverAUnixSocket) {
    RegistryOptions registry_options;
    registry_options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_unix").string();
    std::filesystem::remove_all(registry_options.spill_dir);
    RunRegistry registry(registry_options);

    // Keep the path short: sockaddr_un caps it around 100 bytes.
    const std::string socket_path =
        (std::filesystem::temp_directory_path() / "popproto_wire_test.sock").string();
    std::filesystem::remove(socket_path);
    ServerOptions server_options;
    server_options.unix_path = socket_path;
    WireServer server(registry, server_options);
    server.start();

    exercise_server(registry, server, ServiceClient::connect_unix(socket_path));
    server.stop();
    EXPECT_FALSE(std::filesystem::exists(socket_path)) << "socket not unlinked on stop";
    std::filesystem::remove_all(registry_options.spill_dir);
}

TEST(WireServerTest, LiveSubscribersStreamTraceEventsUntilStop) {
    RegistryOptions registry_options;
    registry_options.spill_dir =
        (std::filesystem::temp_directory_path() / "popproto_wire_stream").string();
    std::filesystem::remove_all(registry_options.spill_dir);
    RunRegistry registry(registry_options);

    ServerOptions server_options;
    server_options.tcp_port = 0;
    WireServer server(registry, server_options);
    server.start();
    ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", server.tcp_port());

    // Budget-bound mid-epidemic work (the budget, 8n, is far below the
    // ~16n silence point), so the run spans 8 quanta and the subscriber
    // attaches while it is in flight on most machines; the terminal-state
    // fallback keeps it deterministic either way.  n = 2^16 caps the
    // event volume structurally: at most n output changes fit under the
    // read-loop guard below.
    const std::string submitted = client.request(
        "{\"cmd\":\"submit\",\"protocol\":\"epidemic\","
        "\"counts\":[65535,1],\"engine\":\"agent\",\"seed\":21,"
        "\"quantum\":65536,\"budget\":524288,\"snapshot_every\":131072}");
    const std::string id = session_id_of(submitted);
    ASSERT_FALSE(id.empty()) << submitted;
    const std::string ack =
        client.request("{\"cmd\":\"subscribe\",\"session\":" + json_quote(id) + "}");
    ASSERT_TRUE(line_has(ack, "\"ok\":true")) << ack;

    // Read events until the run settles; every line is session-tagged.
    std::vector<std::string> events;
    for (int guard = 0; guard < 100000; ++guard) {
        const std::string line = client.read_line();
        EXPECT_TRUE(line_has(line, "\"session\":" + json_quote(id))) << line;
        events.push_back(line);
        if (line_has(line, "\"event\":\"stop\"") ||
            (line_has(line, "\"event\":\"state\"") && line_has(line, "\"state\":\"done\"")))
            break;
    }
    ASSERT_FALSE(events.empty());
    EXPECT_TRUE(line_has(events.back(), "\"event\":\"stop\"") ||
                line_has(events.back(), "\"state\":\"done\""))
        << events.back();

    server.stop();
    std::filesystem::remove_all(registry_options.spill_dir);
}

}  // namespace
}  // namespace popproto::service
