#include "service/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "service/wire.h"

namespace popproto::service {

namespace {

void close_fd(int& fd) {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

}  // namespace

WireServer::WireServer(RunRegistry& registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {}

WireServer::~WireServer() { stop(); }

void WireServer::start() {
    if (!options_.unix_path.empty()) {
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            throw std::runtime_error(std::string("server: socket: ") + std::strerror(errno));
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        if (options_.unix_path.size() >= sizeof(address.sun_path))
            throw std::runtime_error("server: unix socket path too long: " +
                                     options_.unix_path);
        std::strncpy(address.sun_path, options_.unix_path.c_str(),
                     sizeof(address.sun_path) - 1);
        ::unlink(options_.unix_path.c_str());  // stale socket from a previous daemon
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) < 0) {
            const std::string message = std::string("server: bind ") + options_.unix_path +
                                        ": " + std::strerror(errno);
            close_fd(listen_fd_);
            throw std::runtime_error(message);
        }
    } else {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            throw std::runtime_error(std::string("server: socket: ") + std::strerror(errno));
        const int reuse = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        address.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address), sizeof(address)) < 0) {
            const std::string message = std::string("server: bind 127.0.0.1:") +
                                        std::to_string(options_.tcp_port) + ": " +
                                        std::strerror(errno);
            close_fd(listen_fd_);
            throw std::runtime_error(message);
        }
        sockaddr_in bound{};
        socklen_t bound_len = sizeof(bound);
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0)
            tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
    if (::listen(listen_fd_, 128) < 0) {
        const std::string message = std::string("server: listen: ") + std::strerror(errno);
        close_fd(listen_fd_);
        throw std::runtime_error(message);
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void WireServer::stop() {
    if (stopping_.exchange(true)) {
        if (accept_thread_.joinable()) accept_thread_.join();
        return;
    }
    // Shut the listener down first so accept() unblocks, then every
    // connection so their readers unblock.  The listener is closed only
    // after the accept thread has exited: accept_loop reads listen_fd_ for
    // its next accept(), and closing earlier would also let an unrelated
    // open() reuse the descriptor number underneath it.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    close_fd(listen_fd_);
    std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> connections;
    {
        const std::lock_guard<std::mutex> lock(connections_mutex_);
        connections.swap(connections_);
    }
    for (auto& [connection, thread] : connections) {
        connection->alive.store(false);
        if (connection->fd >= 0) ::shutdown(connection->fd, SHUT_RDWR);
        if (thread.joinable()) thread.join();
        close_fd(connection->fd);
    }
    if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void WireServer::accept_loop() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load()) return;
            if (errno == EINTR) continue;
            return;  // listener closed underneath us
        }
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        // Register before starting the reader so a subscribe on the very
        // first line already finds its Connection in the list.
        const std::lock_guard<std::mutex> lock(connections_mutex_);
        if (stopping_.load()) {
            // stop() already swapped the list out; don't adopt strays.
            ::close(fd);
            continue;
        }
        connections_.emplace_back(
            connection, std::thread([this, connection] { connection_loop(connection); }));
    }
}

bool WireServer::send_line(Connection& connection, const std::string& line) {
    const std::lock_guard<std::mutex> lock(connection.write_mutex);
    if (!connection.alive.load()) return false;
    std::string frame = line;
    frame += '\n';
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n = ::send(connection.fd, frame.data() + sent, frame.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            connection.alive.store(false);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

void WireServer::handle_line(Connection& connection, const std::string& line) {
    WireRequest request;
    try {
        request = parse_request(line);
    } catch (const std::exception& error) {
        send_line(connection, error_response(std::nullopt, error.what()));
        return;
    }
    if (const std::optional<std::string> response = dispatch_request(registry_, request)) {
        send_line(connection, *response);
        return;
    }
    // Transport-level commands.
    try {
        if (request.command == "shutdown") {
            shutdown_requested_.store(true);
            send_line(connection, ok_response(request.request_id));
            return;
        }
        const JsonValue* session = request.payload.find("session");
        if (session == nullptr)
            throw std::invalid_argument("\"" + request.command + "\" requires 'session'");
        const std::string id = session->as_string("'session'");
        if (request.command == "subscribe") {
            const std::uint64_t token = next_token_.fetch_add(1);
            // The sink holds the Connection alive even after teardown; a
            // dead connection just swallows lines.
            const std::shared_ptr<Connection> holder = [&] {
                const std::lock_guard<std::mutex> lock(connections_mutex_);
                for (const auto& [candidate, thread] : connections_) {
                    if (candidate.get() == &connection) return candidate;
                }
                return std::shared_ptr<Connection>();
            }();
            // Ack before registering the sink so the response always
            // precedes the event stream (a terminal session publishes its
            // synthetic state event synchronously from subscribe).  The
            // status call up front keeps unknown ids on the error path.
            (void)registry_.status(id);
            {
                const std::lock_guard<std::mutex> lock(connection.subscription_mutex);
                connection.subscriptions.emplace_back(id, token);
            }
            JsonValue::Object fields;
            fields.emplace_back("session", JsonValue(id));
            fields.emplace_back("token", JsonValue(token));
            send_line(connection, ok_response(request.request_id, std::move(fields)));
            registry_.subscribe(id, token, [holder](const std::string& event) {
                if (holder != nullptr && holder->alive.load()) send_line(*holder, event);
            });
            return;
        }
        if (request.command == "unsubscribe") {
            std::vector<std::pair<std::string, std::uint64_t>> removed;
            {
                const std::lock_guard<std::mutex> lock(connection.subscription_mutex);
                auto& subscriptions = connection.subscriptions;
                for (auto it = subscriptions.begin(); it != subscriptions.end();) {
                    if (it->first == id) {
                        removed.push_back(*it);
                        it = subscriptions.erase(it);
                    } else {
                        ++it;
                    }
                }
            }
            for (const auto& [session_id, token] : removed)
                registry_.unsubscribe(session_id, token);
            JsonValue::Object fields;
            fields.emplace_back("session", JsonValue(id));
            send_line(connection, ok_response(request.request_id, std::move(fields)));
            return;
        }
        send_line(connection, error_response(request.request_id,
                                             "unknown command \"" + request.command + "\""));
    } catch (const std::exception& error) {
        send_line(connection, error_response(request.request_id, error.what()));
    }
}

void WireServer::connection_loop(std::shared_ptr<Connection> connection) {
    std::string buffer;
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(connection->fd, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
            const std::size_t newline = buffer.find('\n', start);
            if (newline == std::string::npos) break;
            std::string line = buffer.substr(start, newline - start);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            start = newline + 1;
            if (!line.empty()) handle_line(*connection, line);
        }
        buffer.erase(0, start);
        if (buffer.size() > (std::size_t{1} << 22))
            break;  // a 4 MiB line is not a protocol frame; drop the peer
    }
    connection->alive.store(false);
    std::vector<std::pair<std::string, std::uint64_t>> subscriptions;
    {
        const std::lock_guard<std::mutex> lock(connection->subscription_mutex);
        subscriptions.swap(connection->subscriptions);
    }
    for (const auto& [session_id, token] : subscriptions)
        registry_.unsubscribe(session_id, token);
}

}  // namespace popproto::service
