#include "janus/server/flow_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "janus/flow/report.hpp"
#include "janus/netlist/io.hpp"

namespace janus::server {
namespace {

[[noreturn]] void sys_fail(const char* what) {
    throw std::runtime_error(std::string(what) + ": " +
                             std::strerror(errno));
}

bool send_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
        if (n <= 0) return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/// Maps the wire "params" object onto FlowParams. Strict: an unknown key is
/// a protocol error (catches client typos instead of silently ignoring a
/// misspelled knob).
FlowParams parse_params(const JsonValue* params) {
    FlowParams p;
    if (!params) return p;
    if (!params->is_object()) throw ProtocolError("params must be an object");
    for (const auto& [key, value] : params->members()) {
        if (key == "workers") {
            p.workers = static_cast<int>(value.as_int());
        } else if (key == "optimize_rounds") {
            p.optimize_rounds = static_cast<int>(value.as_int());
        } else if (key == "utilization") {
            p.utilization = value.as_real();
        } else if (key == "placer_iterations") {
            p.placer_iterations = static_cast<int>(value.as_int());
        } else if (key == "sa_moves_per_cell") {
            p.sa_moves_per_cell = static_cast<int>(value.as_int());
        } else if (key == "router_iterations") {
            p.router_iterations = static_cast<int>(value.as_int());
        } else if (key == "routing_layers") {
            p.routing_layers = static_cast<int>(value.as_int());
        } else if (key == "scan_chains") {
            p.scan_chains = static_cast<int>(value.as_int());
        } else if (key == "seed") {
            p.seed = static_cast<std::uint64_t>(value.as_int());
        } else if (key == "stages") {
            FlowStageMask mask = FlowStageMask::None;
            for (const JsonValue& s : value.items()) {
                const std::string& stage = s.as_string();
                if (stage == "scan") mask = mask | FlowStageMask::Scan;
                else if (stage == "clock_tree") mask = mask | FlowStageMask::ClockTree;
                else if (stage == "sizing") mask = mask | FlowStageMask::Sizing;
                else throw ProtocolError("unknown stage flag \"" + stage + "\"");
            }
            p.stages = mask;
        } else {
            throw ProtocolError("unknown params key \"" + key + "\"");
        }
    }
    return p;
}

void add_qor(JsonValue& resp, const FlowResult& r) {
    resp.set("design", r.design);
    resp.set("instances", r.instances);
    resp.set("area_um2", r.area_um2);
    resp.set("hpwl_um", r.hpwl_um);
    resp.set("route_wirelength", r.route_wirelength);
    resp.set("critical_delay_ps", r.critical_delay_ps);
    resp.set("wns_ps", r.wns_ps);
    resp.set("total_power_mw", r.total_power_mw);
    resp.set("legal", r.legal);
    resp.set("runtime_ms", r.runtime_ms);
}

void add_timing(JsonValue& resp, const TimingOutcome& o) {
    resp.set("incremental", o.incremental);
    resp.set("evals", o.evals);
    resp.set("full_evals", o.full_evals);
    resp.set("hpwl_um", o.hpwl_um);
    resp.set("wns_ps", o.report.wns_ps);
    resp.set("tns_ps", o.report.tns_ps);
    resp.set("hold_wns_ps", o.report.hold_wns_ps);
    resp.set("critical_delay_ps", o.report.critical_delay_ps);
    resp.set("fmax_ghz", o.report.fmax_ghz);
    resp.set("report", o.report_text);
}

std::vector<EcoEdit> parse_edits(const JsonValue& req) {
    std::vector<EcoEdit> edits;
    for (const JsonValue& e : req.at("edits").items()) {
        if (!e.is_object()) throw ProtocolError("eco edit must be an object");
        EcoEdit edit;
        const std::string& kind = e.at("kind").as_string();
        if (kind == "resize") edit.kind = EcoEdit::Kind::Resize;
        else if (kind == "swap") edit.kind = EcoEdit::Kind::Swap;
        else if (kind == "rewire") edit.kind = EcoEdit::Kind::Rewire;
        else throw ProtocolError("unknown eco kind \"" + kind + "\"");
        edit.instance = e.at("instance").as_string();
        if (edit.kind == EcoEdit::Kind::Rewire) {
            edit.pin = static_cast<int>(e.at("pin").as_int());
            edit.net = e.at("net").as_string();
        } else {
            edit.cell = e.at("cell").as_string();
        }
        edits.push_back(std::move(edit));
    }
    return edits;
}

}  // namespace

// ------------------------------------------------------------- FlowServer

FlowServer::FlowServer(TechnologyNode node, FlowServerOptions opts)
    : node_(node),
      opts_(opts),
      lib_(std::make_shared<CellLibrary>(make_default_library(node))),
      scheduler_(engine_, opts.workers),
      sessions_(opts.max_sessions) {}

FlowServer::~FlowServer() { stop(); }

std::string FlowServer::handle_request(const std::string& line) {
    try {
        const JsonValue req = parse_json(line);
        if (!req.is_object()) {
            throw ProtocolError("request must be a JSON object");
        }
        return dispatch(req).dump();
    } catch (const std::exception& e) {
        return make_error_response(e.what()).dump();
    }
}

JsonValue FlowServer::scheduled(std::function<JsonValue()> fn,
                                JobPriority priority) {
    JsonValue out;
    JobHandle handle =
        scheduler_.submit_fn([&out, &fn] { out = fn(); }, priority);
    const FlowResult& r = handle.wait();
    if (r.failed()) throw std::runtime_error(r.error);
    return out;
}

std::shared_ptr<Session> FlowServer::require_session(const JsonValue& req) {
    const std::string& name = req.at("session").as_string();
    std::shared_ptr<Session> s = sessions_.find(name);
    if (!s) throw ProtocolError("unknown session \"" + name + "\"");
    return s;
}

JsonValue FlowServer::dispatch(const JsonValue& req) {
    const std::string& cmd = req.at("cmd").as_string();
    // Session-touching commands run as scheduler jobs so they share the
    // admission queue with batch flows: design submission and flow runs
    // queue at Batch, ECO/timing/trace queries jump ahead at Eco.
    if (cmd == "submit_design") {
        return scheduled([&] { return cmd_submit_design(req); },
                         JobPriority::Batch);
    }
    if (cmd == "run_to") {
        return scheduled([&] { return cmd_run_to(req); }, JobPriority::Batch);
    }
    if (cmd == "timing") {
        return scheduled([&] { return cmd_timing(req); }, JobPriority::Eco);
    }
    if (cmd == "eco") {
        return scheduled([&] { return cmd_eco(req); }, JobPriority::Eco);
    }
    if (cmd == "query_trace") {
        return scheduled([&] { return cmd_query_trace(req); },
                         JobPriority::Eco);
    }
    // Registry / liveness commands answer inline.
    if (cmd == "ping") {
        JsonValue resp = make_ok_response();
        resp.set("reply", "pong");
        return resp;
    }
    if (cmd == "list_sessions") return cmd_list_sessions();
    if (cmd == "evict") {
        JsonValue resp = make_ok_response();
        resp.set("evicted", sessions_.evict(req.at("session").as_string()));
        return resp;
    }
    if (cmd == "stats") return cmd_stats();
    throw ProtocolError("unknown cmd \"" + cmd + "\"");
}

JsonValue FlowServer::cmd_submit_design(const JsonValue& req) {
    const std::string& name = req.at("session").as_string();
    Netlist nl = netlist_from_string(req.at("netlist").as_string(), lib_);
    FlowParams params = parse_params(req.find("params"));
    std::shared_ptr<Session> s =
        sessions_.create(name, std::move(nl), node_, std::move(params));
    JsonValue resp = make_ok_response();
    resp.set("session", name);
    resp.set("design", s->context().netlist.name());
    resp.set("instances", s->context().netlist.num_instances());
    resp.set("nets", s->context().netlist.num_nets());
    resp.set("sessions", sessions_.size());
    return resp;
}

JsonValue FlowServer::cmd_run_to(const JsonValue& req) {
    std::shared_ptr<Session> s = require_session(req);
    const std::string& stage = req.at("stage").as_string();
    std::lock_guard<std::mutex> lock(s->mutex());
    const FlowResult& r = s->run_to(engine_, stage);
    if (r.failed()) throw std::runtime_error(r.error);
    JsonValue resp = make_ok_response();
    resp.set("session", s->name());
    resp.set("stage", stage);
    add_qor(resp, r);
    return resp;
}

JsonValue FlowServer::cmd_timing(const JsonValue& req) {
    std::shared_ptr<Session> s = require_session(req);
    std::lock_guard<std::mutex> lock(s->mutex());
    const TimingOutcome o = s->timing();
    JsonValue resp = make_ok_response();
    resp.set("session", s->name());
    add_timing(resp, o);
    return resp;
}

JsonValue FlowServer::cmd_eco(const JsonValue& req) {
    std::shared_ptr<Session> s = require_session(req);
    const std::vector<EcoEdit> edits = parse_edits(req);
    std::lock_guard<std::mutex> lock(s->mutex());
    const TimingOutcome o = s->apply_eco(edits);
    JsonValue resp = make_ok_response();
    resp.set("session", s->name());
    resp.set("edits", edits.size());
    add_timing(resp, o);
    return resp;
}

JsonValue FlowServer::cmd_query_trace(const JsonValue& req) {
    std::shared_ptr<Session> s = require_session(req);
    std::lock_guard<std::mutex> lock(s->mutex());
    JsonValue resp = make_ok_response();
    resp.set("session", s->name());
    resp.set("trace", stage_trace_json(s->trace()));
    return resp;
}

JsonValue FlowServer::cmd_list_sessions() const {
    JsonValue resp = make_ok_response();
    JsonValue names = JsonValue::array();
    for (const std::string& n : sessions_.names()) names.push(n);
    resp.set("sessions", std::move(names));
    resp.set("capacity", sessions_.capacity());
    resp.set("evictions", sessions_.evictions());
    return resp;
}

JsonValue FlowServer::cmd_stats() const {
    const SchedulerStats st = scheduler_.stats();
    JsonValue resp = make_ok_response();
    resp.set("workers", scheduler_.workers());
    resp.set("submitted", st.submitted);
    resp.set("completed", st.completed);
    resp.set("failed", st.failed);
    resp.set("eco_submitted", st.eco_submitted);
    resp.set("eco_preempts", st.eco_preempts);
    resp.set("sessions", sessions_.size());
    return resp;
}

// ---------------------------------------------------------- socket layer

void FlowServer::start() {
    if (running_.load()) return;
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_fail("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts_.port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        sys_fail("bind");
    }
    if (::listen(listen_fd_, 64) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        sys_fail("listen");
    }
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    running_.store(true);
    accept_thread_ = std::thread(&FlowServer::accept_loop, this);
}

void FlowServer::accept_loop() {
    // Snapshot the fd: start() wrote it before spawning this thread, and
    // stop() resets the member while we may still be blocked in accept().
    const int listen_fd = listen_fd_;
    while (running_.load()) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (!running_.load()) break;
            continue;
        }
        // Reap finished connections so a long-lived server does not grow
        // one dead thread per past client.
        std::list<Conn> dead;
        {
            std::lock_guard<std::mutex> lock(conn_mu_);
            for (auto it = conns_.begin(); it != conns_.end();) {
                if (!it->open) {
                    dead.splice(dead.end(), conns_, it++);
                } else {
                    ++it;
                }
            }
        }
        for (Conn& c : dead) {
            if (c.th.joinable()) c.th.join();
        }
        std::lock_guard<std::mutex> lock(conn_mu_);
        conns_.emplace_back();
        Conn& c = conns_.back();  // list nodes are address-stable
        c.fd = fd;
        c.open = true;
        c.th = std::thread([this, conn = &c] {
            serve_connection(conn->fd);
            std::lock_guard<std::mutex> l(conn_mu_);
            ::close(conn->fd);
            conn->open = false;
        });
    }
}

void FlowServer::serve_connection(int fd) {
    std::string buf;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) return;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t eol;
        while ((eol = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, eol);
            buf.erase(0, eol + 1);
            if (!line.empty() && line.back() == '\r') line.pop_back();
            if (line.empty()) continue;
            std::string resp = handle_request(line);
            resp += '\n';
            if (!send_all(fd, resp)) return;
        }
    }
}

void FlowServer::stop() {
    running_.store(false);
    if (listen_fd_ >= 0) {
        // shutdown() wakes the blocked accept() (Linux); close() releases
        // the port.
        ::shutdown(listen_fd_, SHUT_RDWR);
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    {
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (Conn& c : conns_) {
            if (c.open) ::shutdown(c.fd, SHUT_RDWR);
        }
    }
    // The accept thread is gone, so the list structure is frozen;
    // connection threads only flip their own `open` flag.
    for (Conn& c : conns_) {
        if (c.th.joinable()) c.th.join();
    }
    conns_.clear();
    port_ = 0;
}

// ------------------------------------------------------------ JanusClient

JanusClient::JanusClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) sys_fail("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd_);
        fd_ = -1;
        errno = saved;
        sys_fail("connect");
    }
}

JanusClient::~JanusClient() {
    if (fd_ >= 0) ::close(fd_);
}

std::string JanusClient::request(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    if (!send_all(fd_, framed)) sys_fail("send");
    while (true) {
        const std::size_t eol = buffer_.find('\n');
        if (eol != std::string::npos) {
            std::string resp = buffer_.substr(0, eol);
            buffer_.erase(0, eol + 1);
            return resp;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n <= 0) {
            throw std::runtime_error("server closed the connection");
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

}  // namespace janus::server
