#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "janus/server/protocol.hpp"

namespace janus::e2e {
namespace {

/// Innermost open span of the calling thread. One tracer is live per
/// process, so a plain thread-local is enough.
thread_local int t_current = -1;

std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

int Tracer::open(std::string name, int job, int parent) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), t, -1.0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_s = t;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, int job)
    : tracer_(tracer) {
    if (!tracer_.enabled_) return;
    saved_parent_ = t_current;
    id_ = tracer_.open(std::move(name), job, t_current);
    t_current = id_;
}

Tracer::Scope::~Scope() {
    if (id_ < 0) return;
    tracer_.close(id_);
    t_current = saved_parent_;
}

double Tracer::total_s(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    double sum = 0;
    for (const Span& s : spans_) {
        if (s.end_s >= 0 && s.name == name) sum += s.end_s - s.start_s;
    }
    return sum;
}

std::size_t Tracer::count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const Span& s : spans_) {
        if (s.end_s >= 0 && s.name == name) ++n;
    }
    return n;
}

std::map<std::string, double> Tracer::layer_self_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (s.end_s < 0) continue;
        self[i] += s.end_s - s.start_s;
        // Children run on their parent's thread inside its interval, so
        // their durations never overlap each other.
        if (s.parent >= 0) {
            self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
        }
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].end_s < 0) continue;
        by_layer[layer_of(spans_[i].name)] += self[i];
    }
    return by_layer;
}

void Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("trace: cannot write " + path);
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        server::JsonValue o = server::JsonValue::object();
        o.set("id", i);
        o.set("name", s.name);
        o.set("start_s", s.start_s);
        o.set("end_s", s.end_s);
        o.set("parent", s.parent);
        o.set("job", s.job);
        out << o.dump() << '\n';
    }
}

}  // namespace janus::e2e
