#pragma once
/// \file trace.hpp
/// Span recorder for the traced benchmark run. Spans are opened by the
/// benchmark around its own calls into the janus layers (nothing inside the
/// library is instrumented), kept in memory, and written out when the run
/// ends. A span is named "<layer>.<what>", e.g. "place.global"; the layer is
/// the part before the first dot and matches a src/janus module.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace janus::e2e {

struct Span {
    std::string name;
    double start_s = 0;  ///< seconds since the tracer was created
    double end_s = 0;
    int parent = -1;     ///< index of the enclosing span on the same thread
    int job = -1;        ///< operation the span belongs to (-1 = set-up)
};

class Tracer {
  public:
    /// A disabled tracer records nothing and its scopes cost one branch.
    explicit Tracer(bool enabled);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const { return enabled_; }

    /// RAII span: opened on construction, closed on destruction. Spans nest
    /// per thread; the innermost open span on the calling thread becomes
    /// the parent.
    class Scope {
      public:
        Scope(Tracer& tracer, std::string name, int job);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        int id_ = -1;
        int saved_parent_ = -1;
    };

    /// Total duration of every closed span with this exact name, seconds.
    double total_s(const std::string& name) const;
    /// Number of closed spans with this exact name.
    std::size_t count(const std::string& name) const;
    /// Self time per layer: each span's duration minus the time its direct
    /// children cover, summed by layer prefix.
    std::map<std::string, double> layer_self_s() const;

    /// Writes every span as one JSON object per line.
    void write(const std::string& path) const;

  private:
    int open(std::string name, int job, int parent);
    void close(int id);
    double now_s() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;  // guards spans_
    std::vector<Span> spans_;
};

}  // namespace janus::e2e
