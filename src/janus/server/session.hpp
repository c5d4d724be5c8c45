#pragma once
/// \file session.hpp
/// Named persistent flow sessions for the JanusEDA flow server. A Session
/// owns one FlowContext (design + params + stage progress) plus the warm
/// analysis caches that make ECO queries cheap:
///
///  - a TimingGraph built once per netlist structure and kept analyzed, so
///    a cell resize/swap is answered by TimingGraph::resize() + update()
///    — O(affected cone) instead of O(design);
///  - the placement's HPWL, one double summed once per netlist epoch by
///    total_hpwl_um(): within an epoch no pin moves (resizes and swaps
///    keep every position), so a reply reads it instead of re-summing the
///    design.
///
/// Edits that change netlist structure (rewires) bump
/// Netlist::mutation_epoch(); the session detects staleness and falls back
/// to a full TimingGraph rebuild + analyze — correctness never depends on
/// the caches being reusable. Timing results are byte-identical either way
/// (TimingGraph's incremental contract), which server_test verifies by
/// byte-comparing formatted reports against a cold re-run.
///
/// SessionManager is the server-side registry: bounded capacity with
/// least-recently-used eviction.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "janus/flow/flow_engine.hpp"
#include "janus/timing/timing_graph.hpp"

namespace janus::server {

/// One engineering change order edit against a session's netlist.
struct EcoEdit {
    enum class Kind {
        Resize,  ///< same function, different drive variant (in place)
        Swap,    ///< different cell, same arity + sequential-ness (in place)
        Rewire,  ///< reconnect one input pin to another net (structural)
    };
    Kind kind = Kind::Resize;
    std::string instance;  ///< target instance name
    std::string cell;      ///< new cell name (Resize / Swap)
    int pin = -1;          ///< input pin index (Rewire)
    std::string net;       ///< new driving net name (Rewire)
};

/// Result of one timing query or ECO application.
struct TimingOutcome {
    /// True when answered through the warm incremental path (resize +
    /// update); false when the graph had to be rebuilt and fully analyzed.
    bool incremental = false;
    std::size_t evals = 0;       ///< timing evaluations actually performed
    std::size_t full_evals = 0;  ///< cost of an equivalent full analysis
    double hpwl_um = 0.0;        ///< cached placement HPWL (0 pre-placement)
    TimingReport report;
    std::string report_text;     ///< format_timing_report(), the byte-compare key
};

/// One named, persistent design session.
class Session {
  public:
    /// Takes ownership of the design; `params` is validated by the
    /// FlowContext constructor (throws std::invalid_argument).
    Session(std::string name, Netlist design, TechnologyNode node,
            FlowParams params);

    const std::string& name() const { return name_; }
    /// Serializes concurrent server requests against this session.
    std::mutex& mutex() { return mu_; }

    const FlowContext& context() const { return ctx_; }
    const StageTrace& trace() const { return ctx_.trace; }
    const FlowResult& result() const { return ctx_.result; }

    /// Runs flow stages up to and including `stage` (resumable; no-op when
    /// already past it). Invalidate the warm caches: the stages rewrite the
    /// netlist wholesale.
    const FlowResult& run_to(const FlowEngine& engine, std::string_view stage);

    /// Full timing of the current netlist state; builds/reuses the warm
    /// graph, swept with FlowParams::workers threads.
    TimingOutcome timing();

    /// Validates every edit, then applies them atomically (all or nothing:
    /// a bad edit throws ProtocolError before anything is touched) and
    /// re-times — incrementally when every edit was in-place and the graph
    /// is warm, else via full rebuild.
    TimingOutcome apply_eco(const std::vector<EcoEdit>& edits);

  private:
    StaOptions sta_options() const;
    TimingGraph& warm_graph(bool* rebuilt);
    void refresh_name_maps();
    double cached_hpwl();

    std::string name_;
    std::mutex mu_;
    FlowContext ctx_;

    // Warm caches (lazily built, epoch-checked).
    std::unique_ptr<TimingGraph> graph_;
    std::uint64_t graph_epoch_ = 0;
    std::optional<double> hpwl_um_;
    std::uint64_t hpwl_epoch_ = 0;

    // Name lookup (rebuilt when the netlist structure changes). Keys are
    // NameIds straight out of Instance::name / Net::name (net keys may be
    // kDerivedName-encoded): external strings are resolved once via
    // names().find() / net_name_id(), so the maps stay 8 bytes per entry
    // instead of owning a second copy of every design name.
    std::unordered_map<NameId, InstId> inst_by_name_;
    std::unordered_map<NameId, NetId> net_by_name_;
    std::uint64_t names_epoch_ = 0;
    bool names_valid_ = false;
};

/// Bounded registry of sessions with LRU eviction. Thread-safe; returned
/// shared_ptrs keep a session alive across its own eviction (an in-flight
/// request on an evicted session completes normally).
class SessionManager {
  public:
    explicit SessionManager(std::size_t capacity);

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const;

    /// Creates (or replaces) a session under `name`, evicting the least
    /// recently used session when at capacity. Returns the new session.
    std::shared_ptr<Session> create(std::string name, Netlist design,
                                    TechnologyNode node, FlowParams params);

    /// Looks up a session and marks it most recently used; nullptr when
    /// absent.
    std::shared_ptr<Session> find(std::string_view name);

    /// Removes a session by name; false when absent.
    bool evict(std::string_view name);

    /// Session names, most recently used first.
    std::vector<std::string> names() const;

    std::size_t evictions() const;

  private:
    void touch_locked(const std::string& name);

    const std::size_t capacity_;
    mutable std::mutex mu_;
    /// LRU order, most recent first; the map points into this list.
    std::list<std::pair<std::string, std::shared_ptr<Session>>> lru_;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string,
                                           std::shared_ptr<Session>>>::iterator>
        index_;
    std::size_t evictions_ = 0;
};

}  // namespace janus::server
