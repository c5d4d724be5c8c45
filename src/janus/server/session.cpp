#include "janus/server/session.hpp"

#include <stdexcept>
#include <utility>

#include "janus/place/analytic_place.hpp"
#include "janus/timing/delay_model.hpp"

namespace janus::server {

// ---------------------------------------------------------------- Session

Session::Session(std::string name, Netlist design, TechnologyNode node,
                 FlowParams params)
    : name_(std::move(name)),
      ctx_(std::move(design), node, std::move(params)) {}

StaOptions Session::sta_options() const {
    StaOptions opts;
    opts.wire = WireModel::for_node(ctx_.node);
    opts.sta_workers = ctx_.params.workers;
    return opts;
}

const FlowResult& Session::run_to(const FlowEngine& engine,
                                  std::string_view stage) {
    engine.run_to(ctx_, stage);
    // The stages rewrite the netlist (mapping replaces it, placement moves
    // every cell, sizing retypes in place without an epoch bump), so every
    // warm cache is invalid regardless of what the epoch says.
    graph_.reset();
    hpwl_um_.reset();
    names_valid_ = false;
    return ctx_.result;
}

TimingGraph& Session::warm_graph(bool* rebuilt) {
    const std::uint64_t epoch = ctx_.netlist.mutation_epoch();
    if (!graph_ || graph_epoch_ != epoch) {
        graph_ = std::make_unique<TimingGraph>(ctx_.netlist, sta_options());
        graph_->analyze();
        graph_epoch_ = epoch;
        if (rebuilt) *rebuilt = true;
    }
    return *graph_;
}

double Session::cached_hpwl() {
    if (!ctx_.placed) return 0.0;
    // In-place ECOs (resize/swap) never move a pin, so the total of the
    // epoch stays exact; a rewire bumps the epoch and re-sums once.
    const std::uint64_t epoch = ctx_.netlist.mutation_epoch();
    if (!hpwl_um_ || hpwl_epoch_ != epoch) {
        hpwl_um_ = total_hpwl_um(ctx_.netlist, ctx_.area);
        hpwl_epoch_ = epoch;
    }
    return *hpwl_um_;
}

void Session::refresh_name_maps() {
    const std::uint64_t epoch = ctx_.netlist.mutation_epoch();
    if (names_valid_ && names_epoch_ == epoch) return;
    inst_by_name_.clear();
    net_by_name_.clear();
    const auto& insts = ctx_.netlist.instances();
    inst_by_name_.reserve(insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        inst_by_name_.emplace(insts[i].name, static_cast<InstId>(i));
    }
    const auto& nets = ctx_.netlist.nets();
    net_by_name_.reserve(nets.size());
    for (std::size_t n = 0; n < nets.size(); ++n) {
        net_by_name_.emplace(nets[n].name, static_cast<NetId>(n));
    }
    // insts[i].name / nets[n].name are already NameIds — no hashing of the
    // strings themselves happens here.
    names_epoch_ = epoch;
    names_valid_ = true;
}

TimingOutcome Session::timing() {
    bool rebuilt = false;
    TimingGraph& tg = warm_graph(&rebuilt);
    TimingOutcome out;
    const std::size_t comb = ctx_.netlist.topological_order().size();
    out.full_evals = 2 * comb;  // one forward + one backward sweep
    out.incremental = !rebuilt;
    out.evals = rebuilt ? out.full_evals : 0;
    out.hpwl_um = cached_hpwl();
    out.report = tg.report();
    out.report_text = format_timing_report(ctx_.netlist, out.report);
    return out;
}

namespace {

/// One validated edit, resolved to ids, ready to apply.
struct ResolvedEdit {
    EcoEdit::Kind kind;
    InstId inst = kNoInst;
    std::size_t new_type = 0;  // Resize / Swap
    int pin = -1;              // Rewire
    NetId net = kNoNet;        // Rewire
};

}  // namespace

TimingOutcome Session::apply_eco(const std::vector<EcoEdit>& edits) {
    if (edits.empty()) throw std::invalid_argument("eco: no edits given");
    refresh_name_maps();
    const Netlist& nl = ctx_.netlist;
    const CellLibrary& lib = nl.library();

    // Pass 1: validate everything before touching anything — a bad edit in
    // the middle of a list must not leave the session half-modified.
    std::vector<ResolvedEdit> resolved;
    resolved.reserve(edits.size());
    bool structural = false;
    for (const EcoEdit& e : edits) {
        ResolvedEdit r;
        r.kind = e.kind;
        const auto it = inst_by_name_.find(nl.names().find(e.instance));
        if (it == inst_by_name_.end()) {
            throw std::invalid_argument("eco: unknown instance \"" +
                                        e.instance + "\"");
        }
        r.inst = it->second;
        const CellType& old_cell = nl.type_of(r.inst);
        switch (e.kind) {
            case EcoEdit::Kind::Resize:
            case EcoEdit::Kind::Swap: {
                const auto cell = lib.find(e.cell);
                if (!cell) {
                    throw std::invalid_argument("eco: unknown cell \"" +
                                                e.cell + "\"");
                }
                r.new_type = *cell;
                const CellType& new_cell = lib.cell(r.new_type);
                if (e.kind == EcoEdit::Kind::Resize &&
                    new_cell.function != old_cell.function) {
                    throw std::invalid_argument(
                        "eco: resize of \"" + e.instance + "\" to " +
                        new_cell.name + " changes the logic function (use swap)");
                }
                if (function_arity(new_cell.function) !=
                    function_arity(old_cell.function)) {
                    throw std::invalid_argument(
                        "eco: swap of \"" + e.instance + "\" to " +
                        new_cell.name + " changes arity");
                }
                if (is_sequential(new_cell.function) !=
                    is_sequential(old_cell.function)) {
                    throw std::invalid_argument(
                        "eco: swap of \"" + e.instance + "\" to " +
                        new_cell.name + " changes sequential-ness");
                }
                break;
            }
            case EcoEdit::Kind::Rewire: {
                if (e.pin < 0 || e.pin >= function_arity(old_cell.function)) {
                    throw std::invalid_argument(
                        "eco: rewire pin " + std::to_string(e.pin) +
                        " out of range for \"" + e.instance + "\"");
                }
                const auto net_it = net_by_name_.find(nl.net_name_id(e.net));
                if (net_it == net_by_name_.end()) {
                    throw std::invalid_argument("eco: unknown net \"" + e.net +
                                                "\"");
                }
                r.pin = e.pin;
                r.net = net_it->second;
                structural = true;
                break;
            }
        }
        resolved.push_back(r);
    }

    // Warm the graph *before* mutating so in-place edits can be reported
    // through resize() — pointless when a structural edit forces a rebuild
    // anyway.
    if (!structural) warm_graph(nullptr);

    // Pass 2: apply.
    for (const ResolvedEdit& r : resolved) {
        switch (r.kind) {
            case EcoEdit::Kind::Resize:
            case EcoEdit::Kind::Swap:
                ctx_.netlist.instance(r.inst).type = r.new_type;
                if (!structural) graph_->resize(r.inst);
                break;
            case EcoEdit::Kind::Rewire:
                ctx_.netlist.connect_input(r.inst, r.pin, r.net);
                break;
        }
    }

    TimingOutcome out;
    const std::size_t comb = ctx_.netlist.topological_order().size();
    out.full_evals = 2 * comb;
    if (structural) {
        // The epoch moved: the warm graph is stale by contract. Full
        // fallback — rebuild and analyze from scratch.
        warm_graph(nullptr);
        out.incremental = false;
        out.evals = out.full_evals;
    } else {
        const TimingUpdateStats stats = graph_->update();
        out.incremental = true;
        out.evals = stats.instances_reevaluated();
    }
    out.hpwl_um = cached_hpwl();
    out.report = graph_->report();
    out.report_text = format_timing_report(ctx_.netlist, out.report);
    return out;
}

// --------------------------------------------------------- SessionManager

SessionManager::SessionManager(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::size_t SessionManager::size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
}

void SessionManager::touch_locked(const std::string& name) {
    const auto it = index_.find(name);
    if (it == index_.end()) return;
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second = lru_.begin();
}

std::shared_ptr<Session> SessionManager::create(std::string name,
                                                Netlist design,
                                                TechnologyNode node,
                                                FlowParams params) {
    // Construct outside the lock: FlowContext validation and the netlist
    // copy are not cheap, and the constructor may throw.
    auto session = std::make_shared<Session>(name, std::move(design), node,
                                             std::move(params));
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(name);
    if (it != index_.end()) {
        // Replace in place, keeping LRU position fresh.
        it->second->second = session;
        lru_.splice(lru_.begin(), lru_, it->second);
        it->second = lru_.begin();
        return session;
    }
    if (lru_.size() >= capacity_) {
        // Evict the least recently used session. In-flight requests that
        // already hold a shared_ptr finish normally.
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
    }
    lru_.emplace_front(name, session);
    index_.emplace(std::move(name), lru_.begin());
    return session;
}

std::shared_ptr<Session> SessionManager::find(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(std::string(name));
    if (it == index_.end()) return nullptr;
    std::shared_ptr<Session> s = it->second->second;
    touch_locked(it->first);
    return s;
}

bool SessionManager::evict(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(std::string(name));
    if (it == index_.end()) return false;
    lru_.erase(it->second);
    index_.erase(it);
    return true;
}

std::vector<std::string> SessionManager::names() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(lru_.size());
    for (const auto& [name, session] : lru_) out.push_back(name);
    return out;
}

std::size_t SessionManager::evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
}

}  // namespace janus::server
