#pragma once
/// \file netlist.hpp
/// Gate-level netlist: instances of library cells connected by single-driver
/// nets. This is the common fabric consumed by STA, placement, routing,
/// power analysis and DFT.
///
/// Model: every net has exactly one driver (a primary input or an instance
/// output) and any number of sinks (instance inputs or primary outputs).
/// Instances have at most four logic inputs and one output. Sequential
/// elements are DFF/SDFF instances; their Q output is the instance output.
///
/// Storage is megascale-lean (docs/MEGASCALE.md): names are interned into a
/// shared NameTable and objects carry 32-bit NameIds instead of
/// std::strings, Instance shrinks its cell type to 32 bits and tucks the
/// placed flag into padding (48 bytes total, down from 88), Net is 12 bytes
/// (down from 40), and the sinks() cache is a flat CSR (offset + packed sink arrays)
/// instead of a vector of per-net vectors. All of this is observationally
/// pure: names round-trip exactly, iteration orders are unchanged, and flow
/// outputs are byte-identical to the string-per-object layout.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "janus/netlist/cell_library.hpp"
#include "janus/util/geometry.hpp"
#include "janus/util/name_table.hpp"

namespace janus {

using NetId = std::uint32_t;
using InstId = std::uint32_t;
inline constexpr NetId kNoNet = std::numeric_limits<NetId>::max();
inline constexpr InstId kNoInst = std::numeric_limits<InstId>::max();

/// Maximum number of logic inputs on any library cell.
inline constexpr int kMaxFanin = 4;

/// What drives a net.
enum class DriverKind : std::uint8_t { None, PrimaryInput, Instance };

/// One cell instance. 48 bytes (was 88): fanins/output/name are 32-bit ids,
/// the library type is a 32-bit index, placed is a one-byte flag riding in
/// what would otherwise be padding before the 8-aligned position, and the
/// name string lives in the owning Netlist's NameTable
/// (Netlist::instance_name()).
struct Instance {
    std::array<NetId, kMaxFanin> fanin{kNoNet, kNoNet, kNoNet, kNoNet};
    NetId output = kNoNet;
    NameId name = kNoName;  ///< interned; see Netlist::instance_name()
    std::uint32_t type = 0; ///< index into the CellLibrary
    bool placed = false;    ///< position is meaningful when set
    Point position;         ///< placement location in DBU (0,0 until placed)
};

/// Marks a Net::name as *derived*: the low 31 bits are the driving
/// instance's NameId and the printable name is that string + ".out".
/// Auto-created instance output nets — the overwhelming majority of nets in
/// any real design — carry this flag instead of interning a second,
/// near-duplicate string per instance. kNoName has the bit set too, so test
/// for kNoName first.
inline constexpr NameId kDerivedName = 0x80000000u;

/// One net (single driver, multiple sinks). 12 bytes; the name string lives
/// in the owning Netlist's NameTable (Netlist::net_name()), possibly
/// kDerivedName-encoded.
struct Net {
    NameId name = kNoName;         ///< interned or derived; see Netlist::net_name()
    InstId driver_inst = kNoInst;  ///< valid when driver_kind == Instance
    DriverKind driver_kind = DriverKind::None;
};

/// A sink reference: input pin `pin()` of instance `inst()`. Packed into
/// one 32-bit word (pin fits 2 bits since kMaxFanin == 4), which halves the
/// CSR sink pool; the 2^30 instance ceiling is far above the 32-bit id
/// space already implied elsewhere.
struct SinkRef {
    std::uint32_t bits = 0;
    constexpr SinkRef() = default;
    constexpr SinkRef(InstId inst, int pin)
        : bits((inst << 2) | static_cast<std::uint32_t>(pin)) {}
    constexpr InstId inst() const { return bits >> 2; }
    constexpr int pin() const { return static_cast<int>(bits & 3u); }
    friend bool operator==(const SinkRef&, const SinkRef&) = default;
};

/// Gate-level design. The cell library is shared and immutable; it must
/// describe every instance type used.
class Netlist {
  public:
    explicit Netlist(std::shared_ptr<const CellLibrary> lib, std::string name = "top");

    const std::string& name() const { return name_; }
    const CellLibrary& library() const { return *lib_; }
    std::shared_ptr<const CellLibrary> library_ptr() const { return lib_; }

    // --- construction -----------------------------------------------------
    /// Creates a floating net.
    NetId add_net(std::string_view name);
    /// Creates a primary input driving a fresh net; returns that net.
    NetId add_primary_input(std::string_view name);
    /// Marks `net` as observed by a primary output.
    void add_primary_output(std::string_view name, NetId net);
    /// Repoints an existing primary output (by name) at a different net;
    /// used when restructuring (e.g. scan reorder moves the chain tail).
    void set_primary_output(const std::string& name, NetId net);
    /// Instantiates library cell `type` driving a fresh output net. `fanins`
    /// must match the cell's arity. Returns the instance id. A fanin may be
    /// kNoNet to defer the connection: file readers use this for forward
    /// references (the driving net appears later in the file) and must wire
    /// every pin with connect_input() before handing the netlist out —
    /// validate() reports any pin left dangling.
    InstId add_instance(std::string_view name, std::size_t type,
                        const std::vector<NetId>& fanins);
    /// Rewires input pin `pin` of `inst` to `net`.
    void connect_input(InstId inst, int pin, NetId net);

    // --- access -----------------------------------------------------------
    std::size_t num_instances() const { return instances_.size(); }
    std::size_t num_nets() const { return nets_.size(); }
    const Instance& instance(InstId id) const { return instances_.at(id); }
    Instance& instance(InstId id) { return instances_.at(id); }
    const Net& net(NetId id) const { return nets_.at(id); }
    const std::vector<Instance>& instances() const { return instances_; }
    const std::vector<Net>& nets() const { return nets_; }
    const CellType& type_of(InstId id) const { return lib_->cell(instances_.at(id).type); }

    /// Name of an instance, viewed from the shared NameTable. Valid for the
    /// lifetime of the netlist (interned storage is append-only).
    std::string_view instance_name(InstId id) const {
        return names_.view(instances_.at(id).name);
    }
    /// Name of a net. Returns an owning string because derived names
    /// ("<inst>.out", the auto-created instance output nets) are
    /// materialized on demand instead of being stored.
    std::string net_name(NetId id) const;
    /// Resolves a printable net name back to its (possibly
    /// kDerivedName-encoded) NameId; kNoName when no net could carry it.
    /// Query-by-name maps key on the returned id (server sessions).
    NameId net_name_id(std::string_view name) const;
    /// The shared string pool instance/net names intern into. Lookups that
    /// start from an external string (e.g. server ECO requests) resolve the
    /// name to a NameId once via names().find() and compare 32-bit ids from
    /// then on.
    const NameTable& names() const { return names_; }

    const std::vector<NetId>& primary_inputs() const { return primary_inputs_; }
    /// Primary outputs as (name, net) pairs.
    const std::vector<std::pair<std::string, NetId>>& primary_outputs() const {
        return primary_outputs_;
    }

    /// Sinks of a net (instance input pins; primary outputs not included).
    /// A view into the flat CSR sink cache, rebuilt lazily per mutation
    /// epoch; valid until the netlist is next modified. Sink order is the
    /// instance-id-major, pin-minor scan order (stable across rebuilds).
    std::span<const SinkRef> sinks(NetId net) const;
    /// Number of instance sinks plus primary-output observers on a net.
    std::size_t fanout_count(NetId net) const;

    /// All sequential (DFF/SDFF) instance ids.
    std::vector<InstId> sequential_instances() const;
    /// Combinational instances in topological order (inputs before outputs).
    /// DFF outputs are treated as sources and DFF inputs as sinks, so the
    /// order is well defined for sequential designs without combinational
    /// loops. Throws std::runtime_error when a combinational loop exists.
    /// The order is cached and only recomputed after a structural mutation
    /// (epoch-based), so the repeated calls made by STA, fault simulation
    /// and activity propagation cost one Kahn pass total, not one per
    /// call. The returned reference is valid until the next mutation.
    const std::vector<InstId>& topological_order() const;

    /// Monotonic counter bumped on every structural mutation (add_net /
    /// add_instance / connect_input / ...). Long-lived analysis caches such
    /// as TimingGraph record it at construction and use it to detect
    /// staleness cheaply. Resizing an instance in place (Instance::type)
    /// does not change topology and does not bump the epoch.
    std::uint64_t mutation_epoch() const { return epoch_; }

    /// Logic depth in gates of the longest combinational path.
    int logic_depth() const;
    /// Sum of instance cell areas in um^2.
    double total_area() const;

    /// Total heap footprint of the design storage: instance/net arrays, the
    /// interned name pool, primary-port records, and the current sink-CSR /
    /// topological-order caches. Measured from container capacities so the
    /// number is the real reservation, not the logical size; the megascale
    /// bench (bench_e5_megascale) divides this by num_instances() and diffs
    /// it against the recorded legacy (string-per-object) layout.
    std::size_t memory_bytes() const;

    /// Releases growth slack in the id arrays and caches (geometric
    /// push_back growth can leave up to 2x reserved). Call after bulk
    /// construction when the design will live a long time — e.g. megascale
    /// runs that hold millions of instances through a full flow.
    void shrink_to_fit();

    /// Checks structural sanity (every net driven at most once, arities
    /// consistent, no dangling instance inputs). Returns a list of problem
    /// descriptions; empty means the netlist is well formed.
    std::vector<std::string> validate() const;

    // --- simulation -------------------------------------------------------
    /// Combinational evaluation: given a value per primary input (in
    /// primary_inputs() order) and a state per sequential instance (in
    /// sequential_instances() order), computes every net value. Returned
    /// vector is indexed by NetId.
    std::vector<bool> evaluate(const std::vector<bool>& pi_values,
                               const std::vector<bool>& state) const;
    /// One clock edge: evaluates, then returns the next-state vector (the
    /// D-input values of all sequential instances, scan disabled).
    std::vector<bool> next_state(const std::vector<bool>& pi_values,
                                 const std::vector<bool>& state) const;

  private:
    void invalidate_caches();
    void build_sink_csr() const;

    std::shared_ptr<const CellLibrary> lib_;
    std::string name_;
    NameTable names_;
    std::vector<Instance> instances_;
    std::vector<Net> nets_;
    std::vector<NetId> primary_inputs_;
    std::vector<std::pair<std::string, NetId>> primary_outputs_;

    // Flat CSR sink cache: sinks of net n are
    // sink_pool_[sink_offsets_[n] .. sink_offsets_[n + 1]).
    mutable std::vector<std::uint32_t> sink_offsets_;
    mutable std::vector<SinkRef> sink_pool_;
    mutable bool sink_cache_valid_ = false;
    mutable std::vector<InstId> topo_cache_;
    mutable bool topo_cache_valid_ = false;
    std::uint64_t epoch_ = 0;
};

static_assert(sizeof(Instance) == 48, "Instance packing regressed (was 88)");
static_assert(sizeof(Net) == 12, "Net packing regressed (was 40)");

}  // namespace janus
