#pragma once
/// \file name_table.hpp
/// Interned string pool for design object names (instances, nets). The
/// megascale netlist storage (netlist.hpp) keeps a 32-bit NameId per object
/// instead of a std::string (32 bytes + a heap block each): names live
/// NUL-terminated in chunked arena storage, deduplicated through an
/// open-addressed hash index, and are handed back as std::string_view on
/// demand. Modeled on boolector's BtorMemMgr arena + unique-table pairing:
/// allocation is bump-pointer, lookup is power-of-two open addressing, and
/// nothing is ever freed individually (a name outlives the design).
///
/// Ids are byte offsets into the logical arena (chunk index in the high
/// bits, offset within the chunk in the low bits), so view() is two loads
/// and no hashing. Views stay valid for the lifetime of the table: chunks
/// are never reallocated, only appended (a string never spans chunks).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace janus {

/// Interned name handle; byte-offset encoding, stable for the table's life.
using NameId = std::uint32_t;
inline constexpr NameId kNoName = 0xFFFFFFFFu;

/// FNV-1a: cheap, good distribution for identifier-like strings. The hash
/// of NameTable's index, shared by other name indexes (the .jnl reader's).
inline std::uint64_t hash_name(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

class NameTable {
  public:
    NameTable();
    NameTable(const NameTable& other);
    NameTable& operator=(const NameTable& other);
    NameTable(NameTable&&) noexcept = default;
    NameTable& operator=(NameTable&&) noexcept = default;

    /// Interns `s` and returns its id; the same string always maps to the
    /// same id. Strings may not contain NUL (arena strings are
    /// NUL-terminated); embedded NULs truncate the stored name.
    NameId intern(std::string_view s);

    /// Id of an already-interned string, or kNoName when absent. Never
    /// inserts — the const lookup path for query-by-name maps (sessions).
    NameId find(std::string_view s) const;

    /// The string for an id interned earlier. kNoName maps to "".
    std::string_view view(NameId id) const {
        if (id == kNoName) return {};
        const char* p = chunks_[id >> kChunkBits].get() + (id & kChunkMask);
        return std::string_view(p);
    }

    /// Number of distinct strings interned.
    std::size_t size() const { return count_; }

    /// Total footprint: arena chunks (allocated, not just used) plus the
    /// dedup hash index.
    std::size_t memory_bytes() const;

  private:
    static constexpr std::uint32_t kChunkBits = 16;  ///< 64 KiB chunks
    static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

    NameId append(std::string_view s);
    void rehash(std::size_t new_slots);
    void copy_from(const NameTable& other);

    std::vector<std::unique_ptr<char[]>> chunks_;
    std::uint32_t chunk_used_ = 1u << kChunkBits;  ///< forces first chunk
    // Open-addressed dedup index: slot holds an interned id or kNoName.
    std::vector<NameId> slots_;
    std::size_t count_ = 0;
};

}  // namespace janus
