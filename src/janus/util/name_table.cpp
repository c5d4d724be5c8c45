#include "janus/util/name_table.hpp"

#include <cstring>
#include <stdexcept>

namespace janus {

NameTable::NameTable() { slots_.assign(64, kNoName); }

NameTable::NameTable(const NameTable& other) { copy_from(other); }

NameTable& NameTable::operator=(const NameTable& other) {
    if (this != &other) copy_from(other);
    return *this;
}

void NameTable::copy_from(const NameTable& other) {
    chunks_.clear();
    chunks_.reserve(other.chunks_.size());
    for (const auto& c : other.chunks_) {
        auto fresh = std::make_unique<char[]>(std::size_t{1} << kChunkBits);
        std::memcpy(fresh.get(), c.get(), std::size_t{1} << kChunkBits);
        chunks_.push_back(std::move(fresh));
    }
    chunk_used_ = other.chunk_used_;
    slots_ = other.slots_;
    count_ = other.count_;
}

NameId NameTable::append(std::string_view s) {
    const auto need = static_cast<std::uint32_t>(s.size()) + 1;  // + NUL
    if (need > (1u << kChunkBits)) {
        throw std::length_error("NameTable: name longer than one chunk");
    }
    if (chunk_used_ + need > (1u << kChunkBits)) {
        if (chunks_.size() >= (std::size_t{1} << (32 - kChunkBits))) {
            throw std::length_error("NameTable: arena full (4 GiB of names)");
        }
        auto chunk = std::make_unique<char[]>(std::size_t{1} << kChunkBits);
        // Zero-fill so copies are deterministic and views of the tail of a
        // partially-used chunk read a NUL.
        std::memset(chunk.get(), 0, std::size_t{1} << kChunkBits);
        chunks_.push_back(std::move(chunk));
        chunk_used_ = 0;
    }
    const NameId id =
        (static_cast<NameId>(chunks_.size() - 1) << kChunkBits) | chunk_used_;
    char* dst = chunks_.back().get() + chunk_used_;
    std::memcpy(dst, s.data(), s.size());
    dst[s.size()] = '\0';
    chunk_used_ += need;
    return id;
}

void NameTable::rehash(std::size_t new_slots) {
    std::vector<NameId> fresh(new_slots, kNoName);
    const std::size_t mask = new_slots - 1;
    for (const NameId id : slots_) {
        if (id == kNoName) continue;
        std::size_t i = hash_name(view(id)) & mask;
        while (fresh[i] != kNoName) i = (i + 1) & mask;
        fresh[i] = id;
    }
    slots_ = std::move(fresh);
}

NameId NameTable::find(std::string_view s) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_name(s) & mask;
    while (slots_[i] != kNoName) {
        if (view(slots_[i]) == s) return slots_[i];
        i = (i + 1) & mask;
    }
    return kNoName;
}

NameId NameTable::intern(std::string_view s) {
    // Strings are NUL-terminated in the arena; an embedded NUL would alias
    // a shorter name, so cut at the first one up front.
    if (const auto nul = s.find('\0'); nul != std::string_view::npos) {
        s = s.substr(0, nul);
    }
    if (2 * (count_ + 1) > slots_.size()) rehash(2 * slots_.size());
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_name(s) & mask;
    while (slots_[i] != kNoName) {
        if (view(slots_[i]) == s) return slots_[i];
        i = (i + 1) & mask;
    }
    const NameId id = append(s);
    slots_[i] = id;
    ++count_;
    return id;
}

std::size_t NameTable::memory_bytes() const {
    return chunks_.size() * (std::size_t{1} << kChunkBits) +
           slots_.capacity() * sizeof(NameId) + sizeof(*this);
}

}  // namespace janus
