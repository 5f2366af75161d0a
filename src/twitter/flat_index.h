// The flat lookup table of the ingestion passes: an open-addressing
// index from keys the caller stores (a token arena, a tweet vector) to
// dense 32-bit values (token ids, tweet positions, entry indices). The
// table is a power of two in size, probes linearly, and keeps 32 bits of
// each key's hash beside its value, so a probe compares key bytes only
// on a hash match. It allocates nothing per key, only its slot array,
// which it keeps at most half full.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace ss {

// A 64-bit hash of a byte string, eight bytes per step. Tables hash
// with it only in memory, so its values never reach an output.
inline std::uint64_t text_hash(std::string_view bytes) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) {
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  }
  h = (h ^ tail) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

// A 64-bit hash of a 32-bit id (Fibonacci hashing: the product's high
// half, which FlatIndex keeps as its tag, mixes every bit of the id).
inline std::uint64_t id_hash(std::uint32_t id) {
  return std::uint64_t{id} * 0x9e3779b97f4a7c15ull;
}

class FlatIndex {
 public:
  // Sized so that `expected` keys fit without growing.
  explicit FlatIndex(std::size_t expected = 0)
      : slots_(slots_for(expected)) {}

  // Grows the table, if needed, so that `expected` keys fit.
  void reserve(std::size_t expected) {
    if (slots_for(expected) > slots_.size()) rehash(slots_for(expected));
  }

  // The value of the key `same` accepts among the keys hashed to
  // `hash`, or kMissing.
  template <typename Same>
  std::uint32_t find(std::uint64_t hash, Same&& same) const {
    std::uint32_t tag = tag_of(hash);
    for (std::size_t at = tag & mask();; at = (at + 1) & mask()) {
      const Slot& slot = slots_[at];
      if (slot.value == kMissing) return kMissing;
      if (slot.tag == tag && same(slot.value)) return slot.value;
    }
  }

  // Like find, but a missing key is inserted with `value`, which is
  // then returned: the first insert of a key wins. A value of kMissing
  // is a std::length_error.
  template <typename Same>
  std::uint32_t find_or_insert(std::uint64_t hash, std::uint32_t value,
                               Same&& same) {
    if (value == kMissing) throw std::length_error("FlatIndex: full");
    std::uint32_t tag = tag_of(hash);
    for (std::size_t at = tag & mask();; at = (at + 1) & mask()) {
      Slot& slot = slots_[at];
      if (slot.value == kMissing) {
        slot = Slot{tag, value};
        if (2 * ++size_ > slots_.size()) rehash(2 * slots_.size());
        return value;
      }
      if (slot.tag == tag && same(slot.value)) return slot.value;
    }
  }

  // Slots in the table: a power of two, at least twice the keys held.
  std::size_t capacity() const { return slots_.size(); }

  static constexpr std::uint32_t kMissing = 0xffffffffu;

 private:
  struct Slot {
    std::uint32_t tag = 0;  // high half of the key's hash
    std::uint32_t value = kMissing;
  };

  static std::uint32_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32);
  }
  // The table size that holds `keys` at most half full. Values are
  // below kMissing, so no more keys than that can arrive.
  static std::size_t slots_for(std::size_t keys) {
    if (keys >= kMissing) throw std::length_error("FlatIndex: too many keys");
    return std::bit_ceil(std::max<std::size_t>(16, 2 * keys));
  }
  std::size_t mask() const { return slots_.size() - 1; }

  // Moves every value to a table of `slots` slots, placed by its tag.
  void rehash(std::size_t slots) {
    std::vector<Slot> old(slots);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.value == kMissing) continue;
      std::size_t at = slot.tag & mask();
      while (slots_[at].value != kMissing) at = (at + 1) & mask();
      slots_[at] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace ss
