// RedObj: the reduction object at the heart of Smart's alternate API.
//
// A reduction object is the *value* of the key-value pairs held in the
// reduction and combination maps.  All map-side work accumulates in place on
// these objects — no intermediate key-value pair is ever emitted, which is
// what removes MapReduce's shuffle phase and its peak-memory blowup
// (paper Sections 2.3.3 and 3.1).
//
// Beyond the paper's listing we require clone() and serialize()/
// deserialize(): clones implement Algorithm 1's "distribute the combination
// map to each reduction map", and serialization carries objects across rank
// boundaries during global combination (the overhead the paper measures in
// Section 5.3).  trigger() enables the early-emission optimization of
// Algorithm 2.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"

namespace smart {

class RedObj {
 public:
  virtual ~RedObj() = default;

  /// Stable type name used to re-create the object on the receiving rank.
  virtual std::string type_name() const = 0;

  /// Deep copy (used to distribute the combination map to worker maps).
  virtual std::unique_ptr<RedObj> clone() const = 0;

  virtual void serialize(Writer& w) const = 0;
  virtual void deserialize(Reader& r) = 0;

  /// Early-emission condition (Algorithm 2).  When it returns true right
  /// after an accumulate, the runtime converts this object straight into
  /// the output array and drops it from the reduction map.  Default: never.
  virtual bool trigger() const { return false; }

  /// Approximate heap footprint, fed to the logical memory tracker.
  virtual std::size_t footprint_bytes() const { return sizeof(*this); }

  /// The key this object is filed under; maintained by the runtime so
  /// position-aware apps (e.g. kernel density) can recover the window
  /// center inside accumulate().
  int key() const { return key_; }
  void set_key(int key) { key_ = key; }

 private:
  int key_ = 0;
};

/// The paper's combination-map type: integer key -> reduction object
/// (Table 1, get_combination_map) — the hottest structure in the runtime,
/// since every accumulate locates its keyed object here.
///
/// Formerly a std::map (red-black tree: pointer-chasing walk plus a node
/// allocation per insert).  Now a purpose-built flat structure:
///
///   * entries live in one dense vector (key + unique_ptr), located through
///     an open-addressing hash index (linear probing, power-of-two
///     capacity), so the accumulate hot path is one hash, ~1 probe, and a
///     contiguous read — no tree walk;
///   * iteration is *key-ordered*, preserving std::map semantics for
///     serialization, output conversion and every app that walks
///     get_combination_map().  Order is restored lazily: inserts append
///     (ascending appends — the common seeding and decode pattern — keep
///     the map sorted for free) and begin() sorts only when a
///     preceding out-of-order insert or erase disturbed the order;
///   * objects stay heap-allocated unique_ptrs, so a RedObj* remains stable
///     for the object's lifetime.  The *slot* (the unique_ptr itself) lives
///     in the entry vector and can move on insert/sort; hot loops that
///     cache a slot therefore cache its dense index (slot_index/slot_at —
///     see the scheduler's accumulate loop), which appends never move.
///
/// Thread contract (same as std::map, plus one wrinkle): concurrent const
/// iteration is safe only when the map is already key-ordered, because
/// begin() may otherwise sort.  Call ensure_sorted() from one thread before
/// handing the map to parallel readers; the scheduler does this before
/// every reduction phase.
class CombinationMap {
 public:
  /// Pair-layout entry so std::map idioms keep compiling: structured
  /// bindings (`for (auto& [key, obj] : map)`), it->first, it->second.
  struct Entry {
    int first = 0;
    std::unique_ptr<RedObj> second;
  };
  using value_type = Entry;
  using iterator = Entry*;
  using const_iterator = const Entry*;
  static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

  CombinationMap() = default;
  CombinationMap(CombinationMap&& other) noexcept
      : entries_(std::move(other.entries_)),
        buckets_(std::move(other.buckets_)),
        sorted_(other.sorted_) {
    other.entries_.clear();
    other.buckets_.clear();
    other.sorted_ = true;
  }
  CombinationMap& operator=(CombinationMap&& other) noexcept {
    if (this != &other) {
      entries_ = std::move(other.entries_);
      buckets_ = std::move(other.buckets_);
      sorted_ = other.sorted_;
      other.entries_.clear();
      other.buckets_.clear();
      other.sorted_ = true;
    }
    return *this;
  }
  CombinationMap(const CombinationMap&) = delete;
  CombinationMap& operator=(const CombinationMap&) = delete;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Drops all entries but keeps both the entry and index capacity — the
  /// scheduler clears and refills its worker maps every iteration.
  void clear() {
    entries_.clear();
    std::fill(buckets_.begin(), buckets_.end(), kEmpty);
    sorted_ = true;
  }

  void reserve(std::size_t n) {
    entries_.reserve(n);
    if (n > capacity_for(buckets_.size())) rehash(n);
  }

  // --- key-ordered iteration (sorts lazily; see class comment) -------------
  iterator begin() {
    ensure_sorted();
    return entries_.data();
  }
  iterator end() { return entries_.data() + entries_.size(); }
  const_iterator begin() const {
    ensure_sorted();
    return entries_.data();
  }
  const_iterator end() const { return entries_.data() + entries_.size(); }

  /// Restores key order now (no-op when already ordered).  Call before
  /// concurrent const iteration — begin() would otherwise sort lazily,
  /// which is a mutation.
  void ensure_sorted() const {
    if (!sorted_) sort_and_reindex();
  }

  // --- lookup ---------------------------------------------------------------
  iterator find(int key) {
    const std::size_t i = lookup(key);
    return i == npos ? end() : entries_.data() + i;
  }
  const_iterator find(int key) const {
    const std::size_t i = lookup(key);
    return i == npos ? end() : entries_.data() + i;
  }
  bool contains(int key) const { return lookup(key) != npos; }
  std::size_t count(int key) const { return contains(key) ? 1 : 0; }

  std::unique_ptr<RedObj>& at(int key) {
    const std::size_t i = lookup(key);
    if (i == npos) throw_missing(key);
    return entries_[i].second;
  }
  const std::unique_ptr<RedObj>& at(int key) const {
    const std::size_t i = lookup(key);
    if (i == npos) throw_missing(key);
    return entries_[i].second;
  }

  // --- insertion ------------------------------------------------------------
  /// std::map semantics: inserts a null slot when the key is absent.
  std::unique_ptr<RedObj>& operator[](int key) { return entries_[slot_index(key)].second; }

  /// Inserts when absent; never overwrites (std::map::emplace semantics).
  std::pair<iterator, bool> emplace(int key, std::unique_ptr<RedObj> obj) {
    if (const std::size_t i = lookup(key); i != npos) return {entries_.data() + i, false};
    const std::size_t i = insert_new(key, std::move(obj));
    return {entries_.data() + i, true};
  }

  // --- dense-slot interface (the accumulate cached-slot trick) --------------
  /// Dense index of `key`, inserting a null slot when absent.  Indices are
  /// stable across appends; they move only on sort (begin after unordered
  /// mutation) or erase — invalidate caches there.
  std::size_t slot_index(int key) {
    if (const std::size_t i = lookup(key); i != npos) return i;
    return insert_new(key, nullptr);
  }
  std::unique_ptr<RedObj>& slot_at(std::size_t index) { return entries_[index].second; }
  int key_at(std::size_t index) const { return entries_[index].first; }

  // --- erase ----------------------------------------------------------------
  /// Removes `key` (early emission drops triggered objects).  The last
  /// entry is swapped into the hole, so dense indices and key order are
  /// both invalidated — O(1), with the next begin() restoring order.
  std::size_t erase(int key);

 private:
  static constexpr std::uint32_t kEmpty = 0;  ///< bucket value: 0 = empty, else index+1

  static std::size_t bucket_of(int key, std::size_t mask) {
    auto h = static_cast<std::uint32_t>(key);
    h *= 0x9E3779B1u;  // Fibonacci hashing: spreads dense and strided key ranges
    h ^= h >> 16;
    return h & mask;
  }
  static std::size_t capacity_for(std::size_t nbuckets) {
    return nbuckets - nbuckets / 8;  // resize at 7/8 load
  }

  std::size_t lookup(int key) const {
    if (buckets_.empty()) return npos;
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = bucket_of(key, mask);; b = (b + 1) & mask) {
      const std::uint32_t v = buckets_[b];
      if (v == kEmpty) return npos;
      if (entries_[v - 1].first == key) return v - 1;
    }
  }

  std::size_t insert_new(int key, std::unique_ptr<RedObj> obj) {
    if (entries_.size() + 1 > capacity_for(buckets_.size())) rehash(entries_.size() + 1);
    if (sorted_ && !entries_.empty() && key < entries_.back().first) sorted_ = false;
    entries_.push_back(Entry{key, std::move(obj)});
    place(key, static_cast<std::uint32_t>(entries_.size()));
    return entries_.size() - 1;
  }

  /// Writes bucket value `v` into the first free probe slot for `key`.
  void place(int key, std::uint32_t v) {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = bucket_of(key, mask);
    while (buckets_[b] != kEmpty) b = (b + 1) & mask;
    buckets_[b] = v;
  }

  void rehash(std::size_t need);
  void sort_and_reindex() const;
  [[noreturn]] static void throw_missing(int key);

  // mutable: begin() const restores key order lazily (see class comment).
  mutable std::vector<Entry> entries_;
  mutable std::vector<std::uint32_t> buckets_;
  mutable bool sorted_ = true;
};

/// Factory registry for polymorphic deserialization during global
/// combination: every RedObj subclass that can cross a rank boundary must
/// be registered under its type_name().
class RedObjRegistry {
 public:
  using Factory = std::function<std::unique_ptr<RedObj>()>;

  static RedObjRegistry& instance();

  void register_type(const std::string& name, Factory factory);
  std::unique_ptr<RedObj> create(const std::string& name) const;
  bool contains(const std::string& name) const;

  /// Snapshot lookup for hot decode loops: takes the registry mutex once
  /// and returns a reference that stays valid forever — registration only
  /// ever inserts into a node-based map, and nothing removes entries.  The
  /// wire codec resolves each distinct type once per payload through this
  /// instead of paying a lock + string lookup per entry.
  const Factory& find_factory(const std::string& name) const;

 private:
  RedObjRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

/// Registers T (default-constructible) under `name` at static-init time.
template <typename T>
struct RedObjRegistrar {
  explicit RedObjRegistrar(const std::string& name) {
    RedObjRegistry::instance().register_type(name, [] { return std::make_unique<T>(); });
  }
};

// --- map (de)serialization, shared by global combination and tests --------
//
// Wire format v2 (the interned-type codec):
//
//   u64   magic = kMapWireMagicV2
//   u8    format byte = 2
//   varint ntypes
//   ntypes × { string type_name }   (distinct types, first-appearance order)
//   u64   entry count
//   count × { i32 key, varint type index, object payload }
//
// Each distinct type_name() crosses the wire once per payload instead of
// once per entry, and decoders resolve each factory once per payload (one
// registry lock per type, not per entry).  v2 is the only format: a
// payload whose leading u64 is not the magic raises std::runtime_error.

namespace wire {
/// 0xFF sentinel bytes + "SMV2".
constexpr std::uint64_t kMapWireMagicV2 = 0xFFFF'FFFF'534D'5632ULL;
constexpr std::uint8_t kMapWireFormatV2 = 2;
}  // namespace wire

void serialize_map(const CombinationMap& map, Buffer& out);
CombinationMap deserialize_map(Reader& r);
inline CombinationMap deserialize_map(const Buffer& buf) {
  Reader r(buf);
  return deserialize_map(r);
}

/// Merges `src` into `dst` using the app's merge function: existing keys
/// are merged, new keys are moved (Algorithm 1 lines 11-17).
using MergeFn = std::function<void(const RedObj&, std::unique_ptr<RedObj>&)>;
void merge_map_into(CombinationMap&& src, CombinationMap& dst, const MergeFn& merge);

/// Single-pass absorb: streams serialized map entries from `r` straight
/// into `dst` without materializing an intermediate CombinationMap —
/// existing keys are merged, new keys are inserted.  This is the
/// deserialize-once half of global combination: a rank folds a peer's wire
/// payload into its *live* map instead of paying deserialize_map + merge +
/// serialize_map per reduction-tree hop.  The merge path decodes into one
/// scratch object per payload type and reuses it across entries.  Returns
/// the number of entries absorbed.
std::size_t absorb_serialized_map(Reader& r, CombinationMap& dst, const MergeFn& merge);
inline std::size_t absorb_serialized_map(const Buffer& buf, CombinationMap& dst,
                                         const MergeFn& merge) {
  Reader r(buf);
  return absorb_serialized_map(r, dst, merge);
}

/// Total approximate footprint of a map's objects.
std::size_t map_footprint_bytes(const CombinationMap& map);

}  // namespace smart
