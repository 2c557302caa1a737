#include "core/red_obj.h"

#include <stdexcept>
#include <typeinfo>

namespace smart {

// --- CombinationMap -------------------------------------------------------

void CombinationMap::rehash(std::size_t need) {
  std::size_t nbuckets = buckets_.empty() ? 16 : buckets_.size();
  while (capacity_for(nbuckets) < need) nbuckets <<= 1;
  buckets_.assign(nbuckets, kEmpty);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    place(entries_[i].first, static_cast<std::uint32_t>(i + 1));
  }
}

void CombinationMap::sort_and_reindex() const {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  // Every dense index moved; rebuild the probe table in place.
  std::fill(buckets_.begin(), buckets_.end(), kEmpty);
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t b = bucket_of(entries_[i].first, mask);
    while (buckets_[b] != kEmpty) b = (b + 1) & mask;
    buckets_[b] = static_cast<std::uint32_t>(i + 1);
  }
  sorted_ = true;
}

std::size_t CombinationMap::erase(int key) {
  if (buckets_.empty()) return 0;
  const std::size_t mask = buckets_.size() - 1;
  std::size_t b = bucket_of(key, mask);
  for (;; b = (b + 1) & mask) {
    const std::uint32_t v = buckets_[b];
    if (v == kEmpty) return 0;
    if (entries_[v - 1].first == key) break;
  }
  const std::size_t idx = buckets_[b] - 1;

  // Backshift deletion: pull every displaced follower in the probe chain
  // back over the hole so later lookups never hit a false empty.
  std::size_t hole = b;
  for (std::size_t k = (b + 1) & mask; buckets_[k] != kEmpty; k = (k + 1) & mask) {
    const std::size_t home = bucket_of(entries_[buckets_[k] - 1].first, mask);
    if (((k - home) & mask) >= ((k - hole) & mask)) {
      buckets_[hole] = buckets_[k];
      hole = k;
    }
  }
  buckets_[hole] = kEmpty;

  // Swap-remove from the dense vector and repoint the moved entry's bucket.
  const std::size_t last = entries_.size() - 1;
  if (idx != last) {
    entries_[idx] = std::move(entries_[last]);
    std::size_t bb = bucket_of(entries_[idx].first, mask);
    while (buckets_[bb] != static_cast<std::uint32_t>(last + 1)) bb = (bb + 1) & mask;
    buckets_[bb] = static_cast<std::uint32_t>(idx + 1);
    sorted_ = false;
  }
  entries_.pop_back();
  if (entries_.empty()) sorted_ = true;
  return 1;
}

void CombinationMap::throw_missing(int key) {
  throw std::out_of_range("smart::CombinationMap::at: no entry for key " + std::to_string(key));
}

// --- RedObjRegistry -------------------------------------------------------

RedObjRegistry& RedObjRegistry::instance() {
  static RedObjRegistry registry;
  return registry;
}

void RedObjRegistry::register_type(const std::string& name, Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  // First registration wins: find_factory hands out long-lived references,
  // so an already-published Factory must never be reassigned underneath a
  // decode loop.  Re-registration (register_red_objs is re-entrant) is a
  // no-op.
  factories_.emplace(name, std::move(factory));
}

const RedObjRegistry::Factory& RedObjRegistry::find_factory(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw std::runtime_error("RedObjRegistry: unknown reduction object type '" + name + "'");
  }
  return it->second;
}

std::unique_ptr<RedObj> RedObjRegistry::create(const std::string& name) const {
  return find_factory(name)();
}

bool RedObjRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) != 0;
}

// --- wire codec -----------------------------------------------------------

namespace {

/// Encode-side type interning: distinct dynamic types in first-appearance
/// order.  Lookup compares typeid, not type_name(), so interning an
/// already-seen type costs no string construction; the table stays tiny
/// (apps run one or two reduction-object types), so linear scan beats a
/// hash map here.
struct TypeTable {
  std::vector<const std::type_info*> infos;
  std::vector<std::string> names;

  std::uint32_t intern(const RedObj& obj) {
    const std::type_info& ti = typeid(obj);
    for (std::size_t i = 0; i < infos.size(); ++i) {
      if (*infos[i] == ti) return static_cast<std::uint32_t>(i);
    }
    infos.push_back(&ti);
    names.push_back(obj.type_name());
    return static_cast<std::uint32_t>(infos.size() - 1);
  }
};

void write_v2_header(Writer& w, const std::vector<std::string>& type_names) {
  w.write<std::uint64_t>(wire::kMapWireMagicV2);
  w.write<std::uint8_t>(wire::kMapWireFormatV2);
  w.write_varint(type_names.size());
  for (const auto& name : type_names) w.write_string(name);
}

/// Decoded payload header.  Every factory is resolved here — one registry
/// lock per distinct type; entries then index into `factories`.
struct WireHeader {
  std::uint64_t count = 0;
  std::vector<const RedObjRegistry::Factory*> factories;
};

WireHeader read_map_header(Reader& r) {
  WireHeader h;
  if (r.read<std::uint64_t>() != wire::kMapWireMagicV2) {
    throw std::runtime_error("smart: map payload does not start with the v2 wire magic");
  }
  const auto format = r.read<std::uint8_t>();
  if (format != wire::kMapWireFormatV2) {
    throw std::runtime_error("smart: unknown map wire format byte " + std::to_string(format));
  }
  const auto ntypes = r.read_varint();
  // Each table entry is at least a string length prefix.
  if (ntypes > r.remaining() / sizeof(std::uint64_t)) {
    throw std::out_of_range("smart: corrupt map wire type count");
  }
  auto& registry = RedObjRegistry::instance();
  h.factories.reserve(ntypes);
  for (std::uint64_t i = 0; i < ntypes; ++i) {
    h.factories.push_back(&registry.find_factory(r.read_string()));
  }
  h.count = r.read<std::uint64_t>();
  return h;
}

}  // namespace

void serialize_map(const CombinationMap& map, Buffer& out) {
  map.ensure_sorted();
  TypeTable table;
  for (const auto& [key, obj] : map) {
    (void)key;
    table.intern(*obj);
  }
  Writer w(out);
  write_v2_header(w, table.names);
  w.write<std::uint64_t>(map.size());
  for (const auto& [key, obj] : map) {
    w.write<std::int32_t>(key);
    w.write_varint(table.intern(*obj));
    obj->serialize(w);
  }
}

CombinationMap deserialize_map(Reader& r) {
  CombinationMap map;
  // First-wins on duplicate keys, matching the emplace semantics the
  // tree codec always had; the no-op merge still consumes the payload.
  absorb_serialized_map(r, map, [](const RedObj&, std::unique_ptr<RedObj>&) {});
  return map;
}

void merge_map_into(CombinationMap&& src, CombinationMap& dst, const MergeFn& merge) {
  for (auto& [key, obj] : src) {
    auto it = dst.find(key);
    if (it == dst.end()) {
      dst.emplace(key, std::move(obj));
    } else {
      merge(*obj, it->second);
    }
  }
  src.clear();
}

std::size_t absorb_serialized_map(Reader& r, CombinationMap& dst, const MergeFn& merge) {
  const WireHeader h = read_map_header(r);
  // Reserve guard: trust the count only as far as the remaining bytes
  // could plausibly back it (>= 5 bytes/entry: key + type index).
  dst.reserve(dst.size() +
              static_cast<std::size_t>(std::min<std::uint64_t>(h.count, r.remaining() / 5)));

  // One scratch decode object per payload type, reused across merged
  // entries — the merge path allocates nothing after first sight.
  std::vector<std::unique_ptr<RedObj>> scratch(h.factories.size());
  for (std::uint64_t i = 0; i < h.count; ++i) {
    const auto key = r.read<std::int32_t>();
    const auto idx = r.read_varint();
    if (idx >= h.factories.size()) {
      throw std::out_of_range("smart: corrupt map wire type index");
    }
    const auto it = dst.find(key);
    if (it == dst.end()) {
      std::unique_ptr<RedObj> obj = (*h.factories[idx])();
      obj->deserialize(r);
      obj->set_key(key);
      dst.emplace(key, std::move(obj));
    } else {
      auto& s = scratch[idx];
      if (!s) s = (*h.factories[idx])();
      s->deserialize(r);
      s->set_key(key);
      merge(*s, it->second);
    }
  }
  return h.count;
}

std::size_t map_footprint_bytes(const CombinationMap& map) {
  std::size_t total = 0;
  for (const auto& [key, obj] : map) {
    (void)key;
    total += obj->footprint_bytes();
  }
  return total;
}

}  // namespace smart
