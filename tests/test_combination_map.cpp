// Tests for the flat CombinationMap class and the v2 interned-type wire
// codec: std::map-equivalent semantics and iteration order, dense-slot
// caching, typed errors for non-v2 payloads and checkpoints, a seeded
// mutation pass over the decoders, and exact local combination across
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/histogram.h"
#include "analytics/red_objs.h"
#include "core/checkpoint.h"
#include "core/red_obj.h"

namespace smart {
namespace {

using analytics::Bucket;
using analytics::ClusterObj;
using analytics::GridObj;

CombinationMap bucket_map(const std::vector<std::pair<int, std::size_t>>& entries) {
  analytics::register_red_objs();
  CombinationMap map;
  for (const auto& [key, count] : entries) {
    auto obj = std::make_unique<Bucket>();
    obj->count = count;
    obj->set_key(key);
    map.emplace(key, std::move(obj));
  }
  return map;
}

MergeFn bucket_merge() {
  return [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    static_cast<Bucket&>(*com).count += static_cast<const Bucket&>(red).count;
  };
}

std::size_t count_of(const CombinationMap& map, int key) {
  return static_cast<const Bucket&>(*map.at(key)).count;
}

std::vector<int> keys_of(const CombinationMap& map) {
  std::vector<int> keys;
  for (const auto& [key, obj] : map) {
    (void)obj;
    keys.push_back(key);
  }
  return keys;
}

// --- flat map semantics -----------------------------------------------------

TEST(CombinationMapFlat, IterationOrderMatchesStdMap) {
  // Random inserts (duplicates and negatives included) against a std::map
  // shadow: the flat map must iterate in exactly std::map's key order.
  analytics::register_red_objs();
  std::mt19937 rng(20250807);
  std::uniform_int_distribution<int> key_dist(-500, 500);
  CombinationMap map;
  std::map<int, std::size_t> shadow;
  for (int i = 0; i < 2000; ++i) {
    const int key = key_dist(rng);
    auto obj = std::make_unique<Bucket>();
    obj->count = static_cast<std::size_t>(i);
    const bool inserted = map.emplace(key, std::move(obj)).second;
    EXPECT_EQ(inserted, shadow.emplace(key, static_cast<std::size_t>(i)).second);
  }
  ASSERT_EQ(map.size(), shadow.size());
  auto expect = shadow.begin();
  for (const auto& [key, obj] : map) {
    ASSERT_EQ(key, expect->first);
    EXPECT_EQ(static_cast<const Bucket&>(*obj).count, expect->second);
    ++expect;
  }
}

TEST(CombinationMapFlat, LookupSemanticsMatchStdMap) {
  auto map = bucket_map({{-7, 1}, {0, 2}, {3, 3}});
  EXPECT_EQ(map.size(), 3u);
  EXPECT_FALSE(map.empty());
  EXPECT_EQ(map.count(-7), 1u);
  EXPECT_EQ(map.count(42), 0u);
  EXPECT_TRUE(map.contains(0));
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.find(3)->second->key(), 3);
  EXPECT_EQ(map.find(99), map.end());
  EXPECT_EQ(count_of(map, 0), 2u);
  EXPECT_THROW(map.at(99), std::out_of_range);

  // operator[] inserts a null slot for an absent key, like std::map.
  EXPECT_EQ(map[10], nullptr);
  EXPECT_EQ(map.size(), 4u);
  map[10] = std::make_unique<Bucket>();
  EXPECT_NE(map.at(10), nullptr);

  // emplace never overwrites.
  auto dup = std::make_unique<Bucket>();
  dup->count = 999;
  EXPECT_FALSE(map.emplace(0, std::move(dup)).second);
  EXPECT_EQ(count_of(map, 0), 2u);
}

TEST(CombinationMapFlat, EraseAndProbeChainStress) {
  // Dense key range through the hash: inserts then interleaved erases
  // exercise backshift deletion and the swap-remove bucket fixup.  Every
  // surviving key must stay findable after every erase.
  analytics::register_red_objs();
  CombinationMap map;
  std::map<int, std::size_t> shadow;
  for (int key = -128; key < 128; ++key) {
    auto obj = std::make_unique<Bucket>();
    obj->count = static_cast<std::size_t>(key + 1000);
    map.emplace(key, std::move(obj));
    shadow.emplace(key, static_cast<std::size_t>(key + 1000));
  }
  std::mt19937 rng(7);
  std::vector<int> keys;
  for (const auto& [k, v] : shadow) {
    (void)v;
    keys.push_back(k);
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(map.erase(keys[i]), 1u);
      EXPECT_EQ(map.erase(keys[i]), 0u);  // second erase: already gone
      shadow.erase(keys[i]);
    }
    for (const auto& [k, count] : shadow) EXPECT_EQ(count_of(map, k), count) << "key " << k;
    EXPECT_EQ(map.size(), shadow.size());
  }
  // Iteration order is restored (lazily) after all that churn.
  std::vector<int> expect;
  for (const auto& [k, v] : shadow) {
    (void)v;
    expect.push_back(k);
  }
  EXPECT_EQ(keys_of(map), expect);
}

TEST(CombinationMapFlat, SlotIndicesAreStableAcrossAppends) {
  analytics::register_red_objs();
  CombinationMap map;
  const std::size_t slot = map.slot_index(42);
  map.slot_at(slot) = std::make_unique<Bucket>();
  static_cast<Bucket&>(*map.slot_at(slot)).count = 7;
  // Hundreds of appends force several entry-vector reallocations and
  // bucket rehashes; the dense index must keep naming key 42.
  for (int key = 1000; key < 1600; ++key) map.slot_index(key);
  EXPECT_EQ(map.key_at(slot), 42);
  EXPECT_EQ(static_cast<const Bucket&>(*map.slot_at(slot)).count, 7u);
  EXPECT_EQ(map.slot_index(42), slot);
}

TEST(CombinationMapFlat, ClearAndMoveResetState) {
  auto map = bucket_map({{5, 1}, {2, 2}});
  CombinationMap moved = std::move(map);
  EXPECT_EQ(map.size(), 0u);  // NOLINT(bugprone-use-after-move): reset contract
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(count_of(moved, 5), 1u);
  moved.clear();
  EXPECT_TRUE(moved.empty());
  EXPECT_FALSE(moved.contains(5));
  // Reusable after clear.
  moved.emplace(1, std::make_unique<Bucket>());
  EXPECT_EQ(moved.size(), 1u);
}

// --- wire format v2 ---------------------------------------------------------

TEST(WireV2, RoundTripEmptyMap) {
  Buffer buf;
  serialize_map(CombinationMap{}, buf);
  EXPECT_TRUE(deserialize_map(buf).empty());
}

TEST(WireV2, RoundTripNegativeKeysAndHeterogeneousTypes) {
  analytics::register_red_objs();
  CombinationMap map;
  auto grid = std::make_unique<GridObj>();
  grid->sum = 2.5;
  grid->count = 2;
  map.emplace(-3, std::move(grid));
  auto bucket = std::make_unique<Bucket>();
  bucket->count = 9;
  map.emplace(-1, std::move(bucket));
  auto cluster = std::make_unique<ClusterObj>();
  cluster->centroid = {1.0, 2.0};
  cluster->sum = {0.5, 0.5};
  cluster->size = 4;
  map.emplace(7, std::move(cluster));
  auto bucket2 = std::make_unique<Bucket>();
  bucket2->count = 11;
  map.emplace(0, std::move(bucket2));

  Buffer buf;
  serialize_map(map, buf);
  const CombinationMap restored = deserialize_map(buf);
  ASSERT_EQ(restored.size(), 4u);
  EXPECT_EQ(keys_of(restored), (std::vector<int>{-3, -1, 0, 7}));
  EXPECT_DOUBLE_EQ(static_cast<const GridObj&>(*restored.at(-3)).sum, 2.5);
  EXPECT_EQ(static_cast<const Bucket&>(*restored.at(-1)).count, 9u);
  EXPECT_EQ(static_cast<const Bucket&>(*restored.at(0)).count, 11u);
  const auto& c = static_cast<const ClusterObj&>(*restored.at(7));
  EXPECT_EQ(c.size, 4u);
  EXPECT_EQ(restored.at(7)->key(), 7);
}

TEST(WireV2, PayloadStartsWithMagicAndIsSmallerThanV1) {
  // 100 same-typed entries.  The retired v1 layout (u64 entry count, then
  // {i32 key, string type_name, payload} per entry) repeated the 6-byte-
  // plus-length type name per entry; v2 sends it once plus a 1-byte index
  // per entry.
  constexpr std::size_t kEntries = 100;
  std::vector<std::pair<int, std::size_t>> entries;
  for (std::size_t k = 0; k < kEntries; ++k) entries.emplace_back(static_cast<int>(k), k);
  const auto map = bucket_map(entries);
  Buffer v2;
  serialize_map(map, v2);
  const std::size_t bucket_payload = sizeof(std::uint64_t);
  const std::size_t v1_size =
      sizeof(std::uint64_t) + kEntries * (sizeof(std::int32_t) + sizeof(std::uint64_t) +
                                          std::string("Bucket").size() + bucket_payload);
  Reader r(v2);
  EXPECT_EQ(r.read<std::uint64_t>(), wire::kMapWireMagicV2);
  EXPECT_LT(v2.size(), v1_size);
  // The saving is the per-entry type string minus the varint index.
  EXPECT_LT(v2.size(), v1_size - kEntries * sizeof(std::uint64_t));
}

TEST(WireV2, TruncatedPayloadThrowsAtEveryCut) {
  analytics::register_red_objs();
  CombinationMap map;
  auto cluster = std::make_unique<ClusterObj>();
  cluster->centroid = {1.0};
  cluster->sum = {2.0};
  cluster->size = 1;
  map.emplace(0, std::move(cluster));
  auto bucket = std::make_unique<Bucket>();
  bucket->count = 3;
  map.emplace(5, std::move(bucket));
  Buffer buf;
  serialize_map(map, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Reader r(buf.data(), cut);
    EXPECT_THROW(deserialize_map(r), std::out_of_range) << "cut at " << cut;
  }
}

TEST(WireV2, UnknownTypeInTableThrows) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint64_t>(wire::kMapWireMagicV2);
  w.write<std::uint8_t>(wire::kMapWireFormatV2);
  w.write_varint(1);
  w.write_string("BogusType");
  w.write<std::uint64_t>(0);
  EXPECT_THROW(deserialize_map(buf), std::runtime_error);
}

TEST(WireV2, CorruptTypeIndexThrows) {
  analytics::register_red_objs();
  Buffer buf;
  Writer w(buf);
  w.write<std::uint64_t>(wire::kMapWireMagicV2);
  w.write<std::uint8_t>(wire::kMapWireFormatV2);
  w.write_varint(1);
  w.write_string("Bucket");
  w.write<std::uint64_t>(1);
  w.write<std::int32_t>(0);
  w.write_varint(5);  // only index 0 exists
  EXPECT_THROW(deserialize_map(buf), std::out_of_range);
}

TEST(WireV2, UnknownFormatByteThrows) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint64_t>(wire::kMapWireMagicV2);
  w.write<std::uint8_t>(99);
  EXPECT_THROW(deserialize_map(buf), std::runtime_error);
}

// --- v2 is the only format --------------------------------------------------

/// A payload in the retired v1 layout: a plain u64 entry count where v2
/// has its magic, then {i32 key, string type_name, payload} per entry.
Buffer v1_layout_payload() {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint64_t>(1);
  w.write<std::int32_t>(0);
  w.write_string("Bucket");
  w.write<std::uint64_t>(5);
  return buf;
}

TEST(WireV2, NonMagicPayloadThrowsRuntimeError) {
  analytics::register_red_objs();
  const Buffer payload = v1_layout_payload();
  EXPECT_THROW(deserialize_map(payload), std::runtime_error);
  auto dst = bucket_map({{0, 10}});
  Reader r(payload);
  EXPECT_THROW(absorb_serialized_map(r, dst, bucket_merge()), std::runtime_error);
  EXPECT_EQ(count_of(dst, 0), 10u);
}

TEST(WireV2, NonMagicCheckpointFailsToLoad) {
  // The checkpoint container is intact; the map snapshot inside it is not
  // v2, so loading it is a typed error rather than a misread map.
  const std::string path = "test_combination_map_nonmagic.ckpt";
  write_checkpoint_file(v1_layout_payload(), path);
  analytics::Histogram<double> hist(SchedArgs(2, 1), 0.0, 1.0, 8);
  EXPECT_THROW(load_checkpoint(hist, path), std::runtime_error);
  std::remove(path.c_str());
}

// --- codec mutation ---------------------------------------------------------

TEST(WireV2, MutatedPayloadsDecodeOrThrowNeverCrash) {
  // Seeded mutation pass over a mixed Bucket + ClusterObj payload: byte
  // flips, truncations and insertions.  Every mutant fed to
  // deserialize_map and to absorb_serialized_map must decode or throw a
  // std::exception — never crash, hang or read out of bounds (check.sh
  // runs this under ASan).
  analytics::register_red_objs();
  CombinationMap map;
  for (int k = -2; k < 6; ++k) {
    if (k % 2 == 0) {
      auto bucket = std::make_unique<Bucket>();
      bucket->count = static_cast<std::size_t>(k + 10);
      map.emplace(k, std::move(bucket));
    } else {
      auto cluster = std::make_unique<ClusterObj>();
      cluster->centroid = {0.5 * k, 1.0};
      cluster->sum = {2.0 * k, -1.0};
      cluster->size = static_cast<std::size_t>(k + 3);
      map.emplace(k, std::move(cluster));
    }
  }
  Buffer seed;
  serialize_map(map, seed);
  // Merges only same-typed pairs: a flipped type index can pair a wire
  // Bucket with a live ClusterObj, and the app merge is not under test.
  const MergeFn merge = [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    if (const auto* b = dynamic_cast<const Bucket*>(&red)) {
      if (auto* live = dynamic_cast<Bucket*>(com.get())) live->count += b->count;
    } else if (const auto* c = dynamic_cast<const ClusterObj*>(&red)) {
      if (auto* live = dynamic_cast<ClusterObj*>(com.get())) live->size += c->size;
    }
  };

  std::mt19937_64 rng(20151115);
  constexpr int kMutants = 3000;
  int decoded = 0;
  int threw = 0;
  for (int i = 0; i < kMutants; ++i) {
    Buffer mutant = seed;
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
    switch (i % 3) {
      case 0:  // flip 1-4 bytes
        for (std::size_t f = 0, flips = 1 + pick(4); f < flips; ++f) {
          mutant[pick(mutant.size())] ^= static_cast<std::byte>(1 + pick(255));
        }
        break;
      case 1:  // truncate
        mutant.resize(pick(mutant.size()));
        break;
      default: {  // insert 1-8 random bytes
        Buffer extra(1 + pick(8));
        for (auto& b : extra) b = static_cast<std::byte>(pick(256));
        mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(pick(mutant.size() + 1)),
                      extra.begin(), extra.end());
        break;
      }
    }
    bool ok = true;
    try {
      Reader r(mutant);
      (void)deserialize_map(r);
    } catch (const std::exception&) {
      ok = false;
    }
    try {
      CombinationMap live = deserialize_map(seed);
      Reader r(mutant);
      (void)absorb_serialized_map(r, live, merge);
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) {
      ++decoded;
    } else {
      ++threw;
    }
  }
  EXPECT_EQ(decoded + threw, kMutants);
  // Both outcomes occur: the pass exercises the decode paths, not just
  // the header check.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(threw, 0);
}

// --- local combination -----------------------------------------------------

TEST(ParallelLocalCombine, IterativeSeededRunStaysCorrect) {
  // Carried context (accumulate_across_runs) over four workers: every run
  // folds the worker maps into a fresh node-local map and merges that into
  // the carried totals, so counts must accumulate exactly across runs.
  std::vector<double> data(8192);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& x : data) x = dist(rng);

  RunOptions opts;
  opts.accumulate_across_runs = true;
  analytics::Histogram<double> hist(SchedArgs(4, 1), -1.0, 1.0, 128, opts);
  for (int run = 0; run < 3; ++run) hist.run(data.data(), data.size(), nullptr, 0);

  std::size_t total = 0;
  for (const auto& [key, obj] : hist.get_combination_map()) {
    (void)key;
    total += static_cast<const Bucket&>(*obj).count;
  }
  EXPECT_EQ(total, 3 * data.size());
}

}  // namespace
}  // namespace smart
