// Tests for the single-pass combination wave: Writer buffer-reuse
// primitives (position/patch/reserve), MapCombiner segment helpers and
// algorithm consensus, vector allreduce degenerate lengths, and
// CircularBuffer close semantics.
#include <gtest/gtest.h>

#include <thread>

#include "analytics/red_objs.h"
#include "core/map_combiner.h"
#include "core/red_obj.h"
#include "simmpi/world.h"
#include "threading/circular_buffer.h"

namespace smart {
namespace {

// --- Writer buffer reuse ----------------------------------------------------

TEST(Writer, AppendsIntoExistingBuffer) {
  Buffer buf;
  Writer(buf).write<std::uint32_t>(7);
  const std::size_t first = buf.size();
  // A second writer appends — it never truncates what is already there.
  Writer w(buf);
  w.write<std::uint32_t>(9);
  EXPECT_EQ(buf.size(), 2 * first);
  Reader r(buf);
  EXPECT_EQ(r.read<std::uint32_t>(), 7u);
  EXPECT_EQ(r.read<std::uint32_t>(), 9u);
}

TEST(Writer, PatchOverwritesPlaceholder) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint16_t>(0xAAAA);
  const std::size_t pos = w.position();
  w.write<std::uint64_t>(0);  // placeholder count
  w.write<std::uint16_t>(0xBBBB);
  w.patch<std::uint64_t>(pos, 42);

  Reader r(buf);
  EXPECT_EQ(r.read<std::uint16_t>(), 0xAAAA);
  EXPECT_EQ(r.read<std::uint64_t>(), 42u);
  EXPECT_EQ(r.read<std::uint16_t>(), 0xBBBB);
}

TEST(Writer, PatchPastEndThrows) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint32_t>(1);
  EXPECT_THROW(w.patch<std::uint64_t>(1, 0), std::out_of_range);
}

TEST(Writer, ReserveKeepsContents) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint32_t>(5);
  w.reserve(1 << 16);
  w.write<std::uint32_t>(6);
  EXPECT_GE(buf.capacity(), (1u << 16));
  Reader r(buf);
  EXPECT_EQ(r.read<std::uint32_t>(), 5u);
  EXPECT_EQ(r.read<std::uint32_t>(), 6u);
}

// --- map segment helpers and absorb ----------------------------------------

CombinationMap bucket_map(const std::vector<std::pair<int, std::size_t>>& entries) {
  analytics::register_red_objs();
  CombinationMap map;
  for (const auto& [key, count] : entries) {
    auto obj = std::make_unique<analytics::Bucket>();
    obj->count = count;
    obj->set_key(key);
    map.emplace(key, std::move(obj));
  }
  return map;
}

MergeFn bucket_merge() {
  return [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    static_cast<analytics::Bucket&>(*com).count +=
        static_cast<const analytics::Bucket&>(red).count;
  };
}

std::size_t count_of(const CombinationMap& map, int key) {
  return static_cast<const analytics::Bucket&>(*map.at(key)).count;
}

TEST(MapSegments, FloorModuloCoversNegativeKeys) {
  EXPECT_EQ(map_segment_of(0, 4), 0);
  EXPECT_EQ(map_segment_of(5, 4), 1);
  EXPECT_EQ(map_segment_of(-1, 4), 3);
  EXPECT_EQ(map_segment_of(-4, 4), 0);
}

TEST(MapSegments, SegmentsPartitionTheMap) {
  const auto map = bucket_map({{-2, 1}, {0, 2}, {1, 3}, {5, 4}, {9, 5}});
  const int nseg = 3;
  std::size_t restored_entries = 0;
  CombinationMap restored;
  for (int s = 0; s < nseg; ++s) {
    Buffer seg;
    serialize_map_segment(map, s, nseg, seg);
    Reader r(seg);
    restored_entries += absorb_serialized_map(r, restored, bucket_merge());
  }
  EXPECT_EQ(restored_entries, map.size());  // every entry lands in exactly one segment
  ASSERT_EQ(restored.size(), map.size());
  for (const auto& [key, obj] : map) EXPECT_EQ(count_of(restored, key), count_of(map, key));
}

TEST(AbsorbSerializedMap, MergesExistingAndReplacesWhenAsked) {
  const auto src = bucket_map({{1, 10}, {2, 20}});
  Buffer wire;
  serialize_map(src, wire);

  auto merged = bucket_map({{1, 1}, {3, 3}});
  Reader r1(wire);
  // Returns the number of wire entries absorbed (merged or inserted).
  EXPECT_EQ(absorb_serialized_map(r1, merged, bucket_merge()), 2u);
  EXPECT_EQ(count_of(merged, 1), 11u);
  EXPECT_EQ(count_of(merged, 2), 20u);
  EXPECT_EQ(count_of(merged, 3), 3u);

  auto replaced = bucket_map({{1, 1}, {3, 3}});
  Reader r2(wire);
  absorb_serialized_map(r2, replaced, bucket_merge(), /*replace_existing=*/true);
  EXPECT_EQ(count_of(replaced, 1), 10u);  // overwritten, not summed
  EXPECT_EQ(count_of(replaced, 3), 3u);
}

// --- MapCombiner ------------------------------------------------------------

TEST(MapCombiner, AutoConsensusSurvivesUnevenLocalMaps) {
  // Rank footprints straddle the crossover: without the scalar consensus,
  // ranks would pick different algorithms and deadlock or corrupt state.
  const int nranks = 4;
  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    std::vector<std::pair<int, std::size_t>> entries;
    // Rank r contributes keys 0..(50*(r+1))-1 — very different map sizes.
    for (int key = 0; key < 50 * (comm.rank() + 1); ++key) {
      entries.emplace_back(key, static_cast<std::size_t>(comm.rank() + 1));
    }
    auto map = bucket_map(entries);
    MapCombiner combiner(MapCombiner::Algorithm::kAuto, /*ring_crossover_bytes=*/1);
    combiner.allreduce(comm, map, bucket_merge());

    // Every rank ends with the identical global map.
    ASSERT_EQ(map.size(), 200u);
    for (int key = 0; key < 200; ++key) {
      std::size_t expected = 0;
      for (int r = 0; r < nranks; ++r) {
        if (key < 50 * (r + 1)) expected += static_cast<std::size_t>(r + 1);
      }
      ASSERT_EQ(count_of(map, key), expected) << "rank " << comm.rank() << " key " << key;
    }
  });
}

TEST(MapCombiner, TwoRankAutoStaysOnTree) {
  simmpi::launch(2, [&](simmpi::Communicator& comm) {
    auto map = bucket_map({{comm.rank(), 1}});
    MapCombiner combiner(MapCombiner::Algorithm::kAuto, /*ring_crossover_bytes=*/1);
    const auto stats = combiner.allreduce(comm, map, bucket_merge());
    EXPECT_FALSE(stats.used_ring);  // a 2-rank "ring" is just a worse tree
    EXPECT_EQ(map.size(), 2u);
  });
}

TEST(MapCombiner, RingHandlesFewerKeysThanRanks) {
  // 5 ranks, 2 distinct keys: most ring segments are empty every step.
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    auto map = bucket_map({{0, 1}, {1, static_cast<std::size_t>(comm.rank())}});
    MapCombiner combiner(MapCombiner::Algorithm::kRing);
    combiner.allreduce(comm, map, bucket_merge());
    ASSERT_EQ(map.size(), 2u);
    EXPECT_EQ(count_of(map, 0), 5u);
    EXPECT_EQ(count_of(map, 1), 0u + 1 + 2 + 3 + 4);
  });
}

TEST(MapCombiner, DirectMatchesTreeResult) {
  // Forced direct: binomial reduce to rank 0, then a shared-result
  // fan-out.  The merge schedule is bit-identical to the tree's, so the
  // global map must match what the other algorithms produce.
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    auto map = bucket_map({{comm.rank(), 1}, {99, 2}});
    MapCombiner combiner(MapCombiner::Algorithm::kDirect);
    const auto stats = combiner.allreduce(comm, map, bucket_merge());
    EXPECT_STREQ(stats.algorithm, "direct");
    EXPECT_FALSE(stats.used_ring);
    ASSERT_EQ(map.size(), 6u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(count_of(map, r), 1u);
    EXPECT_EQ(count_of(map, 99), 10u);
  });
}

TEST(MapCombiner, AutoPlansRingOnTorusForLargeMaps) {
  // Above the codec crossover floor, auto defers to CollectivePlanner.
  // On a 1D torus every ring edge is a one-hop neighbor link shipping
  // bytes/n, while tree strides pay multi-hop paths at the full payload —
  // the planner must pick the ring, and every rank must agree on it.
  simmpi::NetworkConfig cfg;
  cfg.model = "torus";
  cfg.ranks_per_node = 1;
  cfg.torus_x = 4;
  cfg.torus_y = 1;
  cfg.torus_z = 1;
  const int nranks = 4;
  simmpi::launch(
      nranks,
      [&](simmpi::Communicator& comm) {
        std::vector<std::pair<int, std::size_t>> entries;
        for (int key = 0; key < 8000; ++key) {
          entries.emplace_back(key, static_cast<std::size_t>(comm.rank() + 1));
        }
        auto map = bucket_map(entries);
        MapCombiner combiner(MapCombiner::Algorithm::kAuto);
        const auto stats = combiner.allreduce(comm, map, bucket_merge());
        EXPECT_STREQ(stats.algorithm, "ring");
        EXPECT_TRUE(stats.used_ring);
        ASSERT_EQ(map.size(), 8000u);
        ASSERT_EQ(count_of(map, 0), 1u + 2 + 3 + 4);
      },
      cfg);
}

TEST(MapCombiner, EmptyMapsCombineToEmpty) {
  simmpi::launch(3, [&](simmpi::Communicator& comm) {
    CombinationMap map;
    MapCombiner combiner(MapCombiner::Algorithm::kRing);
    combiner.allreduce(comm, map, bucket_merge());
    EXPECT_TRUE(map.empty());
    CombinationMap map2;
    MapCombiner tree(MapCombiner::Algorithm::kTree);
    tree.allreduce(comm, map2, bucket_merge());
    EXPECT_TRUE(map2.empty());
  });
}

// --- vector allreduce with degenerate lengths -------------------------------

TEST(AllreduceSum, VectorShorterThanRankCount) {
  // 6 ranks over 2 elements: the sums must still be exact on every rank.
  simmpi::launch(6, [&](simmpi::Communicator& comm) {
    const std::vector<double> local = {1.0, static_cast<double>(comm.rank())};
    const auto sum = comm.allreduce_sum(local);
    ASSERT_EQ(sum.size(), 2u);
    EXPECT_DOUBLE_EQ(sum[0], 6.0);
    EXPECT_DOUBLE_EQ(sum[1], 0.0 + 1 + 2 + 3 + 4 + 5);
  });
}

TEST(AllreduceSum, EmptyVector) {
  simmpi::launch(4, [&](simmpi::Communicator& comm) {
    const auto sum = comm.allreduce_sum(std::vector<int>{});
    EXPECT_TRUE(sum.empty());
  });
}

TEST(AllreduceSum, SingleElementManyRanks) {
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    const auto sum = comm.allreduce_sum(std::vector<long>{1});
    ASSERT_EQ(sum.size(), 1u);
    EXPECT_EQ(sum[0], 5);
  });
}

// --- circular buffer close semantics ----------------------------------------

TEST(CircularBuffer, PushAfterCloseThrows) {
  CircularBuffer<int> buf(2);
  buf.push(1);
  buf.close();
  EXPECT_THROW(buf.push(2), std::runtime_error);
  EXPECT_FALSE(buf.try_push(3));
  // Pending cells stay poppable after close; then the stream ends.
  auto v = buf.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(buf.pop().has_value());
}

TEST(CircularBuffer, CloseWakesBlockedPusher) {
  CircularBuffer<int> buf(1);
  buf.push(1);  // buffer now full
  std::thread pusher([&] { EXPECT_THROW(buf.push(2), std::runtime_error); });
  buf.close();  // must wake the pusher blocked on not_full_
  pusher.join();
}

}  // namespace
}  // namespace smart
