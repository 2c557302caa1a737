// Tests for the single-pass combination wave: Writer buffer-reuse
// primitives (append/reserve), map absorb, MapCombiner's tree and
// fault-tolerant rounds, vector allreduce degenerate lengths, and
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

// --- map absorb ------------------------------------------------------------

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

TEST(AbsorbSerializedMap, MergesExistingAndInsertsNew) {
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
}

// --- MapCombiner ------------------------------------------------------------

MergeFn cluster_merge() {
  return [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    auto& dst = static_cast<analytics::ClusterObj&>(*com);
    const auto& src = static_cast<const analytics::ClusterObj&>(red);
    dst.sum[0] += src.sum[0];
    dst.size += src.size;
  };
}

TEST(MapCombiner, FaultTolerantRoundMatchesTreeResult) {
  // The fault-tolerant round (timed binomial reduce to rank 0, then the
  // root's shared result sent to every peer) runs the tree's reduction, so
  // its global map must equal a tree round's byte for byte — including
  // double sums whose rounding depends on the merge order.
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    const auto local_map = [&] {
      analytics::register_red_objs();
      CombinationMap map;
      for (int key = 0; key < 3; ++key) {
        auto obj = std::make_unique<analytics::ClusterObj>();
        obj->sum = {(comm.rank() % 2 == 0 ? 1e16 : -1e16) + 0.3 * (comm.rank() + key)};
        obj->size = 1;
        obj->set_key(key);
        map.emplace(key, std::move(obj));
      }
      return map;
    };
    CombinationMap tree_map = local_map();
    MapCombiner tree;
    EXPECT_STREQ(tree.allreduce(comm, tree_map, cluster_merge()).algorithm, "tree");

    CombinationMap ft_map = local_map();
    MapCombiner ft;
    ft.begin_recovery_round();
    const auto stats = ft.allreduce(comm, ft_map, cluster_merge(), /*peer_timeout_seconds=*/10.0);
    EXPECT_STREQ(stats.algorithm, "ft_tree");

    Buffer tree_bytes;
    Buffer ft_bytes;
    serialize_map(tree_map, tree_bytes);
    serialize_map(ft_map, ft_bytes);
    EXPECT_EQ(ft_bytes, tree_bytes) << "rank " << comm.rank();
    ASSERT_EQ(ft_map.size(), 3u);
    EXPECT_EQ(static_cast<const analytics::ClusterObj&>(*ft_map.at(0)).size, 5u);
  });
}

TEST(MapCombiner, EmptyMapsCombineToEmpty) {
  simmpi::launch(3, [&](simmpi::Communicator& comm) {
    CombinationMap map;
    MapCombiner tree;
    EXPECT_STREQ(tree.allreduce(comm, map, bucket_merge()).algorithm, "tree");
    EXPECT_TRUE(map.empty());
    CombinationMap map2;
    MapCombiner ft;
    ft.begin_recovery_round();
    const auto stats = ft.allreduce(comm, map2, bucket_merge(), /*peer_timeout_seconds=*/10.0);
    EXPECT_STREQ(stats.algorithm, "ft_tree");
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
