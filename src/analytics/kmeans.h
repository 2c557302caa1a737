// K-means clustering (clustering analytics, paper Listing 4): the iterative
// example application.  Each chunk is one point (chunk_size = dims); the
// nearest-centroid id is the key; sum/size accumulate in place; each
// iteration's post_combine recomputes centroids from the globally combined
// sums (and resets them — the merge-identity contract).
//
// Output follows the paper's Scheduler<T, T*> shape: the output array holds
// k pointers, and convert() copies each centroid into the buffer its key's
// pointer designates (keys are the contiguous ints 0..k-1, the restriction
// Listing 4 notes).
#pragma once

#include <cmath>
#include <cstring>
#include <limits>

#include "analytics/batch_kernels.h"
#include "analytics/red_objs.h"
#include "core/scheduler.h"

namespace smart::analytics {

/// extra_data payload: the initial centroids, k rows of `dims` doubles.
struct KMeansInit {
  const double* centroids = nullptr;
  std::size_t k = 0;
  std::size_t dims = 0;
};

template <class T>
class KMeans : public Scheduler<T, T*> {
 public:
  /// chunk_size in args must equal dims; extra_data must point to a
  /// KMeansInit (the paper: "the initial k centroids are required").
  KMeans(const SchedArgs& args, std::size_t k, std::size_t dims, RunOptions opts = {})
      : Scheduler<T, T*>(args, opts), k_(k), dims_(dims) {
    if (args.chunk_size != dims) {
      throw std::invalid_argument("KMeans: chunk_size must equal dims");
    }
    if (k == 0 || dims == 0) throw std::invalid_argument("KMeans: k and dims must be positive");
    this->require_full_chunks();  // a partial feature vector is malformed input
    register_red_objs();
  }

  /// Current centroids, k rows of dims, from the combination map.
  std::vector<double> centroids() const { return centroid_rows(this->get_combination_map()); }

  std::size_t k() const { return k_; }
  std::size_t dims() const { return dims_; }

 protected:
  int gen_key(const Chunk& chunk, const T* data, const CombinationMap& com_map) const override {
    // Nearest centroid (paper Listing 4's gen_key).  The centroids live in
    // the combination map, but scanning map nodes per point costs two
    // pointer hops per centroid, so the app keeps a kernels::CentroidTable
    // refreshed at every map hand-back (process_extra_data / post_combine):
    // contiguous like Listing 4's fixed-size member arrays, in groups of as
    // many centroids as the CPU's nearest-centroid kernel holds per vector
    // (four with AVX2, two otherwise; kernels::nearest_centroid_lanes), the
    // layout that kernel scans at every width.  The n = 1 call into the
    // batch kernel keeps the scalar and batched assignments on one distance
    // expression (same dim order, same first-index tie break).
    (void)com_map;
    int key = 0;
    kernels::nearest_centroids(data + chunk.start, 1, centroid_table_, &key);
    return key;
  }

  void gen_keys_batch(const ChunkBatch& batch, const T* data, int* keys,
                      const CombinationMap&) const override {
    kernels::nearest_centroids(data + batch.start, batch.count, centroid_table_, keys);
  }

  void process_extra_data(const void* extra_data, CombinationMap& com_map) override {
    if (extra_data == nullptr) {
      throw std::invalid_argument("KMeans: extra_data with initial centroids is required");
    }
    const auto* init = static_cast<const KMeansInit*>(extra_data);
    if (init->k != k_ || init->dims != dims_) {
      throw std::invalid_argument("KMeans: extra_data shape mismatch");
    }
    for (std::size_t c = 0; c < k_; ++c) {
      auto obj = std::make_unique<ClusterObj>();
      obj->centroid.assign(init->centroids + c * dims_, init->centroids + (c + 1) * dims_);
      obj->sum.assign(dims_, 0.0);
      com_map.emplace(static_cast<int>(c), std::move(obj));
    }
    refresh_centroid_table(com_map);
  }

  void accumulate(const Chunk& chunk, const T* data, std::unique_ptr<RedObj>& red_obj) override {
    auto& cluster = static_cast<ClusterObj&>(*red_obj);
    kernels::accumulate_points(data + chunk.start, 1, dims_, cluster.sum.data());
    cluster.size += 1;
  }

  std::size_t accumulate_batch(const ChunkBatch& batch, const T* data,
                               std::unique_ptr<RedObj>& red_obj,
                               bool /*stop_after_trigger*/) override {
    // ClusterObj never triggers; a whole same-centroid run of points folds
    // into the sums in one call (point-major order — bit-exact per dim).
    auto& cluster = static_cast<ClusterObj&>(*red_obj);
    kernels::accumulate_points(data + batch.start, batch.count, dims_, cluster.sum.data());
    cluster.size += batch.count;
    return batch.count;
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    const auto& src = static_cast<const ClusterObj&>(red_obj);
    auto& dst = static_cast<ClusterObj&>(*com_obj);
    for (std::size_t d = 0; d < dst.sum.size(); ++d) dst.sum[d] += src.sum[d];
    dst.size += src.size;
  }

  void post_combine(CombinationMap& com_map) override {
    for (auto& [key, obj] : com_map) static_cast<ClusterObj&>(*obj).update();
    refresh_centroid_table(com_map);
  }

  void convert(const RedObj& red_obj, T** out) const override {
    const auto& cluster = static_cast<const ClusterObj&>(red_obj);
    for (std::size_t d = 0; d < dims_; ++d) {
      (*out)[d] = static_cast<T>(cluster.centroid[d]);
    }
  }

 private:
  /// k rows of dims from the map's clusters; rows without a cluster stay 0.
  std::vector<double> centroid_rows(const CombinationMap& com_map) const {
    std::vector<double> rows(k_ * dims_, 0.0);
    for (const auto& [key, obj] : com_map) {
      if (key < 0 || static_cast<std::size_t>(key) >= k_) continue;
      const auto& cluster = static_cast<const ClusterObj&>(*obj);
      std::memcpy(rows.data() + static_cast<std::size_t>(key) * dims_, cluster.centroid.data(),
                  dims_ * sizeof(double));
    }
    return rows;
  }

  void refresh_centroid_table(const CombinationMap& com_map) {
    centroid_table_ = kernels::CentroidTable(centroid_rows(com_map).data(), k_, dims_);
  }

  std::size_t k_;
  std::size_t dims_;
  kernels::CentroidTable centroid_table_;
};

}  // namespace smart::analytics
