// The unit of processing in Smart's reduction phase.
//
// A chunk is a contiguous slice of the input array — one "unit element"
// (e.g. a scalar for histogramming, a feature vector for k-means).  Unlike
// conventional MapReduce records, chunks carry their *position* in the
// array, which is what lets Smart support structural analytics (grid
// aggregation, sliding windows) over the scientific array data model
// (paper Section 5.8).
#pragma once

#include <cstddef>

namespace smart {

struct Chunk {
  std::size_t start = 0;   ///< index of the first element in the input array
  std::size_t length = 0;  ///< number of elements (the scheduler's chunk_size)
};

/// A columnar (SoA) view over a run of contiguous, equally sized chunks —
/// the unit of the scheduler's batched reduction path.
///
/// Where a Chunk names one unit element, a ChunkBatch names `count`
/// consecutive unit elements starting at input index `start`, each
/// `chunk_len` elements wide (`chunk_len` doubles as the stride between
/// chunk starts, so chunk i covers [start + i*chunk_len, +chunk_len)).
/// Carrying the base offset and stride — rather than materializing per-chunk
/// records — keeps the batch a zero-copy window into the simulation slab
/// and preserves the positional information structural apps (grid/block
/// aggregation, windows) key on.
///
/// The ragged tail chunk (length < chunk_size) is never part of a batch;
/// the scheduler routes it through the per-chunk path, so batch kernels may
/// assume every chunk is exactly `chunk_len` elements.  (The default
/// Scheduler::gen_keys hands gen_key_ranges a one-chunk batch whose
/// chunk_len is that chunk's length, which keeps the rule.)
struct ChunkBatch {
  std::size_t start = 0;      ///< index of the first chunk's first element
  std::size_t chunk_len = 0;  ///< elements per chunk = stride between chunks
  std::size_t count = 0;      ///< number of chunks in the batch

  /// The i-th chunk of the batch as a positional Chunk.
  Chunk chunk(std::size_t i) const { return Chunk{start + i * chunk_len, chunk_len}; }

  /// Sub-batch of `n` chunks starting at chunk index `first`.
  ChunkBatch sub(std::size_t first, std::size_t n) const {
    return ChunkBatch{start + first * chunk_len, chunk_len, n};
  }

  /// Total elements spanned by the batch.
  std::size_t elements() const { return chunk_len * count; }
};

/// The keys one chunk feeds, as the ascending range [first, last]; empty
/// when first > last.  A window app's element feeds the centers of every
/// window that covers it, which is one such range; Scheduler::gen_key_ranges
/// writes one per chunk of a batch.
struct KeyRange {
  int first = 0;
  int last = -1;
};

}  // namespace smart
