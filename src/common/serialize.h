// Byte-buffer serialization used everywhere data crosses a rank boundary.
//
// Smart's global combination phase serializes reduction objects before they
// travel between ranks (the paper's Section 5.3 calls this step out as the
// main overhead versus a hand-written MPI_Allreduce).  The simmpi substrate
// carries *only* serialized bytes between rank mailboxes, so any type that
// wants to cross a rank boundary must round-trip through Writer/Reader.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace smart {

/// Growable byte buffer; the unit of exchange between simmpi ranks.
using Buffer = std::vector<std::byte>;

/// Immutable, reference-counted wire bytes.  Fan-out senders (bcast
/// children, checkpoint distribution, FT direct root fan-out) serialize
/// once and hand the same SharedBuffer to every destination; receivers each
/// deserialize from the shared bytes, so the serialize-once-per-message
/// fidelity rule (simmpi/mailbox.h) is untouched while the per-child
/// payload copies disappear.  The backing storage returns to the
/// BufferPool (via make_shared_buffer's deleter) when the last reference
/// drops.
class SharedBuffer {
 public:
  SharedBuffer() = default;
  SharedBuffer(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): mirrors shared_ptr
  SharedBuffer(std::shared_ptr<const Buffer> bytes)  // NOLINT(google-explicit-constructor)
      : owner_(std::move(bytes)) {}

  const std::byte* data() const { return owner_ ? owner_->data() : nullptr; }
  std::size_t size() const { return owner_ ? owner_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::byte& operator[](std::size_t i) const { return *(data() + i); }

  /// The backing allocation.
  const std::shared_ptr<const Buffer>& storage() const { return owner_; }

  explicit operator bool() const { return owner_ != nullptr; }
  void reset() { owner_.reset(); }

  friend bool operator==(const SharedBuffer& b, std::nullptr_t) { return b.owner_ == nullptr; }
  /// Identity (same storage) — not byte equality.
  friend bool operator==(const SharedBuffer& a, const SharedBuffer& b) {
    return a.owner_ == b.owner_;
  }

 private:
  std::shared_ptr<const Buffer> owner_;
};

/// Size-classed buffer recycler for steady-state wire traffic.
///
/// Free lists are thread-local (no locks on acquire/release); each list
/// holds cleared buffers bucketed by floor-log2(capacity), so acquire()
/// returns a buffer whose capacity already covers the request and a
/// steady-state combination round stops churning the allocator.  Retention
/// is bounded two ways — a per-class watermark and kMaxRetainedBytes of
/// total capacity per thread — so a burst cannot turn the pool into a
/// leak.  Hit/miss/recycle totals are process-wide relaxed atomics, always
/// on (pool operations are per-message, not per-byte) and surfaced through
/// MetricsRegistry snapshots as bufferpool.* counters.
///
/// Watermarks are *adaptive*: each class starts at kMaxPerClass and
/// doubles (up to kMaxPerClassLimit) after kResizeMissStreak consecutive
/// allocator misses — the signature of a working set larger than the
/// retained count.  When the byte budget blocks a release into a growing
/// class, the stalest other class (least-recently-touched) gives buffers
/// back to the allocator and has its watermark halved, so a shifted
/// size-class workload converges on pooling the sizes it actually uses.
/// Every watermark change is counted in Totals::resizes
/// (bufferpool.resize in metrics).
class BufferPool {
 public:
  /// Buffers below this capacity are not worth pooling.
  static constexpr std::size_t kMinPooledCapacity = 256;
  /// Buffers above this capacity are returned to the allocator.
  static constexpr std::size_t kMaxPooledCapacity = 8u * 1024 * 1024;
  /// Initial per-class retention watermark.
  static constexpr std::size_t kMaxPerClass = 8;
  /// Ceiling an adaptive watermark may grow to.
  static constexpr std::size_t kMaxPerClassLimit = 64;
  /// Consecutive allocator misses in one class before its watermark doubles.
  static constexpr std::size_t kResizeMissStreak = 4;
  /// Cap on the summed capacity a single thread's free lists may retain.
  static constexpr std::size_t kMaxRetainedBytes = 32u * 1024 * 1024;

  struct Totals {
    std::uint64_t hits = 0;            ///< acquires served from a free list
    std::uint64_t misses = 0;          ///< acquires that hit the allocator
    std::uint64_t releases_pooled = 0; ///< releases retained for reuse
    std::uint64_t releases_dropped = 0;///< releases past the retention bound
    std::uint64_t bytes_recycled = 0;  ///< capacity handed back out by hits
    std::uint64_t resizes = 0;         ///< adaptive watermark grow/shrink events
  };

  /// Returns an empty buffer with capacity >= min_capacity, reusing a
  /// pooled buffer when one is available on this thread.
  static Buffer acquire(std::size_t min_capacity) {
    if (min_capacity > kMaxPooledCapacity) {
      counters().misses.fetch_add(1, std::memory_order_relaxed);
      Buffer out;
      out.reserve(min_capacity);
      return out;
    }
    auto& lists = free_lists();
    const std::size_t class_capacity =
        min_capacity < kMinPooledCapacity ? kMinPooledCapacity : round_up_pow2(min_capacity);
    const std::size_t cls = class_of(class_capacity);
    lists.last_use[cls] = ++lists.tick;
    if (!lists.per_class[cls].empty()) {
      Buffer out = std::move(lists.per_class[cls].back());
      lists.per_class[cls].pop_back();
      lists.retained_bytes -= out.capacity();
      lists.miss_streak[cls] = 0;
      counters().hits.fetch_add(1, std::memory_order_relaxed);
      counters().bytes_recycled.fetch_add(out.capacity(), std::memory_order_relaxed);
      return out;
    }
    counters().misses.fetch_add(1, std::memory_order_relaxed);
    // A run of misses means this class's working set outgrew its retained
    // count: double the watermark so the next burst of releases sticks.
    if (++lists.miss_streak[cls] >= kResizeMissStreak && lists.limit[cls] < kMaxPerClassLimit) {
      lists.limit[cls] = std::min(lists.limit[cls] * 2, kMaxPerClassLimit);
      lists.miss_streak[cls] = 0;
      counters().resizes.fetch_add(1, std::memory_order_relaxed);
    }
    Buffer out;
    // Reserve the whole class capacity, not just the request: release()
    // files a buffer by floor-log2 of its capacity, so an exact reserve of
    // a non-power-of-two size would land one class below the one this
    // acquire looks in, and the same request would never hit.
    out.reserve(class_capacity);
    return out;
  }

  /// Hands a buffer's capacity back to this thread's pool (contents are
  /// cleared).  Oversized, undersized, or bound-exceeding buffers are
  /// simply dropped to the allocator.
  static void release(Buffer&& buf) {
    const std::size_t cap = buf.capacity();
    if (cap < kMinPooledCapacity || cap > kMaxPooledCapacity) {
      if (cap != 0) counters().releases_dropped.fetch_add(1, std::memory_order_relaxed);
      return;  // empty or out of range: nothing worth keeping
    }
    auto& lists = free_lists();
    const std::size_t cls = class_of(cap);
    if (lists.per_class[cls].size() >= lists.limit[cls]) {
      counters().releases_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Byte budget full but this class is under its watermark: rebalance by
    // evicting from the stalest *other* class before giving up — a shifted
    // workload's old size class shouldn't pin the budget forever.
    if (lists.retained_bytes + cap > kMaxRetainedBytes) {
      evict_stale(lists, cls, cap);
      if (lists.retained_bytes + cap > kMaxRetainedBytes) {
        counters().releases_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    buf.clear();
    lists.retained_bytes += cap;
    lists.last_use[cls] = ++lists.tick;
    lists.per_class[cls].push_back(std::move(buf));
    counters().releases_pooled.fetch_add(1, std::memory_order_relaxed);
  }

  static Totals totals() {
    const auto& c = counters();
    Totals t;
    t.hits = c.hits.load(std::memory_order_relaxed);
    t.misses = c.misses.load(std::memory_order_relaxed);
    t.releases_pooled = c.releases_pooled.load(std::memory_order_relaxed);
    t.releases_dropped = c.releases_dropped.load(std::memory_order_relaxed);
    t.bytes_recycled = c.bytes_recycled.load(std::memory_order_relaxed);
    t.resizes = c.resizes.load(std::memory_order_relaxed);
    return t;
  }

  /// Current adaptive watermark of the class covering `capacity`, for the
  /// calling thread (tests/diagnostics).
  static std::size_t thread_class_watermark(std::size_t capacity) {
    return free_lists().limit[class_of(capacity)];
  }

  /// Buffers currently retained by the calling thread (tests/diagnostics).
  static std::size_t thread_retained_count() {
    std::size_t n = 0;
    for (const auto& cls : free_lists().per_class) n += cls.size();
    return n;
  }

  /// Drops the calling thread's free lists and resets its adaptive
  /// watermarks (tests).
  static void drain_thread_cache() {
    auto& lists = free_lists();
    for (auto& cls : lists.per_class) cls.clear();
    lists.retained_bytes = 0;
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      lists.limit[c] = kMaxPerClass;
      lists.miss_streak[c] = 0;
      lists.last_use[c] = 0;
    }
    lists.tick = 0;
  }

 private:
  // Classes cover floor-log2 buckets from kMinPooledCapacity (2^8) through
  // kMaxPooledCapacity (2^23) inclusive.
  static constexpr std::size_t kMinClassBits = 8;
  static constexpr std::size_t kMaxClassBits = 23;
  static constexpr std::size_t kNumClasses = kMaxClassBits - kMinClassBits + 1;

  struct FreeLists {
    FreeLists() {
      for (std::size_t c = 0; c < kNumClasses; ++c) limit[c] = kMaxPerClass;
    }
    std::vector<Buffer> per_class[kNumClasses];
    std::size_t retained_bytes = 0;
    // Adaptive-watermark state, all per-thread like the lists themselves.
    std::size_t limit[kNumClasses];          ///< retention watermark per class
    std::size_t miss_streak[kNumClasses]{};  ///< consecutive allocator misses
    std::uint64_t last_use[kNumClasses]{};   ///< tick of the last touch
    std::uint64_t tick = 0;                  ///< per-thread operation counter
  };

  struct AtomicTotals {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> releases_pooled{0};
    std::atomic<std::uint64_t> releases_dropped{0};
    std::atomic<std::uint64_t> bytes_recycled{0};
    std::atomic<std::uint64_t> resizes{0};
  };

  /// Frees buffers from the least-recently-touched class other than
  /// `keep_cls` until `need` more bytes fit under the budget (or nothing is
  /// left to evict).  An evicted class has its watermark halved — it must
  /// re-earn retention through fresh miss streaks.
  static void evict_stale(FreeLists& lists, std::size_t keep_cls, std::size_t need) {
    while (lists.retained_bytes + need > kMaxRetainedBytes) {
      std::size_t victim = kNumClasses;
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        if (c == keep_cls || lists.per_class[c].empty()) continue;
        if (victim == kNumClasses || lists.last_use[c] < lists.last_use[victim]) victim = c;
      }
      if (victim == kNumClasses) return;
      auto& list = lists.per_class[victim];
      lists.retained_bytes -= list.back().capacity();
      list.pop_back();
      counters().releases_dropped.fetch_add(1, std::memory_order_relaxed);
      if (lists.limit[victim] > kMaxPerClass) {
        lists.limit[victim] = std::max(kMaxPerClass, lists.limit[victim] / 2);
        counters().resizes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  static std::size_t class_of(std::size_t capacity) {
    std::size_t bits = 0;
    for (std::size_t c = capacity; c > 1; c >>= 1) ++bits;
    if (bits < kMinClassBits) bits = kMinClassBits;
    if (bits > kMaxClassBits) bits = kMaxClassBits;
    return bits - kMinClassBits;
  }

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  static FreeLists& free_lists() {
    thread_local FreeLists lists;
    return lists;
  }

  static AtomicTotals& counters() {
    static AtomicTotals totals;
    return totals;
  }
};

/// Wraps serialized bytes as an immutable shared payload whose backing
/// storage returns to the BufferPool of whichever thread drops the last
/// reference — so a payload's capacity is recycled even when it is
/// consumed on a different rank thread than the one that allocated it.
inline SharedBuffer make_shared_buffer(Buffer&& bytes) {
  return SharedBuffer(std::shared_ptr<const Buffer>(new Buffer(std::move(bytes)), [](Buffer* p) {
    BufferPool::release(std::move(*p));
    delete p;
  }));
}

/// Canonical empty payload (never null, never mutated).
inline const SharedBuffer& shared_empty_buffer() {
  static const SharedBuffer empty{std::make_shared<const Buffer>()};
  return empty;
}

/// Appends primitives, strings and trivially-copyable spans to a Buffer.
///
/// A Writer always *appends* to the Buffer it wraps — it never clears it.
/// This is the buffer-reuse path for per-round wire traffic: callers that
/// encode every combination round (e.g. core/map_combiner) keep one Buffer,
/// `clear()` it (capacity survives) and construct a fresh Writer over it,
/// so steady-state rounds serialize without reallocating.  It also lets a
/// header and a payload be written back-to-back by different components
/// (core/intransit prepends its kind byte before the map snapshot).
class Writer {
 public:
  explicit Writer(Buffer& out) : out_(out) {}

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Raw bytes, no length prefix.
  void write_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    out_.insert(out_.end(), p, p + n);
  }

  /// Grows the wrapped buffer's capacity ahead of a burst of writes.
  void reserve(std::size_t additional) { out_.reserve(out_.size() + additional); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write(const T& value) {
    write_bytes(&value, sizeof(T));
  }

  void write_string(const std::string& s) {
    write<std::uint64_t>(s.size());
    write_bytes(s.data(), s.size());
  }

  /// LEB128 variable-length unsigned integer: 1 byte for values < 128,
  /// growing 7 bits per byte.  The map wire format v2 uses this for its
  /// per-entry interned-type indices, which are almost always < 128 —
  /// one byte instead of a repeated length-prefixed type-name string.
  void write_varint(std::uint64_t value) {
    while (value >= 0x80) {
      write<std::uint8_t>(static_cast<std::uint8_t>(value) | 0x80);
      value >>= 7;
    }
    write<std::uint8_t>(static_cast<std::uint8_t>(value));
  }

  /// Length-prefixed span of trivially-copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_span(const T* data, std::size_t n) {
    write<std::uint64_t>(n);
    write_bytes(data, n * sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_vector(const std::vector<T>& v) {
    write_span(v.data(), v.size());
  }

 private:
  Buffer& out_;
};

/// Reads values back in the order a Writer produced them.
class Reader {
 public:
  Reader(const std::byte* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const Buffer& buf) : Reader(buf.data(), buf.size()) {}
  /// Reads a shared payload in place — no copy.
  explicit Reader(const SharedBuffer& buf) : Reader(buf.data(), buf.size()) {}

  void read_bytes(void* dst, std::size_t n) {
    if (pos_ + n > size_) {
      throw std::out_of_range("smart::Reader: read past end of buffer");
    }
    // memcpy needs non-null pointers even for 0 bytes, and an empty
    // vector's data() may be null.
    if (n == 0) return;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T read() {
    T value;
    read_bytes(&value, sizeof(T));
    return value;
  }

  std::string read_string() {
    const auto n = read<std::uint64_t>();
    check_count(n, 1);
    std::string s(n, '\0');
    read_bytes(s.data(), n);
    return s;
  }

  /// Reads a Writer::write_varint value; rejects encodings longer than the
  /// 10 bytes a u64 can need (a corrupt continuation-bit run would
  /// otherwise shift past the value's width).
  std::uint64_t read_varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const auto byte = read<std::uint8_t>();
      value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
    }
    throw std::out_of_range("smart::Reader: varint longer than 10 bytes");
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> read_vector() {
    const auto n = read<std::uint64_t>();
    check_count(n, sizeof(T));
    std::vector<T> v(n);
    read_bytes(v.data(), n * sizeof(T));
    return v;
  }

  /// Reads a length-prefixed span into caller-owned storage of capacity n.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::size_t read_span(T* dst, std::size_t capacity) {
    const auto n = read<std::uint64_t>();
    if (n > capacity) {
      throw std::out_of_range("smart::Reader: span larger than destination");
    }
    read_bytes(dst, n * sizeof(T));
    return n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  void check_count(std::uint64_t n, std::size_t elem_size) const {
    if (n > (size_ - pos_) / (elem_size == 0 ? 1 : elem_size)) {
      throw std::out_of_range("smart::Reader: corrupt length prefix");
    }
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace smart
