// Checkpoint file I/O: the scheduler-independent half of core/checkpoint.h,
// split out so the scheduler's periodic auto-checkpoint (RecoveryPolicy)
// can write files without a header cycle.
//
// Durability contract:
//   * writes are atomic — the snapshot goes to `path + ".tmp"` and is
//     renamed into place only after a complete, flushed write, so a crash
//     or full disk mid-write leaves the previous good checkpoint intact
//     (a stale .tmp from a crashed writer is simply overwritten next time);
//   * the header carries the snapshot length *and* an FNV-1a checksum over
//     the snapshot bytes, and the reader validates the declared length
//     against the file's actual remaining length (rejecting truncation and
//     trailing garbage alike) *before* allocating, so a corrupt header is
//     a diagnosable error instead of a std::bad_alloc.
//
// The snapshot payload is opaque at this layer.  For scheduler checkpoints
// it is a serialized combination map in the v2 map wire format
// (core/red_obj.h); a snapshot in any other format fails to load with
// std::runtime_error.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/serialize.h"

namespace smart {

namespace detail {

constexpr std::uint64_t kCheckpointMagic = 0x534d4152542d434bULL;  // "SMART-CK"
// Version 2: atomic tmp+rename writes, FNV-1a snapshot checksum in the header.
constexpr std::uint32_t kCheckpointVersion = 2;
// magic + version + snapshot length + checksum.
constexpr std::size_t kCheckpointHeaderBytes =
    sizeof(std::uint64_t) + sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint64_t);

inline std::uint64_t fnv1a64(const std::byte* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(data[i]));
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace detail

/// Atomically writes `snapshot` (a serialized combination map) to `path`.
inline void write_checkpoint_file(const Buffer& snapshot, const std::string& path) {
  Buffer header = BufferPool::acquire(detail::kCheckpointHeaderBytes);
  {
    Writer w(header);
    w.write(detail::kCheckpointMagic);
    w.write(detail::kCheckpointVersion);
    w.write<std::uint64_t>(snapshot.size());
    w.write<std::uint64_t>(detail::fnv1a64(snapshot.data(), snapshot.size()));
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("write_checkpoint_file: cannot open " + tmp);
  bool ok = std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
            std::fwrite(snapshot.data(), 1, snapshot.size(), f) == snapshot.size() &&
            std::fflush(f) == 0;
  ok = (std::fclose(f) == 0) && ok;
  BufferPool::release(std::move(header));
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_checkpoint_file: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_checkpoint_file: cannot rename " + tmp + " to " + path);
  }
}

/// Reads and fully validates a checkpoint; returns the snapshot payload.
inline Buffer read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("read_checkpoint_file: cannot open " + path);
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  const bool header_ok = std::fread(&magic, sizeof(magic), 1, f) == 1 &&
                         std::fread(&version, sizeof(version), 1, f) == 1 &&
                         std::fread(&size, sizeof(size), 1, f) == 1 &&
                         std::fread(&checksum, sizeof(checksum), 1, f) == 1;
  if (!header_ok || magic != detail::kCheckpointMagic) {
    std::fclose(f);
    throw std::runtime_error("read_checkpoint_file: " + path + " is not a Smart checkpoint");
  }
  if (version != detail::kCheckpointVersion) {
    std::fclose(f);
    throw std::runtime_error("read_checkpoint_file: unsupported checkpoint version " +
                             std::to_string(version) + " in " + path);
  }
  // The declared size is untrusted: measure the file before allocating.
  long payload_end = 0;
  if (std::fseek(f, 0, SEEK_END) != 0 || (payload_end = std::ftell(f)) < 0 ||
      std::fseek(f, static_cast<long>(detail::kCheckpointHeaderBytes), SEEK_SET) != 0) {
    std::fclose(f);
    throw std::runtime_error("read_checkpoint_file: cannot measure " + path);
  }
  const auto actual =
      static_cast<std::uint64_t>(payload_end) - detail::kCheckpointHeaderBytes;
  if (size != actual) {
    std::fclose(f);
    throw std::runtime_error("read_checkpoint_file: " + path + " declares " +
                             std::to_string(size) + " snapshot bytes but holds " +
                             std::to_string(actual) +
                             (actual < size ? " (truncated checkpoint)" : " (trailing bytes)"));
  }
  Buffer snapshot = BufferPool::acquire(size);
  snapshot.resize(size);
  const bool body_ok = std::fread(snapshot.data(), 1, size, f) == size;
  std::fclose(f);
  if (!body_ok) throw std::runtime_error("read_checkpoint_file: cannot read " + path);
  if (detail::fnv1a64(snapshot.data(), snapshot.size()) != checksum) {
    throw std::runtime_error("read_checkpoint_file: checksum mismatch in " + path +
                             " (corrupt snapshot bytes)");
  }
  return snapshot;
}

}  // namespace smart
