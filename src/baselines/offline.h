// The store-first-analyze-after pipeline: the offline baseline of the
// paper's Figure 1 case study.  Each simulation time-step is written to
// persistent storage; the analytics later loads every step back and runs
// the *same* Smart scheduler on it (the paper's point that in-situ and
// offline analytics code coincide under Smart's API).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace smart::baselines {

/// Writes/reads raw double slabs under a run directory, one file per
/// (rank, step).  Accumulates I/O byte counts and wall time so the bench
/// can report the I/O overhead bar of Figure 1.
class StepStore {
 public:
  /// Creates (or reuses) `dir`; files are truncated per write.
  explicit StepStore(std::string dir);

  void write_step(int rank, int step, const double* data, std::size_t len);
  std::vector<double> read_step(int rank, int step) const;

  /// Removes every file this store wrote.
  void cleanup();

  std::size_t bytes_written() const { return bytes_written_; }
  std::size_t bytes_read() const { return bytes_read_; }
  double write_seconds() const { return write_seconds_; }
  double read_seconds() const { return read_seconds_; }

 private:
  std::string path_for(int rank, int step) const;

  std::string dir_;
  std::vector<std::string> written_;
  std::size_t bytes_written_ = 0;
  mutable std::size_t bytes_read_ = 0;
  double write_seconds_ = 0.0;
  mutable double read_seconds_ = 0.0;
};

}  // namespace smart::baselines
