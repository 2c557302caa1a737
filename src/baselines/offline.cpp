#include "baselines/offline.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/timing.h"

namespace smart::baselines {

namespace fs = std::filesystem;

StepStore::StepStore(std::string dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
}

std::string StepStore::path_for(int rank, int step) const {
  return dir_ + "/rank" + std::to_string(rank) + "_step" + std::to_string(step) + ".bin";
}

void StepStore::write_step(int rank, int step, const double* data, std::size_t len) {
  WallTimer timer;
  const std::string path = path_for(rank, step);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("StepStore: cannot open " + path + " for write");
  const std::size_t wrote = std::fwrite(data, sizeof(double), len, f);
  // fflush+fclose so the write cost lands here, not at some later sync.
  std::fflush(f);
  std::fclose(f);
  if (wrote != len) throw std::runtime_error("StepStore: short write to " + path);
  written_.push_back(path);
  bytes_written_ += len * sizeof(double);
  write_seconds_ += timer.seconds();
}

std::vector<double> StepStore::read_step(int rank, int step) const {
  WallTimer timer;
  const std::string path = path_for(rank, step);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("StepStore: cannot open " + path + " for read");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<double> data(static_cast<std::size_t>(size) / sizeof(double));
  const std::size_t got = std::fread(data.data(), sizeof(double), data.size(), f);
  std::fclose(f);
  if (got != data.size()) throw std::runtime_error("StepStore: short read from " + path);
  bytes_read_ += data.size() * sizeof(double);
  read_seconds_ += timer.seconds();
  return data;
}

void StepStore::cleanup() {
  for (const auto& path : written_) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  written_.clear();
}

}  // namespace smart::baselines
