#include "analytics/render.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace smart::analytics {

namespace {
std::pair<double, double> value_range(const double* data, std::size_t n) {
  double lo = data[0], hi = data[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  return {lo, hi};
}
}  // namespace

GrayImage render_plane(const double* data, std::size_t nx, std::size_t ny) {
  if (nx == 0 || ny == 0) throw std::invalid_argument("render_plane: empty plane");
  GrayImage img;
  img.width = nx;
  img.height = ny;
  img.pixels.resize(nx * ny);
  const auto [lo, hi] = value_range(data, nx * ny);
  const double span = hi - lo;
  for (std::size_t i = 0; i < nx * ny; ++i) {
    img.pixels[i] = span > 0.0
                        ? static_cast<unsigned char>(255.0 * (data[i] - lo) / span + 0.5)
                        : static_cast<unsigned char>(128);
  }
  return img;
}

void write_pgm(const GrayImage& image, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("write_pgm: cannot open " + path);
  std::fprintf(f, "P5\n%zu %zu\n255\n", image.width, image.height);
  const bool ok =
      std::fwrite(image.pixels.data(), 1, image.pixels.size(), f) == image.pixels.size();
  std::fclose(f);
  if (!ok) throw std::runtime_error("write_pgm: short write to " + path);
}

}  // namespace smart::analytics
