// Minimal in-situ visualization output (visualization analytics class):
// renders a 2-D plane of aggregated values as a binary PGM image — the last
// mile of the multi-resolution pipeline (simulate -> block-aggregate ->
// render) without any external dependency.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace smart::analytics {

/// 8-bit grayscale image, row-major.
struct GrayImage {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<unsigned char> pixels;
};

/// Maps an nx*ny plane of doubles to grayscale, black = min, white = max.
/// A constant plane renders mid-gray.
GrayImage render_plane(const double* data, std::size_t nx, std::size_t ny);

/// Writes a binary PGM (P5); throws on I/O failure.
void write_pgm(const GrayImage& image, const std::string& path);

}  // namespace smart::analytics
