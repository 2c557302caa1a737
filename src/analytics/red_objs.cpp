#include "analytics/red_objs.h"

#include <algorithm>
#include <stdexcept>

namespace smart::analytics {

// --- GridObj ---------------------------------------------------------------

std::unique_ptr<RedObj> GridObj::clone() const { return std::make_unique<GridObj>(*this); }

void GridObj::serialize(Writer& w) const {
  w.write(sum);
  w.write<std::uint64_t>(count);
}

void GridObj::deserialize(Reader& r) {
  sum = r.read<double>();
  count = r.read<std::uint64_t>();
}

// --- Bucket ----------------------------------------------------------------

std::unique_ptr<RedObj> Bucket::clone() const { return std::make_unique<Bucket>(*this); }

void Bucket::serialize(Writer& w) const { w.write<std::uint64_t>(count); }

void Bucket::deserialize(Reader& r) { count = r.read<std::uint64_t>(); }

// --- CellObj ---------------------------------------------------------------

std::unique_ptr<RedObj> CellObj::clone() const { return std::make_unique<CellObj>(*this); }

void CellObj::serialize(Writer& w) const { w.write<std::uint64_t>(count); }

void CellObj::deserialize(Reader& r) { count = r.read<std::uint64_t>(); }

// --- GradObj ---------------------------------------------------------------

std::unique_ptr<RedObj> GradObj::clone() const { return std::make_unique<GradObj>(*this); }

void GradObj::serialize(Writer& w) const {
  w.write_vector(weights);
  w.write_vector(grad);
  w.write<std::uint64_t>(count);
  w.write(learning_rate);
}

void GradObj::deserialize(Reader& r) {
  weights = r.read_vector<double>();
  grad = r.read_vector<double>();
  count = r.read<std::uint64_t>();
  learning_rate = r.read<double>();
}

void GradObj::update() {
  if (count > 0) {
    for (std::size_t d = 0; d < weights.size(); ++d) {
      weights[d] -= learning_rate * grad[d] / static_cast<double>(count);
    }
  }
  std::fill(grad.begin(), grad.end(), 0.0);
  count = 0;
}

// --- ClusterObj ------------------------------------------------------------

std::unique_ptr<RedObj> ClusterObj::clone() const { return std::make_unique<ClusterObj>(*this); }

void ClusterObj::serialize(Writer& w) const {
  w.write_vector(centroid);
  w.write_vector(sum);
  w.write<std::uint64_t>(size);
}

void ClusterObj::deserialize(Reader& r) {
  centroid = r.read_vector<double>();
  sum = r.read_vector<double>();
  size = r.read<std::uint64_t>();
}

void ClusterObj::update() {
  if (size > 0) {
    for (std::size_t d = 0; d < centroid.size(); ++d) {
      centroid[d] = sum[d] / static_cast<double>(size);
    }
  }
  std::fill(sum.begin(), sum.end(), 0.0);
  size = 0;
}

// --- WinObj ----------------------------------------------------------------

std::unique_ptr<RedObj> WinObj::clone() const { return std::make_unique<WinObj>(*this); }

void WinObj::serialize(Writer& w) const {
  w.write(sum);
  w.write<std::uint64_t>(count);
  w.write<std::uint64_t>(window);
}

void WinObj::deserialize(Reader& r) {
  sum = r.read<double>();
  count = r.read<std::uint64_t>();
  window = r.read<std::uint64_t>();
}

// --- WinMedianObj ----------------------------------------------------------

std::unique_ptr<RedObj> WinMedianObj::clone() const {
  return std::make_unique<WinMedianObj>(*this);
}

void WinMedianObj::serialize(Writer& w) const {
  w.write_vector(elems);
  w.write<std::uint64_t>(window);
}

void WinMedianObj::deserialize(Reader& r) {
  elems = r.read_vector<double>();
  window = r.read<std::uint64_t>();
}

namespace {

/// The median of `v`, selected in place.
double select_median(std::vector<double>& v) {
  if (v.empty()) throw std::logic_error("WinMedianObj::median on empty window");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace

double WinMedianObj::median() const {
  // A per-thread copy: a fresh one would cost one allocation per window.
  thread_local std::vector<double> copy;
  copy.assign(elems.begin(), elems.end());
  return select_median(copy);
}

double WinMedianObj::median_in_place() { return select_median(elems); }

// --- KdeObj ----------------------------------------------------------------

std::unique_ptr<RedObj> KdeObj::clone() const { return std::make_unique<KdeObj>(*this); }

void KdeObj::serialize(Writer& w) const {
  w.write(kernel_sum);
  w.write<std::uint64_t>(count);
  w.write<std::uint64_t>(window);
}

void KdeObj::deserialize(Reader& r) {
  kernel_sum = r.read<double>();
  count = r.read<std::uint64_t>();
  window = r.read<std::uint64_t>();
}

// --- SgObj -----------------------------------------------------------------

std::unique_ptr<RedObj> SgObj::clone() const { return std::make_unique<SgObj>(*this); }

void SgObj::serialize(Writer& w) const {
  w.write(acc);
  w.write<std::uint64_t>(count);
  w.write<std::uint64_t>(window);
}

void SgObj::deserialize(Reader& r) {
  acc = r.read<double>();
  count = r.read<std::uint64_t>();
  window = r.read<std::uint64_t>();
}

// --- registration ------------------------------------------------------------

void register_red_objs() {
  static const bool done = [] {
    auto& reg = RedObjRegistry::instance();
    reg.register_type("GridObj", [] { return std::make_unique<GridObj>(); });
    reg.register_type("Bucket", [] { return std::make_unique<Bucket>(); });
    reg.register_type("CellObj", [] { return std::make_unique<CellObj>(); });
    reg.register_type("GradObj", [] { return std::make_unique<GradObj>(); });
    reg.register_type("ClusterObj", [] { return std::make_unique<ClusterObj>(); });
    reg.register_type("WinObj", [] { return std::make_unique<WinObj>(); });
    reg.register_type("WinMedianObj", [] { return std::make_unique<WinMedianObj>(); });
    reg.register_type("KdeObj", [] { return std::make_unique<KdeObj>(); });
    reg.register_type("SgObj", [] { return std::make_unique<SgObj>(); });
    return true;
  }();
  (void)done;
}

namespace {
const bool kRegistered = (register_red_objs(), true);
}  // namespace

}  // namespace smart::analytics
