#include "linalg/vector_ops.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace stf::la {

namespace {
// `what` is read only by the contract, which unchecked builds compile out.
void check_same_size(const std::vector<double>& a,
                     const std::vector<double>& b,
                     [[maybe_unused]] const char* what) {
  STF_REQUIRE(a.size() == b.size(), what);
}
}  // namespace

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  check_same_size(a, b, "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

double norm_inf(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

std::vector<double> add(const std::vector<double>& a,
                        const std::vector<double>& b) {
  check_same_size(a, b, "add: size mismatch");
  std::vector<double> c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + b[i];
  return c;
}

std::vector<double> sub(const std::vector<double>& a,
                        const std::vector<double>& b) {
  check_same_size(a, b, "sub: size mismatch");
  std::vector<double> c(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

std::vector<double> scale(const std::vector<double>& v, double s) {
  std::vector<double> c(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) c[i] = v[i] * s;
  return c;
}

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  check_same_size(x, y, "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

std::vector<double> normalized(const std::vector<double>& v) {
  const double n = norm2(v);
  if (n == 0.0) return v;
  return scale(v, 1.0 / n);
}

std::vector<double> concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> c;
  c.reserve(a.size() + b.size());
  c.insert(c.end(), a.begin(), a.end());
  c.insert(c.end(), b.begin(), b.end());
  return c;
}

}  // namespace stf::la
