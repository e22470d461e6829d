#include "reliability/aging.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/mapping.hpp"

namespace ds::reliability {

double AccelerationFactor(double t_c) {
  const double t_k = t_c + 273.15;
  const double ref_k = kReferenceTempC + 273.15;
  return std::exp((kActivationEnergyEv / kBoltzmannEv) *
                  (1.0 / ref_k - 1.0 / t_k));
}

void AgingState::Advance(std::span<const double> temps_c, double hours) {
  if (temps_c.size() != wear_.size())
    throw std::invalid_argument("AgingState::Advance: size mismatch");
  if (hours < 0.0)
    throw std::invalid_argument("AgingState::Advance: negative duration");
  for (std::size_t i = 0; i < wear_.size(); ++i)
    wear_[i] += AccelerationFactor(temps_c[i]) * hours;
}

double AgingState::MaxWear() const {
  double m = 0.0;
  for (const double w : wear_) m = std::max(m, w);
  return m;
}

double AgingState::MeanWear() const {
  if (wear_.empty()) return 0.0;
  return std::accumulate(wear_.begin(), wear_.end(), 0.0) /
         static_cast<double>(wear_.size());
}

double AgingState::Imbalance() const {
  const double mean = MeanWear();
  return mean > 0.0 ? MaxWear() / mean : 1.0;
}

std::vector<std::size_t> SelectAgingAware(const util::Matrix& influence,
                                          const AgingState& aging,
                                          std::size_t count,
                                          double pool_factor) {
  const std::size_t n = influence.rows();
  if (count > n)
    throw std::invalid_argument("SelectAgingAware: count exceeds cores");
  if (aging.num_cores() != n)
    throw std::invalid_argument("SelectAgingAware: aging size mismatch");
  if (pool_factor < 1.0)
    throw std::invalid_argument("SelectAgingAware: pool_factor < 1");

  // Candidate pool: the least-worn cores.
  const std::size_t pool_size = std::min(
      n, static_cast<std::size_t>(pool_factor * static_cast<double>(count)));
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0);
  std::stable_sort(pool.begin(), pool.end(), [&](std::size_t a, std::size_t b) {
    return aging.WearOf(a) < aging.WearOf(b);
  });
  pool.resize(pool_size);

  // Greedy thermal dispersion from an empty chip, over the pool in pool
  // order (least worn first) at unit power.
  std::vector<bool> used(n, false);
  std::vector<double> rise(n, 0.0);
  std::vector<std::size_t> out = core::PlaceDispersed(
      influence, pool, std::vector<double>(n, 1.0), count, used, rise);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ds::reliability
