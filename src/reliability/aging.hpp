// Temperature-driven aging and lifetime balancing.
//
// The paper's Sec. 1 motivates leveraging dark silicon "to improve the
// thermal profiles and reliability of manycore systems" (Hayat [3],
// ASER [4], DaSim [5]): spare (dark) cores allow rotating the active
// set so no single core accumulates wear at the hot spots.
//
// Wear model: the dominant silicon aging mechanisms (NBTI,
// electromigration, TDDB) accelerate exponentially in temperature with
// an Arrhenius law. We track, per core, *equivalent stress hours*:
//
//   wear_i += AF(T_i) * dt,   AF(T) = exp( (Ea/k_B) (1/T_ref - 1/T) )
//
// with Ea = 0.7 eV and T_ref = 80 C (AF = 1 when a core sits exactly at
// the thermal threshold; cooler cores age slower, hotter ones faster).
// A core's lifetime budget is expressed in equivalent hours at T_ref,
// so max_i wear_i directly bounds the chip's time-to-first-failure.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/matrix.hpp"

namespace ds::reliability {

/// Arrhenius acceleration factor at temperature `t_c` [Celsius],
/// relative to the reference temperature.
double AccelerationFactor(double t_c);

inline constexpr double kActivationEnergyEv = 0.7;
inline constexpr double kBoltzmannEv = 8.617e-5;  // [eV/K]
inline constexpr double kReferenceTempC = 80.0;

/// Per-core accumulated wear in equivalent stress hours at T_ref.
class AgingState {
 public:
  explicit AgingState(std::size_t num_cores) : wear_(num_cores, 0.0) {}

  std::size_t num_cores() const { return wear_.size(); }
  const std::vector<double>& wear() const { return wear_; }
  double WearOf(std::size_t core) const { return wear_[core]; }

  /// Accrues `hours` of operation at the given per-core temperatures.
  /// Requires temps_c.size() == num_cores().
  void Advance(std::span<const double> temps_c, double hours);

  double MaxWear() const;
  double MeanWear() const;
  /// Max/mean wear ratio: 1.0 = perfectly balanced aging.
  double Imbalance() const;

 private:
  std::vector<double> wear_;
};

/// Aging-aware active-set selection (Hayat-style rotation): restricts
/// the candidate pool to the least-worn `pool_factor * count` cores and
/// runs core::PlaceDispersed over that pool, least worn first, so wear
/// equalizes over epochs without giving up the patterning benefit.
std::vector<std::size_t> SelectAgingAware(const util::Matrix& influence,
                                          const AgingState& aging,
                                          std::size_t count,
                                          double pool_factor = 1.5);

}  // namespace ds::reliability
