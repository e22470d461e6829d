// Compact layered thermal RC network (HotSpot methodology, Huang et al.
// TVLSI'06) with the package parameters of the paper's Sec. 2.1.
//
// Stack (top of the heat path is the ambient):
//
//        ambient (fixed temperature, eliminated from the system)
//           |  convection R/C, distributed over the sink bottom by area
//        heat sink         60 x 60 x 6.9 mm,  k = 400, c = 3.55e6
//        heat spreader     30 x 30 x 1 mm,    k = 400, c = 3.55e6
//        interface (TIM)   die-sized, 20 um,  k = 4,   c = 4e6
//        silicon die       die-sized, 0.15 mm, k = 100, c = 1.75e6
//           ^  per-core power injection
//
// Discretization: one node per core tile in the die, TIM, spreader and
// sink layers, plus 4 border nodes for the spreader overhang beyond the
// die, 4 for the sink region under that overhang, and 4 for the sink
// region beyond the spreader -- 4*N + 12 nodes for an N-core chip.
// North/south border strips span the full parent width (they absorb the
// corners); east/west strips span the die/spreader height, exactly
// partitioning each overhang area.
#pragma once

#include <cstddef>
#include <vector>

#include "thermal/floorplan.hpp"
#include "util/matrix.hpp"

namespace ds::thermal {

/// Package and material constants. Defaults are the paper's HotSpot
/// configuration, verbatim from Sec. 2.1 (SI units).
struct PackageParams {
  double die_thickness = 0.15e-3;        // [m]
  double die_conductivity = 100.0;       // [W/(m K)]
  double die_specific_heat = 1.75e6;     // [J/(m^3 K)]

  double tim_thickness = 20e-6;          // [m]
  double tim_conductivity = 4.0;         // [W/(m K)]
  double tim_specific_heat = 4e6;        // [J/(m^3 K)]

  double spreader_side = 0.03;           // [m] (3 x 3 cm)
  double spreader_thickness = 1e-3;      // [m]
  double spreader_conductivity = 400.0;  // [W/(m K)]
  double spreader_specific_heat = 3.55e6;

  double sink_side = 0.06;               // [m] (6 x 6 cm)
  double sink_thickness = 6.9e-3;        // [m]
  double sink_conductivity = 400.0;      // [W/(m K)]
  double sink_specific_heat = 3.55e6;

  double convection_resistance = 0.1;    // [K/W]
  double convection_capacitance = 140.4; // [J/K]

  double ambient_c = 38.0;               // [C] see power::kAmbientC
};

/// The assembled network: conductance matrix G [W/K], per-node thermal
/// capacitance [J/K], and per-node conductance to the ambient.
///
/// G is kept as what it is built from: the list of node-to-node
/// conductances (each enters G as -g at (a, b) and (b, a), so G is
/// symmetric by construction) and the diagonal, accumulated in build
/// order. A 4N + 12 node network has about 11N edges, so the model
/// holds O(N) numbers where a dense G would hold (4N + 12)^2 (17 MB at
/// 361 cores). conductance() assembles the dense matrix for the
/// callers that factor it.
class RcModel {
 public:
  /// One node-to-node conductance, in the order Build() added it.
  struct Edge {
    std::size_t a = 0;
    std::size_t b = 0;
    double g = 0.0;  // [W/K], positive
  };

  /// Builds the network for `fp`. Throws std::invalid_argument if the die
  /// does not fit on the spreader or the spreader on the sink.
  explicit RcModel(const Floorplan& fp, const PackageParams& pkg = {});

  std::size_t num_cores() const { return num_cores_; }
  std::size_t num_nodes() const { return num_nodes_; }
  const Floorplan& floorplan() const { return fp_; }
  const PackageParams& package() const { return pkg_; }

  /// Node indices per layer.
  std::size_t DieNode(std::size_t core) const { return core; }
  std::size_t TimNode(std::size_t core) const { return num_cores_ + core; }
  std::size_t SpreaderNode(std::size_t core) const {
    return 2 * num_cores_ + core;
  }
  std::size_t SpreaderBorderNode(std::size_t side) const {  // 0..3 = N,S,W,E
    return 3 * num_cores_ + side;
  }
  std::size_t SinkNode(std::size_t core) const {
    return 3 * num_cores_ + 4 + core;
  }
  std::size_t SinkInnerBorderNode(std::size_t side) const {
    return 4 * num_cores_ + 4 + side;
  }
  std::size_t SinkOuterBorderNode(std::size_t side) const {
    return 4 * num_cores_ + 8 + side;
  }

  /// Dense G, assembled from the edges and the diagonal on each call:
  /// bitwise the matrix the build's AddConductance/AddAmbient sequence
  /// accumulates. O(nodes^2); only factorizations need it.
  util::Matrix conductance() const;
  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<double>& capacitance() const { return cap_; }
  const std::vector<double>& ambient_conductance() const { return amb_g_; }
  double ambient_c() const { return pkg_.ambient_c; }

  /// Full-length power vector from per-core powers (injected at die
  /// nodes, zero elsewhere). Requires core_powers.size() == num_cores().
  std::vector<double> ExpandPower(std::span<const double> core_powers) const;

 private:
  void Build();
  void CheckInvariants() const;
  void AddConductance(std::size_t a, std::size_t b, double g);
  void AddAmbient(std::size_t a, double g);

  Floorplan fp_;
  PackageParams pkg_;
  std::size_t num_cores_;
  std::size_t num_nodes_;
  std::vector<Edge> edges_;
  std::vector<double> diag_;  // G's diagonal
  std::vector<double> cap_;
  std::vector<double> amb_g_;
};

}  // namespace ds::thermal
