#include "thermal/rc_model.hpp"

#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace ds::thermal {
namespace {

constexpr double kMmToM = 1e-3;

/// Every layer parameter enters a conductance or capacitance as a
/// positive factor; zero or negative values build a singular (or
/// outright wrong) network that HotSpot-style solvers accept silently.
void ValidatePackage(const PackageParams& p) {
  const struct {
    const char* name;
    double value;
  } positives[] = {
      {"die_thickness", p.die_thickness},
      {"die_conductivity", p.die_conductivity},
      {"die_specific_heat", p.die_specific_heat},
      {"tim_thickness", p.tim_thickness},
      {"tim_conductivity", p.tim_conductivity},
      {"tim_specific_heat", p.tim_specific_heat},
      {"spreader_side", p.spreader_side},
      {"spreader_thickness", p.spreader_thickness},
      {"spreader_conductivity", p.spreader_conductivity},
      {"spreader_specific_heat", p.spreader_specific_heat},
      {"sink_side", p.sink_side},
      {"sink_thickness", p.sink_thickness},
      {"sink_conductivity", p.sink_conductivity},
      {"sink_specific_heat", p.sink_specific_heat},
      {"convection_resistance", p.convection_resistance},
      {"convection_capacitance", p.convection_capacitance},
  };
  for (const auto& field : positives) {
    DS_REQUIRE(field.value > 0.0 && std::isfinite(field.value),
               "PackageParams::" << field.name << " = " << field.value
                                 << " must be positive and finite");
  }
  DS_REQUIRE(std::isfinite(p.ambient_c),
             "PackageParams::ambient_c = " << p.ambient_c);
}

/// Conductance of two stacked half-slabs of area `a`.
double VerticalG(double a, double t1, double k1, double t2, double k2) {
  return a / (t1 / (2.0 * k1) + t2 / (2.0 * k2));
}

/// Lateral conductance through a slab of thickness `t`, conductivity `k`,
/// shared edge `edge` and centre distance `dist`.
double LateralG(double t, double k, double edge, double dist) {
  return k * t * edge / dist;
}

}  // namespace

RcModel::RcModel(const Floorplan& fp, const PackageParams& pkg)
    : fp_(fp),
      pkg_(pkg),
      num_cores_(fp.num_cores()),
      num_nodes_(4 * fp.num_cores() + 12),
      diag_(num_nodes_, 0.0),
      cap_(num_nodes_, 0.0),
      amb_g_(num_nodes_, 0.0) {
  DS_REQUIRE(num_cores_ > 0, "RcModel: floorplan has no cores");
  ValidatePackage(pkg);
  Build();
  CheckInvariants();
}

void RcModel::AddConductance(std::size_t a, std::size_t b, double g) {
  DS_INVARIANT(a < num_nodes_ && b < num_nodes_ && a != b,
               "RcModel::AddConductance: nodes " << a << "," << b
                                                 << " of " << num_nodes_);
  DS_INVARIANT(g > 0.0 && std::isfinite(g),
               "RcModel::AddConductance: conductance " << g
                   << " W/K between nodes " << a << " and " << b);
  diag_[a] += g;
  diag_[b] += g;
  edges_.push_back({a, b, g});
}

void RcModel::AddAmbient(std::size_t a, double g) {
  DS_INVARIANT(a < num_nodes_,
               "RcModel::AddAmbient: node " << a << " of " << num_nodes_);
  DS_INVARIANT(g > 0.0 && std::isfinite(g),
               "RcModel::AddAmbient: conductance " << g << " W/K at node "
                                                   << a);
  diag_[a] += g;
  amb_g_[a] += g;
}

util::Matrix RcModel::conductance() const {
  util::Matrix g(num_nodes_, num_nodes_);
  for (const Edge& e : edges_) {
    g(e.a, e.b) -= e.g;
    g(e.b, e.a) -= e.g;
  }
  for (std::size_t i = 0; i < num_nodes_; ++i) g(i, i) = diag_[i];
  return g;
}

void RcModel::CheckInvariants() const {
  // G is symmetric with non-positive off-diagonals by construction:
  // each edge enters it as -g at (a, b) and (b, a), and AddConductance
  // admits only g > 0. What is left to check is that each diagonal
  // equals the sum of its edges plus its ambient conductance (weak
  // diagonal dominance, strict on rows touching the ambient) -- the
  // structure the LU solver and the TSP influence-matrix bounds rely
  // on. One O(nodes + edges) pass at construction.
  std::vector<double> off_sum(num_nodes_, 0.0);
  for (const Edge& e : edges_) {
    off_sum[e.a] += e.g;
    off_sum[e.b] += e.g;
  }
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    const double diag = diag_[i];
    DS_INVARIANT(diag > 0.0 && std::isfinite(diag),
                 "RcModel: diagonal " << diag << " at node " << i);
    DS_INVARIANT(std::abs(diag - (off_sum[i] + amb_g_[i])) <= 1e-9 * diag,
                 "RcModel: row " << i << " not diagonally dominant: diag "
                                 << diag << " vs off-diagonal " << off_sum[i]
                                 << " + ambient " << amb_g_[i]);
    DS_INVARIANT(cap_[i] > 0.0 && std::isfinite(cap_[i]),
                 "RcModel: capacitance " << cap_[i] << " at node " << i);
  }
}

void RcModel::Build() {
  const double w = fp_.core_width_mm() * kMmToM;   // tile width (x)
  const double h = fp_.core_height_mm() * kMmToM;  // tile height (y)
  const double die_w = fp_.die_width_mm() * kMmToM;
  const double die_h = fp_.die_height_mm() * kMmToM;
  const double spr = pkg_.spreader_side;
  const double snk = pkg_.sink_side;

  const double ox = (spr - die_w) / 2.0;  // spreader overhang, x (W/E)
  const double oy = (spr - die_h) / 2.0;  // spreader overhang, y (N/S)
  if (ox <= 0.0 || oy <= 0.0)
    throw std::invalid_argument("RcModel: die does not fit on the spreader");
  const double ox2 = (snk - spr) / 2.0;
  const double oy2 = (snk - spr) / 2.0;
  if (ox2 <= 0.0)
    throw std::invalid_argument("RcModel: spreader does not fit on the sink");

  const double tile_area = w * h;
  const std::size_t rows = fp_.rows();
  const std::size_t cols = fp_.cols();

  // --- Vertical stack per tile: die -> TIM -> spreader -> sink.
  for (std::size_t i = 0; i < num_cores_; ++i) {
    AddConductance(DieNode(i), TimNode(i),
                   VerticalG(tile_area, pkg_.die_thickness,
                             pkg_.die_conductivity, pkg_.tim_thickness,
                             pkg_.tim_conductivity));
    AddConductance(TimNode(i), SpreaderNode(i),
                   VerticalG(tile_area, pkg_.tim_thickness,
                             pkg_.tim_conductivity, pkg_.spreader_thickness,
                             pkg_.spreader_conductivity));
    AddConductance(SpreaderNode(i), SinkNode(i),
                   VerticalG(tile_area, pkg_.spreader_thickness,
                             pkg_.spreader_conductivity, pkg_.sink_thickness,
                             pkg_.sink_conductivity));
  }

  // --- Lateral conduction inside the gridded layers.
  struct LayerLateral {
    double thickness;
    double conductivity;
    std::size_t base;  // node index of core 0 in that layer
  };
  const LayerLateral laterals[] = {
      {pkg_.die_thickness, pkg_.die_conductivity, DieNode(0)},
      {pkg_.tim_thickness, pkg_.tim_conductivity, TimNode(0)},
      {pkg_.spreader_thickness, pkg_.spreader_conductivity, SpreaderNode(0)},
      {pkg_.sink_thickness, pkg_.sink_conductivity, SinkNode(0)},
  };
  for (const auto& layer : laterals) {
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t i = fp_.IndexOf(r, c);
        if (c + 1 < cols) {  // east neighbour
          AddConductance(layer.base + i, layer.base + fp_.IndexOf(r, c + 1),
                         LateralG(layer.thickness, layer.conductivity, h, w));
        }
        if (r + 1 < rows) {  // south neighbour
          AddConductance(layer.base + i, layer.base + fp_.IndexOf(r + 1, c),
                         LateralG(layer.thickness, layer.conductivity, w, h));
        }
      }
    }
  }

  // --- Border strips. Sides are 0=N (row 0), 1=S, 2=W (col 0), 3=E.
  // North/south strips span the parent's full width (absorbing corners);
  // west/east strips span only the die/spreader height, so the strip
  // areas exactly partition each overhang annulus.
  const double spr_strip_area[4] = {spr * oy, spr * oy, ox * die_h,
                                    ox * die_h};
  const double snk_outer_area[4] = {snk * oy2, snk * oy2, ox2 * spr,
                                    ox2 * spr};

  // Spreader grid edge cells <-> spreader border; sink grid edge cells
  // <-> sink inner border (same geometry, different layer constants).
  struct EdgeLayer {
    double thickness;
    double conductivity;
    std::size_t grid_base;
    std::size_t border_base;  // first of the 4 border nodes
  };
  const EdgeLayer edge_layers[] = {
      {pkg_.spreader_thickness, pkg_.spreader_conductivity, SpreaderNode(0),
       SpreaderBorderNode(0)},
      {pkg_.sink_thickness, pkg_.sink_conductivity, SinkNode(0),
       SinkInnerBorderNode(0)},
  };
  for (const auto& el : edge_layers) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double g_ns = LateralG(el.thickness, el.conductivity, w,
                                   h / 2.0 + oy / 2.0);
      AddConductance(el.grid_base + fp_.IndexOf(0, c), el.border_base + 0,
                     g_ns);  // north
      AddConductance(el.grid_base + fp_.IndexOf(rows - 1, c),
                     el.border_base + 1, g_ns);  // south
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const double g_we = LateralG(el.thickness, el.conductivity, h,
                                   w / 2.0 + ox / 2.0);
      AddConductance(el.grid_base + fp_.IndexOf(r, 0), el.border_base + 2,
                     g_we);  // west
      AddConductance(el.grid_base + fp_.IndexOf(r, cols - 1),
                     el.border_base + 3, g_we);  // east
    }
  }

  // Spreader border -> sink inner border (vertical, strip area).
  for (std::size_t s = 0; s < 4; ++s) {
    AddConductance(SpreaderBorderNode(s), SinkInnerBorderNode(s),
                   VerticalG(spr_strip_area[s], pkg_.spreader_thickness,
                             pkg_.spreader_conductivity, pkg_.sink_thickness,
                             pkg_.sink_conductivity));
  }

  // Sink inner border -> sink outer border (lateral).
  const double inner_edge[4] = {spr, spr, die_h, die_h};
  const double inner_halfwidth[4] = {oy / 2.0, oy / 2.0, ox / 2.0, ox / 2.0};
  for (std::size_t s = 0; s < 4; ++s) {
    const double dist = inner_halfwidth[s] + (s < 2 ? oy2 : ox2) / 2.0;
    AddConductance(SinkInnerBorderNode(s), SinkOuterBorderNode(s),
                   LateralG(pkg_.sink_thickness, pkg_.sink_conductivity,
                            inner_edge[s], dist));
  }

  // --- Convection to the ambient, distributed over the sink by area.
  const double sink_area = snk * snk;
  const double g_conv_total = 1.0 / pkg_.convection_resistance;
  auto conv_share = [&](double area) { return area / sink_area; };
  for (std::size_t i = 0; i < num_cores_; ++i)
    AddAmbient(SinkNode(i), conv_share(tile_area) * g_conv_total);
  for (std::size_t s = 0; s < 4; ++s) {
    AddAmbient(SinkInnerBorderNode(s),
               conv_share(spr_strip_area[s]) * g_conv_total);
    AddAmbient(SinkOuterBorderNode(s),
               conv_share(snk_outer_area[s]) * g_conv_total);
  }

  // --- Thermal capacitances (volume * volumetric specific heat), plus
  // the convection capacitance distributed like the convection R.
  for (std::size_t i = 0; i < num_cores_; ++i) {
    cap_[DieNode(i)] =
        tile_area * pkg_.die_thickness * pkg_.die_specific_heat;
    cap_[TimNode(i)] =
        tile_area * pkg_.tim_thickness * pkg_.tim_specific_heat;
    cap_[SpreaderNode(i)] = tile_area * pkg_.spreader_thickness *
                            pkg_.spreader_specific_heat;
    cap_[SinkNode(i)] =
        tile_area * pkg_.sink_thickness * pkg_.sink_specific_heat +
        conv_share(tile_area) * pkg_.convection_capacitance;
  }
  for (std::size_t s = 0; s < 4; ++s) {
    cap_[SpreaderBorderNode(s)] = spr_strip_area[s] *
                                  pkg_.spreader_thickness *
                                  pkg_.spreader_specific_heat;
    cap_[SinkInnerBorderNode(s)] =
        spr_strip_area[s] * pkg_.sink_thickness * pkg_.sink_specific_heat +
        conv_share(spr_strip_area[s]) * pkg_.convection_capacitance;
    cap_[SinkOuterBorderNode(s)] =
        snk_outer_area[s] * pkg_.sink_thickness * pkg_.sink_specific_heat +
        conv_share(snk_outer_area[s]) * pkg_.convection_capacitance;
  }
}

std::vector<double> RcModel::ExpandPower(
    std::span<const double> core_powers) const {
  DS_REQUIRE(core_powers.size() == num_cores_,
             "RcModel::ExpandPower: " << core_powers.size() << " powers for "
                                      << num_cores_ << " cores");
  std::vector<double> p(num_nodes_, 0.0);
  for (std::size_t i = 0; i < num_cores_; ++i) p[DieNode(i)] = core_powers[i];
  return p;
}

}  // namespace ds::thermal
