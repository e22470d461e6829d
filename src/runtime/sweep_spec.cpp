#include "runtime/sweep_spec.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>

#include "core/mapping.hpp"
#include "telemetry/json.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ds::runtime {

namespace {

constexpr std::string_view kStringFields[] = {"node", "app", "constraint",
                                              "mapping"};
constexpr std::string_view kCountFields[] = {"cores", "threads", "instances",
                                             "count"};
constexpr std::string_view kDoubleFields[] = {
    "freq_ghz", "tdp_w",  "power_cap_w", "dark_pct",
    "tdtm_c",   "duration_s", "control_ms"};

bool Contains(std::span<const std::string_view> set, std::string_view v) {
  for (const std::string_view s : set)
    if (s == v) return true;
  return false;
}

double ParseNumber(const std::string& field, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  DS_REQUIRE(end != value.c_str() && *end == '\0' && std::isfinite(v),
             "SweepSpec: field '" << field << "' value '" << value
                                  << "' is not a finite number");
  return v;
}

std::size_t ParseCount(const std::string& field, const std::string& value) {
  const double v = ParseNumber(field, value);
  DS_REQUIRE(v >= 0.0 && v == std::floor(v) && v <= 1e9,
             "SweepSpec: field '" << field << "' value '" << value
                                  << "' is not a small non-negative integer");
  return static_cast<std::size_t>(v);
}

void ApplyField(SweepPoint* point, const std::string& field,
                const std::string& value) {
  if (field == "node") {
    point->node = value;
  } else if (field == "app") {
    point->app = value;
  } else if (field == "constraint") {
    DS_REQUIRE(value == "tdp" || value == "thermal",
               "SweepSpec: constraint '" << value << "' (tdp|thermal)");
    point->constraint = value;
  } else if (field == "mapping") {
    core::MappingPolicyByName(value);  // throws on an unknown name
    point->mapping = value;
  } else if (field == "cores") {
    point->cores = ParseCount(field, value);
  } else if (field == "threads") {
    point->threads = ParseCount(field, value);
    DS_REQUIRE(point->threads >= 1, "SweepSpec: threads must be >= 1");
  } else if (field == "instances") {
    point->instances = ParseCount(field, value);
    DS_REQUIRE(point->instances >= 1, "SweepSpec: instances must be >= 1");
  } else if (field == "count") {
    point->count = ParseCount(field, value);
    DS_REQUIRE(point->count >= 1, "SweepSpec: count must be >= 1");
  } else if (field == "freq_ghz") {
    point->freq_ghz = ParseNumber(field, value);
    DS_REQUIRE(point->freq_ghz >= 0.0, "SweepSpec: freq_ghz must be >= 0");
  } else if (field == "tdp_w") {
    point->tdp_w = ParseNumber(field, value);
    DS_REQUIRE(point->tdp_w > 0.0, "SweepSpec: tdp_w must be positive");
  } else if (field == "power_cap_w") {
    point->power_cap_w = ParseNumber(field, value);
    DS_REQUIRE(point->power_cap_w > 0.0,
               "SweepSpec: power_cap_w must be positive");
  } else if (field == "dark_pct") {
    point->dark_pct = ParseNumber(field, value);
    DS_REQUIRE(point->dark_pct >= 0.0 && point->dark_pct < 100.0,
               "SweepSpec: dark_pct " << point->dark_pct
                                      << " out of [0, 100)");
  } else if (field == "tdtm_c") {
    point->tdtm_c = ParseNumber(field, value);
    DS_REQUIRE(point->tdtm_c >= 0.0, "SweepSpec: tdtm_c must be >= 0");
  } else if (field == "duration_s") {
    point->duration_s = ParseNumber(field, value);
    DS_REQUIRE(point->duration_s > 0.0,
               "SweepSpec: duration_s must be positive");
  } else if (field == "control_ms") {
    point->control_ms = ParseNumber(field, value);
    DS_REQUIRE(point->control_ms > 0.0,
               "SweepSpec: control_ms must be positive");
  } else {
    DS_REQUIRE(false, "SweepSpec: unknown field '" << field << "'");
  }
}

void CheckKnownField(const std::string& field) {
  DS_REQUIRE(Contains(kStringFields, field) || Contains(kCountFields, field) ||
                 Contains(kDoubleFields, field),
             "SweepSpec: unknown field '" << field << "'");
}

std::string JsonScalarToString(const telemetry::JsonValue& v,
                               const std::string& where) {
  if (v.is_string()) return v.str;
  DS_REQUIRE(v.is_number(),
             "SweepSpec: " << where << " must be a string or number");
  return CanonicalNumber(v.number);
}

std::uint64_t Fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

const char* SweepKindName(SweepKind kind) {
  switch (kind) {
    case SweepKind::kEstimate: return "estimate";
    case SweepKind::kTspCurve: return "tsp_curve";
    case SweepKind::kTspPerf: return "tsp_perf";
    case SweepKind::kBoost: return "boost";
    case SweepKind::kCharacterize: return "characterize";
    case SweepKind::kSpeedup: return "speedup";
    case SweepKind::kBoostTransient: return "boost_transient";
  }
  DS_REQUIRE(false, "SweepKindName: invalid kind");
}

SweepKind SweepKindByName(std::string_view name) {
  if (name == "estimate") return SweepKind::kEstimate;
  if (name == "tsp_curve") return SweepKind::kTspCurve;
  if (name == "tsp_perf") return SweepKind::kTspPerf;
  if (name == "boost") return SweepKind::kBoost;
  if (name == "characterize") return SweepKind::kCharacterize;
  if (name == "speedup") return SweepKind::kSpeedup;
  if (name == "boost_transient") return SweepKind::kBoostTransient;
  DS_REQUIRE(false, "SweepSpec: unknown kind '" << name << "'");
}

std::string CanonicalNumber(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t index) {
  return util::SplitMix64(seed + 0x9E3779B97F4A7C15ULL * index);
}

SweepSpec::SweepSpec(std::string name, SweepKind kind)
    : name_(std::move(name)), kind_(kind) {
  DS_REQUIRE(!name_.empty(), "SweepSpec: name must not be empty");
}

SweepSpec SweepSpec::FromJsonText(std::string_view text) {
  const telemetry::JsonValue doc = telemetry::ParseJson(text);
  DS_REQUIRE(doc.is_object(), "SweepSpec: top level must be an object");

  const telemetry::JsonValue* kind = doc.Find("kind");
  DS_REQUIRE(kind != nullptr && kind->is_string(),
             "SweepSpec: required string field 'kind' missing");
  const telemetry::JsonValue* name = doc.Find("name");
  SweepSpec spec(
      name != nullptr && name->is_string() ? name->str : "sweep",
      SweepKindByName(kind->str));

  if (const telemetry::JsonValue* seed = doc.Find("seed")) {
    DS_REQUIRE(seed->is_number() && seed->number >= 0.0,
               "SweepSpec: 'seed' must be a non-negative number");
    spec.seed_ = static_cast<std::uint64_t>(seed->number);
  }

  if (const telemetry::JsonValue* base = doc.Find("base")) {
    DS_REQUIRE(base->is_object(), "SweepSpec: 'base' must be an object");
    for (const auto& [field, value] : base->object)
      spec.Set(field, JsonScalarToString(value, "base." + field));
  }

  const telemetry::JsonValue* axes = doc.Find("axes");
  const telemetry::JsonValue* points = doc.Find("points");
  DS_REQUIRE((axes != nullptr) != (points != nullptr),
             "SweepSpec: exactly one of 'axes'/'points' is required");
  if (axes != nullptr) {
    DS_REQUIRE(axes->is_object(), "SweepSpec: 'axes' must be an object");
    for (const auto& [field, values] : axes->object) {
      DS_REQUIRE(values.is_array(),
                 "SweepSpec: axis '" << field << "' must be an array");
      // ds_lint: allow(alloc-in-loop) -- one-shot spec parse, not stepping
      std::vector<std::string> vals;
      vals.reserve(values.array.size());
      for (const telemetry::JsonValue& v : values.array)
        vals.push_back(JsonScalarToString(v, "axes." + field));
      spec.Axis(field, std::move(vals));
    }
  } else {
    DS_REQUIRE(points->is_array(), "SweepSpec: 'points' must be an array");
    for (const telemetry::JsonValue& p : points->array) {
      DS_REQUIRE(p.is_object(), "SweepSpec: each point must be an object");
      // ds_lint: allow(alloc-in-loop) -- one-shot spec parse, not stepping
      std::vector<std::pair<std::string, std::string>> fields;
      fields.reserve(p.object.size());
      for (const auto& [field, value] : p.object)
        fields.emplace_back(field,
                            JsonScalarToString(value, "points." + field));
      spec.Point(std::move(fields));
    }
  }

  for (const auto& [key, value] : doc.object) {
    (void)value;
    DS_REQUIRE(key == "kind" || key == "name" || key == "seed" ||
                   key == "base" || key == "axes" || key == "points",
               "SweepSpec: unknown top-level key '" << key << "'");
  }
  return spec;
}

SweepSpec SweepSpec::FromJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DS_REQUIRE(in.good(), "SweepSpec: cannot read spec file '" << path << "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromJsonText(buf.str());
}

SweepSpec& SweepSpec::Set(const std::string& field, const std::string& value) {
  CheckKnownField(field);
  SweepPoint probe;  // validate eagerly at the boundary
  ApplyField(&probe, field, value);
  base_.emplace_back(field, value);
  return *this;
}

SweepSpec& SweepSpec::Set(const std::string& field, double value) {
  return Set(field, CanonicalNumber(value));
}

SweepSpec& SweepSpec::Axis(const std::string& field,
                           std::vector<std::string> values) {
  CheckKnownField(field);
  DS_REQUIRE(!values.empty(),
             "SweepSpec: axis '" << field << "' must not be empty");
  for (const std::string& v : values) {
    SweepPoint probe;
    ApplyField(&probe, field, v);
  }
  for (const AxisDef& axis : axes_)
    DS_REQUIRE(axis.field != field,
               "SweepSpec: duplicate axis '" << field << "'");
  axes_.push_back(AxisDef{field, std::move(values)});
  return *this;
}

SweepSpec& SweepSpec::Axis(const std::string& field,
                           std::vector<double> values) {
  std::vector<std::string> vals;
  vals.reserve(values.size());
  for (const double v : values) vals.push_back(CanonicalNumber(v));
  return Axis(field, std::move(vals));
}

SweepSpec& SweepSpec::Point(
    std::vector<std::pair<std::string, std::string>> fields) {
  for (const auto& [field, value] : fields) {
    CheckKnownField(field);
    SweepPoint probe;
    ApplyField(&probe, field, value);
  }
  points_.push_back(std::move(fields));
  return *this;
}

std::vector<std::string> SweepSpec::ParamColumns() const {
  std::vector<std::string> cols;
  if (!axes_.empty()) {
    cols.reserve(axes_.size());
    for (const AxisDef& axis : axes_) cols.push_back(axis.field);
  } else if (!points_.empty()) {
    for (const auto& [field, value] : points_.front()) {
      (void)value;
      cols.push_back(field);
    }
  }
  return cols;
}

std::vector<SweepJob> SweepSpec::Jobs() const {
  DS_REQUIRE(axes_.empty() != points_.empty(),
             "SweepSpec '" << name_
                           << "': exactly one of axes/points is required");
  SweepPoint base;
  for (const auto& [field, value] : base_) ApplyField(&base, field, value);

  std::vector<SweepJob> jobs;
  if (!axes_.empty()) {
    std::size_t total = 1;
    for (const AxisDef& axis : axes_) {
      DS_REQUIRE(total <= 1000000 / axis.values.size() + 1,
                 "SweepSpec '" << name_ << "': grid larger than 1e6 jobs");
      total *= axis.values.size();
    }
    jobs.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
      SweepJob job;
      job.index = index;
      job.point = base;
      // First axis outermost: decompose the index right-to-left.
      std::size_t rest = index;
      // ds_lint: allow(alloc-in-loop) -- one-shot grid expansion
      std::vector<std::size_t> pick(axes_.size(), 0);
      for (std::size_t a = axes_.size(); a-- > 0;) {
        pick[a] = rest % axes_[a].values.size();
        rest /= axes_[a].values.size();
      }
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        const std::string& value = axes_[a].values[pick[a]];
        ApplyField(&job.point, axes_[a].field, value);
        job.params.emplace_back(axes_[a].field, value);
      }
      job.rng_seed = MixSeed(seed_, index);
      jobs.push_back(std::move(job));
    }
  } else {
    jobs.reserve(points_.size());
    for (std::size_t index = 0; index < points_.size(); ++index) {
      SweepJob job;
      job.index = index;
      job.point = base;
      for (const auto& [field, value] : points_[index]) {
        ApplyField(&job.point, field, value);
        job.params.emplace_back(field, value);
      }
      job.rng_seed = MixSeed(seed_, index);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::string SweepSpec::Fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, SweepKindName(kind_));
  h = Fnv1a(h, name_);
  h = Fnv1a(h, CanonicalNumber(static_cast<double>(seed_)));
  for (const SweepJob& job : Jobs()) {
    h = Fnv1a(h, "|job");
    for (const auto& [field, value] : job.params) {
      h = Fnv1a(h, field);
      h = Fnv1a(h, "=");
      h = Fnv1a(h, value);
    }
  }
  for (const auto& [field, value] : base_) {
    h = Fnv1a(h, "|base");
    h = Fnv1a(h, field);
    h = Fnv1a(h, "=");
    h = Fnv1a(h, value);
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace ds::runtime
