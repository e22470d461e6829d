#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ds::telemetry {
namespace {

// Lock-free running min/max on an atomic<double> via CAS.
void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

// Maps a dotted registry name ("sweep.jobs.completed") onto the
// OpenMetrics charset and namespaces it under ds_.
std::string OpenMetricsName(const std::string& name) {
  std::string out = "ds_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// HELP text escaping per the OpenMetrics ABNF: backslash and newline.
std::string OpenMetricsHelp(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

void AppendSampleValue(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

}  // namespace

void SetEnabled(bool on) {
  internal::EnabledFlag().store(on, std::memory_order_relaxed);
}

void Gauge::UpdateMax(double v) { AtomicMax(value_, v); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    if (!(bounds_[i] > bounds_[i - 1]))
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void Histogram::Record(double v) {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx =
      static_cast<std::size_t>(it - bounds_.begin());  // overflow = size()
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMin(min_, v);
  AtomicMax(max_, v);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative +=
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (cumulative >= target)
      return i < bounds_.size() ? bounds_[i] : max();
  }
  return max();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> TimeBucketBoundsUs() {
  // 1-2-5 series from 1 us to 10 s.
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 1e6; decade *= 10.0)
    for (const double m : {1.0, 2.0, 5.0}) bounds.push_back(m * decade);
  bounds.push_back(1e7);
  return bounds;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  const ds::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  const ds::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  const ds::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::vector<MetricRow> MetricsRegistry::Snapshot() const {
  const ds::MutexLock lock(mu_);
  std::vector<MetricRow> rows;
  for (const auto& [name, c] : counters_)
    rows.push_back({name, "counter", "value",
                    static_cast<double>(c->value())});
  for (const auto& [name, g] : gauges_)
    rows.push_back({name, "gauge", "value", g->value()});
  for (const auto& [name, h] : histograms_) {
    rows.push_back({name, "histogram", "count",
                    static_cast<double>(h->count())});
    rows.push_back({name, "histogram", "sum", h->sum()});
    rows.push_back({name, "histogram", "mean", h->mean()});
    rows.push_back({name, "histogram", "min", h->min()});
    rows.push_back({name, "histogram", "max", h->max()});
    rows.push_back({name, "histogram", "p50", h->Quantile(0.50)});
    rows.push_back({name, "histogram", "p95", h->Quantile(0.95)});
    rows.push_back({name, "histogram", "p99", h->Quantile(0.99)});
  }
  return rows;
}

void MetricsRegistry::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("MetricsRegistry::WriteCsv: cannot open " +
                             path);
  out << "name,kind,field,value\n";
  out.precision(17);
  for (const MetricRow& row : Snapshot())
    out << row.name << ',' << row.kind << ',' << row.field << ','
        << row.value << '\n';
  out.flush();
  if (!out)
    throw std::runtime_error("MetricsRegistry::WriteCsv: write failed for " +
                             path);
}

void MetricsRegistry::PrintNonZero(std::ostream& os) const {
  for (const MetricRow& row : Snapshot()) {
    // Exact zero means "never touched": the filter is intentional.
    if (row.value == 0.0) continue;  // ds_lint: allow(float-equals)
    os << "  " << row.name << "." << row.field << " = " << row.value
       << "\n";
  }
}

void MetricsRegistry::DumpOpenMetrics(std::ostream& os) const {
  const ds::MutexLock lock(mu_);
  for (const auto& [name, c] : counters_) {
    const std::string om = OpenMetricsName(name);
    os << "# TYPE " << om << " counter\n";
    os << "# HELP " << om << " source metric '" << OpenMetricsHelp(name)
       << "'\n";
    os << om << "_total ";
    AppendSampleValue(os, static_cast<double>(c->value()));
    os << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string om = OpenMetricsName(name);
    os << "# TYPE " << om << " gauge\n";
    os << "# HELP " << om << " source metric '" << OpenMetricsHelp(name)
       << "'\n";
    os << om << " ";
    AppendSampleValue(os, g->value());
    os << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string om = OpenMetricsName(name);
    os << "# TYPE " << om << " histogram\n";
    os << "# HELP " << om << " source metric '" << OpenMetricsHelp(name)
       << "'\n";
    const std::vector<double>& bounds = h->bounds();
    const std::vector<std::uint64_t> buckets = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += buckets[i];
      os << om << "_bucket{le=\"";
      AppendSampleValue(os, bounds[i]);
      os << "\"} " << cumulative << "\n";
    }
    cumulative += buckets[bounds.size()];  // overflow bucket
    os << om << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << om << "_sum ";
    AppendSampleValue(os, h->sum());
    os << "\n";
    // Derived from the same bucket read as +Inf so a concurrent
    // Record() can never make the exposition internally inconsistent.
    os << om << "_count " << cumulative << "\n";
  }
  os << "# EOF\n";
}

void MetricsRegistry::ResetValues() {
  const ds::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

bool ValidateOpenMetrics(const std::string& text, std::string* error) {
  auto fail = [&](std::size_t line_no, const std::string& why) {
    if (error != nullptr)
      *error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  };
  auto valid_name = [](const std::string& s) {
    if (s.empty()) return false;
    for (const char c : s) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) return false;
    }
    return !(s[0] >= '0' && s[0] <= '9');
  };

  std::string family;       // current # TYPE family name
  std::string family_type;  // "counter" | "gauge" | "histogram"
  bool saw_eof = false;
  bool family_sampled = false;
  std::uint64_t prev_bucket = 0;
  bool have_inf_bucket = false;
  double inf_bucket = 0.0;
  bool have_count = false;
  double count_value = 0.0;

  auto close_family = [&](std::size_t line_no) {
    if (!family.empty() && !family_sampled)
      return fail(line_no, "family '" + family + "' declared but has no samples");
    if (family_type == "histogram") {
      if (!have_inf_bucket)
        return fail(line_no, "histogram '" + family + "' missing +Inf bucket");
      if (!have_count)
        return fail(line_no, "histogram '" + family + "' missing _count");
      if (inf_bucket != count_value)
        return fail(line_no, "histogram '" + family +
                                 "' +Inf bucket != _count");
    }
    return true;
  };

  std::size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (saw_eof) return fail(line_no, "content after # EOF");
    if (line.empty()) return fail(line_no, "empty line");
    if (line == "# EOF") {
      if (!close_family(line_no)) return false;
      saw_eof = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos)
        return fail(line_no, "malformed # TYPE line");
      const std::string name = rest.substr(0, sp);
      const std::string type = rest.substr(sp + 1);
      if (!valid_name(name))
        return fail(line_no, "invalid metric name '" + name + "'");
      if (type != "counter" && type != "gauge" && type != "histogram")
        return fail(line_no, "unsupported metric type '" + type + "'");
      if (!close_family(line_no)) return false;
      family = name;
      family_type = type;
      family_sampled = false;
      prev_bucket = 0;
      have_inf_bucket = false;
      have_count = false;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line[0] == '#') return fail(line_no, "unknown comment directive");

    // Sample line: name[{labels}] value
    std::size_t name_end = line.find_first_of(" {");
    if (name_end == std::string::npos)
      return fail(line_no, "malformed sample line");
    const std::string name = line.substr(0, name_end);
    if (!valid_name(name))
      return fail(line_no, "invalid sample name '" + name + "'");
    std::string labels;
    std::size_t value_begin = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos)
        return fail(line_no, "unterminated label set");
      labels = line.substr(name_end + 1, close - name_end - 1);
      value_begin = close + 1;
    }
    if (value_begin >= line.size() || line[value_begin] != ' ')
      return fail(line_no, "missing sample value");
    const std::string value_text = line.substr(value_begin + 1);
    double value = 0.0;
    try {
      std::size_t used = 0;
      value = std::stod(value_text, &used);
      if (used != value_text.size()) throw std::invalid_argument("trail");
    } catch (const std::exception&) {
      return fail(line_no, "non-numeric sample value '" + value_text + "'");
    }
    if (family.empty())
      return fail(line_no, "sample before any # TYPE declaration");
    if (name.rfind(family, 0) != 0)
      return fail(line_no, "sample '" + name + "' outside family '" +
                               family + "'");
    const std::string suffix = name.substr(family.size());
    if (family_type == "counter") {
      if (suffix != "_total")
        return fail(line_no, "counter sample must be '" + family +
                                 "_total', got '" + name + "'");
      if (value < 0.0) return fail(line_no, "negative counter value");
    } else if (family_type == "gauge") {
      if (!suffix.empty())
        return fail(line_no, "gauge sample must be exactly '" + family +
                                 "', got '" + name + "'");
    } else {  // histogram
      if (suffix == "_bucket") {
        if (labels.rfind("le=\"", 0) != 0 || labels.back() != '"')
          return fail(line_no, "histogram bucket without le label");
        const auto bucket = static_cast<std::uint64_t>(value);
        if (family_sampled && bucket < prev_bucket)
          return fail(line_no, "histogram buckets not cumulative");
        prev_bucket = bucket;
        if (labels == "le=\"+Inf\"") {
          have_inf_bucket = true;
          inf_bucket = value;
        }
      } else if (suffix == "_sum") {
        // any finite value
      } else if (suffix == "_count") {
        have_count = true;
        count_value = value;
      } else {
        return fail(line_no, "unknown histogram sample '" + name + "'");
      }
    }
    family_sampled = true;
  }
  if (!saw_eof) return fail(line_no, "missing terminal # EOF line");
  return true;
}

MetricsRegistry& Registry() {
  // Intentional leak: function-local singleton must outlive all static
  // destructors that may still record metrics during shutdown. The
  // registry synchronizes internally (counters are atomics).
  // ds_lint: allow(static-mutable)
  static MetricsRegistry* registry =
      new MetricsRegistry();  // ds_lint: allow(naked-new)
  return *registry;
}

}  // namespace ds::telemetry
