// In-memory spans around the benchmark's calls into the program's
// layers, plus the small statistics helpers the workloads share.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "bench.hpp"

namespace pb {

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::mutex g_mu;
std::vector<Tracer::Span> g_spans;  // guarded by g_mu
std::uint64_t g_next_id = 1;        // guarded by g_mu
const Clock::time_point g_epoch = Clock::now();

thread_local std::vector<std::uint64_t> t_stack;  // open span ids
thread_local std::uint32_t t_tid = 0;

std::uint32_t ThreadIndex() {
  static std::uint32_t next = 1;  // guarded by g_mu
  if (t_tid == 0) t_tid = next++;
  return t_tid;
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch)
      .count();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::Begin(const char* name, const char* layer, std::int64_t req) {
  const std::int64_t now = NowNs();
  const std::lock_guard<std::mutex> lock(g_mu);
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = now;
  s.id = g_next_id++;
  s.parent = t_stack.empty() ? 0 : t_stack.back();
  s.req = req;
  s.tid = ThreadIndex();
  t_stack.push_back(s.id);
  g_spans.push_back(std::move(s));
  return g_spans.back().id;
}

void Tracer::End(std::uint64_t id) {
  const std::int64_t now = NowNs();
  const std::lock_guard<std::mutex> lock(g_mu);
  // Spans close in LIFO order on their thread; search from the back.
  for (auto it = g_spans.rbegin(); it != g_spans.rend(); ++it)
    if (it->id == id) {
      it->end_ns = now;
      break;
    }
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

std::vector<Tracer::Span> Tracer::Spans() const {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  const std::vector<Span> spans = Spans();
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const std::int64_t self =
        (s.end_ns - s.start_ns) - (it == child_ns.end() ? 0 : it->second);
    out[s.layer] += 1e-6 * static_cast<double>(self);
  }
  return out;
}

bool Tracer::CheckNesting(std::string* why) const {
  const std::vector<Span> spans = Spans();
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) {
      *why = "span " + s.name + " ends before it starts";
      return false;
    }
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      *why = "span " + s.name + " has an unknown parent";
      return false;
    }
    const Span& p = *it->second;
    if (p.tid != s.tid || s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      *why = "span " + s.name + " is not enclosed by its parent " + p.name;
      return false;
    }
    if (p.req >= 0 && s.req != p.req) {
      *why = "span " + s.name + " carries request " + std::to_string(s.req) +
             ", its parent " + std::to_string(p.req);
      return false;
    }
  }
  return true;
}

std::string Tracer::ChromeJson() const {
  const std::vector<Span> spans = Spans();
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  ", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"id\": %llu, \"parent\": %llu, "
                  "\"req\": %lld}}",
                  1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.req));
    out += "{\"name\": " + JsonString(s.name) + ", \"cat\": " +
           JsonString(s.layer) + buf + (i + 1 < spans.size() ? ",\n" : "\n");
  }
  return out + "]}\n";
}

ScopedSpan::ScopedSpan(const char* name, const char* layer, std::int64_t req)
    : start_(Clock::now()) {
  if (Tracer::Get().enabled()) id_ = Tracer::Get().Begin(name, layer, req);
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) Tracer::Get().End(id_);
}

}  // namespace pb
