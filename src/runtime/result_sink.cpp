#include "runtime/result_sink.hpp"

#include <fstream>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"

namespace ds::runtime {

namespace {

using telemetry::JsonEscape;
using telemetry::JsonNumber;

const char* StatusOf(const JobResult& r) {
  if (r.quarantined) return "quarantined";
  if (!r.ok) return "failed";
  return r.skipped ? "skipped" : "ok";
}

/// Flushes `os` and raises SinkWriteError if the stream has gone bad.
void CheckStream(std::ostream& os, std::size_t rows_written,
                 const char* what) {
  os.flush();
  if (os.good()) return;
  std::ostringstream msg;
  msg << "ResultSink: " << what << " stream failed after " << rows_written
      << " rows";
  throw SinkWriteError(msg.str(), rows_written);
}

}  // namespace

double Metric(const JobResult& result, std::string_view name) {
  for (const auto& [key, value] : result.metrics)
    if (key == name) return value;
  DS_REQUIRE(false, "JobResult " << result.index << ": no metric '" << name
                                 << "'");
}

ResultSink::ResultSink(const SweepSpec& spec,
                       const std::vector<SweepJob>& jobs)
    : param_columns_(spec.ParamColumns()) {
  jobs_.reserve(jobs.size());
  for (const SweepJob& job : jobs) {
    DS_REQUIRE(job.index == jobs_.size(),
               "ResultSink: jobs must arrive in index order");
    jobs_.push_back(job.params);
  }
}

std::vector<std::string> ResultSink::Header(
    const std::vector<JobResult>& results) const {
  std::vector<std::string> header{"job", "status"};
  header.insert(header.end(), param_columns_.begin(), param_columns_.end());
  for (const JobResult& r : results) {
    if (!r.ok || r.skipped) continue;
    for (const auto& [key, value] : r.metrics) {
      (void)value;
      header.push_back(key);
    }
    break;
  }
  return header;
}

std::string ResultSink::CsvHeaderLine(const JobResult* first_ok) const {
  std::string line = "job,status";
  for (const std::string& col : param_columns_) {
    line += ",";
    line += col;
  }
  if (first_ok != nullptr) {
    for (const auto& [key, value] : first_ok->metrics) {
      (void)value;
      line += ",";
      line += key;
    }
  }
  line += "\n";
  return line;
}

std::size_t ResultSink::MetricColumns(const JobResult* first_ok) {
  return first_ok != nullptr ? first_ok->metrics.size() : 0;
}

std::string ResultSink::CsvRowLine(const JobResult& r,
                                   std::size_t metric_cols) const {
  DS_REQUIRE(r.index < jobs_.size(),
             "ResultSink: row " << r.index << " of " << jobs_.size()
                                << " jobs");
  std::string line = std::to_string(r.index);
  line += ",";
  line += StatusOf(r);
  for (const auto& [field, value] : jobs_[r.index]) {
    (void)field;
    line += ",";
    line += value;
  }
  if (r.ok && !r.skipped) {
    DS_REQUIRE(r.metrics.size() == metric_cols,
               "ResultSink: job " << r.index << " has " << r.metrics.size()
                                  << " metrics, header has " << metric_cols);
    for (const auto& [key, value] : r.metrics) {
      (void)key;
      line += ",";
      line += JsonNumber(value);
    }
  } else {
    line.append(metric_cols, ',');
  }
  line += "\n";
  return line;
}

void ResultSink::WriteCsv(std::ostream& os,
                          const std::vector<JobResult>& results) const {
  DS_REQUIRE(results.size() == jobs_.size(),
             "ResultSink: " << results.size() << " results for "
                            << jobs_.size() << " jobs");
  const JobResult* first_ok = nullptr;
  for (const JobResult& r : results) {
    if (!r.ok || r.skipped) continue;
    first_ok = &r;
    break;
  }
  os << CsvHeaderLine(first_ok);
  const std::size_t metric_cols = MetricColumns(first_ok);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    DS_REQUIRE(r.index == i, "ResultSink: result " << r.index << " at row "
                                                   << i);
    os << CsvRowLine(r, metric_cols);
    if ((i + 1) % kFlushEveryRows == 0) CheckStream(os, i + 1, "CSV");
  }
  CheckStream(os, results.size(), "CSV");
}

void ResultSink::WriteCsv(const std::string& path,
                          const std::vector<JobResult>& results) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good())
    throw SinkWriteError("ResultSink: cannot open '" + path + "'", 0);
  try {
    WriteCsv(out, results);
  } catch (const SinkWriteError& e) {
    throw SinkWriteError(std::string(e.what()) + " (path '" + path + "')",
                         e.rows_written());
  }
}

void ResultSink::WriteJsonRows(std::ostream& os,
                               const std::vector<JobResult>& results) const {
  DS_REQUIRE(results.size() == jobs_.size(),
             "ResultSink: " << results.size() << " results for "
                            << jobs_.size() << " jobs");
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    os << "  {\"job\": " << i << ", \"status\": \"" << StatusOf(r) << "\"";
    for (const auto& [field, value] : jobs_[i])
      os << ", \"" << JsonEscape(field) << "\": \"" << JsonEscape(value)
         << "\"";
    if (r.ok && !r.skipped) {
      for (const auto& [key, value] : r.metrics)
        os << ", \"" << JsonEscape(key) << "\": " << JsonNumber(value);
    }
    if (!r.ok)
      os << ", \"error\": \"" << JsonEscape(r.error) << "\"";
    os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    if ((i + 1) % kFlushEveryRows == 0) CheckStream(os, i + 1, "JSON");
  }
  os << "]\n";
  CheckStream(os, results.size(), "JSON");
}

void ResultSink::WriteJsonRows(const std::string& path,
                               const std::vector<JobResult>& results) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good())
    throw SinkWriteError("ResultSink: cannot open '" + path + "'", 0);
  try {
    WriteJsonRows(out, results);
  } catch (const SinkWriteError& e) {
    throw SinkWriteError(std::string(e.what()) + " (path '" + path + "')",
                         e.rows_written());
  }
}

}  // namespace ds::runtime
