#include "runtime/result_sink.hpp"

#include <fstream>
#include <sstream>

#include "runtime/scenarios.hpp"
#include "telemetry/json.hpp"
#include "util/contracts.hpp"
#include "util/csv.hpp"

namespace ds::runtime {

namespace {

using telemetry::JsonEscape;
using telemetry::JsonNumber;

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

const char* StatusOf(const JobResult& result) {
  if (result.quarantined) return "quarantined";
  if (!result.ok) return "failed";
  return result.skipped ? "skipped" : "ok";
}

double Metric(const JobResult& result, std::string_view name) {
  for (const auto& [key, value] : result.metrics)
    if (key == name) return value;
  DS_REQUIRE(false, "JobResult " << result.index << ": no metric '" << name
                                 << "'");
}

ResultSink::ResultSink(const SweepSpec& spec,
                       const std::vector<SweepJob>& jobs)
    : header_("job,status"),
      metric_columns_(MetricColumns(spec.kind()).size()) {
  for (const std::string& column : spec.ParamColumns())
    header_ += "," + column;
  for (const std::string& column : MetricColumns(spec.kind()))
    header_ += "," + column;
  header_ += "\n";
  jobs_.reserve(jobs.size());
  for (const SweepJob& job : jobs) {
    DS_REQUIRE(job.index == jobs_.size(),
               "ResultSink: jobs must arrive in index order");
    jobs_.push_back(job.params);
  }
}

std::string ResultSink::CsvRowLine(const JobResult& r) const {
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
    DS_REQUIRE(r.metrics.size() == metric_columns_,
               "ResultSink: job " << r.index << " has " << r.metrics.size()
                                  << " metrics, header has "
                                  << metric_columns_);
    for (const auto& [key, value] : r.metrics) {
      (void)key;
      line += ",";
      line += JsonNumber(value);
    }
  } else {
    line.append(metric_columns_, ',');
  }
  line += "\n";
  return line;
}

void ResultSink::WriteCsv(std::ostream& os,
                          const std::vector<JobResult>& results) const {
  DS_REQUIRE(results.size() == jobs_.size(),
             "ResultSink: " << results.size() << " results for "
                            << jobs_.size() << " jobs");
  os << header_;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& r = results[i];
    DS_REQUIRE(r.index == i, "ResultSink: result " << r.index << " at row "
                                                   << i);
    os << CsvRowLine(r);
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
