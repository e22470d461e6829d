// Correctness gate: every row the benchmark's runs produce is checked
// against reference rows generated from the program at the commit that
// defined the benchmark (`perfbench --write-reference`).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace pb {

namespace {

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> out;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, ',')) out.push_back(cell);
  return out;
}

std::string Exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Reference Reference::Load(const std::string& path, double perturb) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("reference file missing: " + path);
  Reference ref;
  ref.perturb_ = perturb;
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty reference: " + path);
  const std::vector<std::string> header = SplitCsv(line);
  if (header.size() < 2 || header[0] != "key" || header[1] != "status")
    throw std::runtime_error("bad reference header: " + path);
  ref.columns_.assign(header.begin() + 2, header.end());
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = SplitCsv(line);
    if (cells.size() != header.size() && cells.size() != 2)
      throw std::runtime_error("bad reference row in " + path + ": " + line);
    Row row;
    row.status = cells[1];
    for (std::size_t i = 2; i < cells.size(); ++i)
      row.values.push_back(std::stod(cells[i]));
    ref.rows_[cells[0]] = std::move(row);
  }
  return ref;
}

bool Reference::Check(const std::string& key, std::string_view status,
                      const std::vector<std::pair<std::string, double>>& metrics,
                      std::string* why) {
  const auto it = rows_.find(key);
  if (it == rows_.end()) {
    *why = "no reference row for " + key;
    return false;
  }
  Row& row = it->second;
  if (perturb_ != 0.0) {
    // Self-test: perturb one value of magnitude >= 0.01 in the first
    // row this run checks.
    for (double& v : row.values)
      if (std::fabs(v) >= 0.01) {
        v *= 1.0 + perturb_;
        break;
      }
    perturb_ = 0.0;
  }
  if (status != row.status) {
    *why = key + ": status " + std::string(status) + ", reference " + row.status;
    return false;
  }
  if (metrics.size() != row.values.size()) {
    *why = key + ": " + std::to_string(metrics.size()) + " metrics, reference " +
           std::to_string(row.values.size());
    return false;
  }
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double a = metrics[i].second;
    const double r = row.values[i];
    if (metrics[i].first != columns_[i]) {
      *why = key + ": metric " + metrics[i].first + ", reference " + columns_[i];
      return false;
    }
    if (!(std::fabs(a - r) <= kRelTol * std::max(std::fabs(a), std::fabs(r)) + kAbsTol)) {
      *why = key + ": " + columns_[i] + " = " + Exact(a) + ", reference " + Exact(r);
      return false;
    }
  }
  return true;
}

void Reference::Write(
    const std::string& path, const std::vector<std::string>& columns,
    const std::vector<std::pair<std::string,
                                std::pair<std::string, std::vector<double>>>>&
        rows) {
  std::ofstream out(path, std::ios::trunc);
  out << "key,status";
  for (const std::string& c : columns) out << ',' << c;
  out << '\n';
  for (const auto& [key, row] : rows) {
    out << key << ',' << row.first;
    for (const double v : row.second) out << ',' << Exact(v);
    out << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

std::string JobKey(const ds::runtime::SweepJob& job) {
  std::string key;
  for (const auto& [field, value] : job.params) {
    if (!key.empty()) key += ';';
    key += field + "=" + value;
  }
  return key;
}

std::string ChipKey(const ChipRun& run) {
  return "node=" + run.node + ";arrival_seed=" + std::to_string(run.arrival_seed);
}

}  // namespace pb
