#include "runtime/journal.hpp"

#include <unistd.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "telemetry/event_bus.hpp"
#include "telemetry/json.hpp"
#include "util/contracts.hpp"

namespace ds::runtime {

namespace {

using telemetry::JsonEscape;
using telemetry::JsonNumber;

/// Byte-at-a-time CRC32 table (IEEE polynomial, reflected), built once.
const std::array<std::uint32_t, 256>& CrcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  return table;
}

bool IsHex(char c) {
  return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::uint32_t Crc32(const std::string& data) {
  const auto& table = CrcTable();
  std::uint32_t crc = 0xffffffffu;
  for (const char ch : data)
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

std::string FrameJournalRecord(const std::string& payload) {
  char head[24];
  std::snprintf(head, sizeof(head), "%zu %08x ", payload.size(),
                Crc32(payload));
  return head + payload;
}

std::string JournalHeaderLine(const SweepSpec& spec) {
  std::ostringstream os;
  os << "{\"sweep\": \"" << JsonEscape(spec.name()) << "\", \"version\": 2, "
     << "\"fingerprint\": \"" << spec.Fingerprint() << "\"}";
  return os.str();
}

std::string JournalLine(const JobResult& result) {
  std::ostringstream os;
  os << "{\"job\": " << result.index << ", \"ok\": "
     << (result.ok ? "true" : "false")
     << ", \"skipped\": " << (result.skipped ? "true" : "false")
     << ", \"attempts\": " << result.attempts;
  if (result.timed_out) os << ", \"timed_out\": true";
  if (result.quarantined) os << ", \"quarantined\": true";
  if (!result.ok) os << ", \"error\": \"" << JsonEscape(result.error) << "\"";
  os << ", \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : result.metrics) {
    os << (first ? "" : ", ") << "\"" << JsonEscape(key)
       << "\": " << JsonNumber(value);
    first = false;
  }
  os << "}}";
  return os.str();
}

JournalSync JournalSyncByName(const std::string& name) {
  if (name == "none") return JournalSync::kNone;
  if (name == "batch") return JournalSync::kBatch;
  if (name == "always") return JournalSync::kAlways;
  throw std::invalid_argument("unknown journal sync policy '" + name +
                              "' (none | batch | always)");
}

JournalWriter::~JournalWriter() { Close(); }

void JournalWriter::Open(const std::string& path, bool fresh,
                         JournalSync sync) {
  DS_REQUIRE(file_ == nullptr, "JournalWriter: already open");
  file_ = std::fopen(path.c_str(), fresh ? "wb" : "ab");
  DS_REQUIRE(file_ != nullptr,
             "JournalWriter: cannot open checkpoint '" << path << "'");
  path_ = path;
  sync_ = sync;
  unsynced_records_ = 0;
}

void JournalWriter::Append(const std::string& payload) {
  DS_REQUIRE(file_ != nullptr, "JournalWriter: append on closed journal");
  const std::string framed = FrameJournalRecord(payload) + "\n";
  const std::size_t wrote =
      std::fwrite(framed.data(), 1, framed.size(), file_);
  DS_REQUIRE(wrote == framed.size(),
             "JournalWriter: short write to '" << path_ << "'");
  ++unsynced_records_;
  switch (sync_) {
    case JournalSync::kAlways:
      Flush(/*force_sync=*/true);
      break;
    case JournalSync::kBatch:
      if (unsynced_records_ >= kSyncBatchRecords)
        Flush(/*force_sync=*/true);
      else
        Flush(/*force_sync=*/false);  // visible to same-process readers
      break;
    case JournalSync::kNone:
      Flush(/*force_sync=*/false);
      break;
  }
}

void JournalWriter::Flush(bool force_sync) {
  DS_REQUIRE(std::fflush(file_) == 0,
             "JournalWriter: flush to '" << path_ << "' failed");
  if (force_sync) {
    ::fsync(::fileno(file_));
    unsynced_records_ = 0;
  }
}

void JournalWriter::Close() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  if (sync_ != JournalSync::kNone && unsynced_records_ > 0)
    ::fsync(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
}

bool LoadJournal(const std::string& path,
                 const std::string& expect_fingerprint,
                 std::vector<JobResult>* completed,
                 JournalLoadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.empty()) return false;

  JournalLoadStats local;
  JournalLoadStats& st = stats != nullptr ? *stats : local;

  bool saw_header = false;
  bool torn = false;
  std::size_t pos = 0;
  std::size_t keep = 0;  // end offset of the last structurally sound record
  std::set<std::size_t> seen_jobs;

  const auto note_corrupt = [&] {
    ++st.corrupt_records;
    if (telemetry::EventsOn()) {
      telemetry::Event e =
          telemetry::MakeEvent(telemetry::EventKind::kJournalSkip);
      e.SetDetail("corrupt_record");
      telemetry::Emit(e);
    }
  };

  // A framing problem before the header is validated means the file is
  // not a v2 journal at all (or its header is damaged): refuse to
  // resume rather than silently re-run everything against it.
  const auto bad_preheader = [&](const char* why) {
    DS_REQUIRE(false, "sweep journal '" << path << "': " << why
                                        << "; delete it or pass a fresh "
                                           "checkpoint path");
  };

  while (pos < text.size()) {
    const std::size_t start = pos;
    // --- length prefix ---
    std::size_t p = pos;
    while (p < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[p])) != 0)
      ++p;
    const bool frame_ok =
        p > pos && p < text.size() && text[p] == ' ' && p - pos <= 10 &&
        p + 10 <= text.size() && IsHex(text[p + 1]) && IsHex(text[p + 2]) &&
        IsHex(text[p + 3]) && IsHex(text[p + 4]) && IsHex(text[p + 5]) &&
        IsHex(text[p + 6]) && IsHex(text[p + 7]) && IsHex(text[p + 8]) &&
        text[p + 9] == ' ';
    if (!frame_ok) {
      const std::size_t nl = text.find('\n', start);
      if (nl == std::string::npos) {
        torn = true;  // bare prefix at EOF: crash mid-append
        break;
      }
      if (!saw_header) bad_preheader("unsupported or corrupt journal header");
      note_corrupt();
      pos = nl + 1;
      keep = pos;
      continue;
    }
    const std::size_t len = std::stoul(text.substr(pos, p - pos));
    const std::uint32_t expect_crc =
        static_cast<std::uint32_t>(std::stoul(text.substr(p + 1, 8), nullptr,
                                              16));
    const std::size_t payload_at = p + 10;
    if (payload_at + len >= text.size() + 1 ||
        payload_at + len > text.size()) {
      torn = true;  // declared more bytes than the file holds
      break;
    }
    if (payload_at + len == text.size()) {
      torn = true;  // payload complete but the trailing \n never landed
      break;
    }
    if (text[payload_at + len] != '\n') {
      // Length field lies about a line that keeps going: corrupt frame.
      const std::size_t nl = text.find('\n', payload_at);
      if (nl == std::string::npos) {
        torn = true;
        break;
      }
      if (!saw_header) bad_preheader("corrupt journal header frame");
      note_corrupt();
      pos = nl + 1;
      keep = pos;
      continue;
    }
    const std::string payload = text.substr(payload_at, len);
    pos = payload_at + len + 1;
    if (Crc32(payload) != expect_crc) {
      if (!saw_header) bad_preheader("journal header checksum mismatch");
      note_corrupt();
      keep = pos;
      continue;
    }
    const telemetry::JsonValue doc = telemetry::ParseJson(payload);
    DS_REQUIRE(doc.is_object(),
               "sweep journal '" << path << "': checksummed record is not "
                                    "a JSON object");
    if (!saw_header) {
      const telemetry::JsonValue* version = doc.Find("version");
      const telemetry::JsonValue* fingerprint = doc.Find("fingerprint");
      DS_REQUIRE(version != nullptr && version->is_number() &&
                     version->number == 2.0,  // ds_lint: allow(float-equals)
                 "sweep journal '" << path << "': unsupported version");
      DS_REQUIRE(fingerprint != nullptr && fingerprint->is_string() &&
                     fingerprint->str == expect_fingerprint,
                 "sweep journal '"
                     << path
                     << "' belongs to a different sweep spec; delete it or "
                        "pass a fresh checkpoint path");
      saw_header = true;
      keep = pos;
      continue;
    }
    const telemetry::JsonValue* job = doc.Find("job");
    const telemetry::JsonValue* ok = doc.Find("ok");
    const telemetry::JsonValue* metrics = doc.Find("metrics");
    DS_REQUIRE(job != nullptr && job->is_number() && ok != nullptr &&
                   metrics != nullptr && metrics->is_object(),
               "sweep journal '" << path << "': malformed job record");
    JobResult r;
    r.index = static_cast<std::size_t>(job->number);
    r.ok = ok->boolean;
    if (const telemetry::JsonValue* skipped = doc.Find("skipped"))
      r.skipped = skipped->boolean;
    if (const telemetry::JsonValue* attempts = doc.Find("attempts"))
      r.attempts = static_cast<std::size_t>(attempts->number);
    if (const telemetry::JsonValue* timed_out = doc.Find("timed_out"))
      r.timed_out = timed_out->boolean;
    if (const telemetry::JsonValue* quarantined = doc.Find("quarantined"))
      r.quarantined = quarantined->boolean;
    if (const telemetry::JsonValue* error = doc.Find("error"))
      r.error = error->str;
    r.metrics.reserve(metrics->object.size());
    for (const auto& [key, value] : metrics->object) {
      DS_REQUIRE(value.is_number(), "sweep journal '"
                                        << path << "': metric '" << key
                                        << "' is not a number");
      r.metrics.emplace_back(key, value.number);
    }
    if (!seen_jobs.insert(r.index).second) {
      // A duplicate means a crash landed between execution and journal
      // sync on a prior run; the engine keeps the last record. Count
      // the superseded one so the recovery is visible downstream.
      ++st.dedup_drops;
      if (telemetry::EventsOn()) {
        telemetry::Event e = telemetry::MakeEvent(
            telemetry::EventKind::kJournalSkip,
            static_cast<std::int64_t>(r.index));
        e.SetDetail("dedup_drop");
        telemetry::Emit(e);
      }
    }
    completed->push_back(std::move(r));
    ++st.records;
    keep = pos;
  }

  if (torn) {
    st.truncated_bytes = text.size() - keep;
    std::error_code ec;
    std::filesystem::resize_file(path, keep, ec);
    DS_REQUIRE(!ec, "sweep journal '" << path
                                      << "': cannot truncate torn tail");
    if (telemetry::EventsOn()) {
      telemetry::Event e =
          telemetry::MakeEvent(telemetry::EventKind::kJournalSkip);
      e.AddField("bytes", static_cast<double>(st.truncated_bytes));
      e.SetDetail("torn_tail");
      telemetry::Emit(e);
    }
  }
  if (!saw_header) return false;  // torn before the header completed
  return true;
}

}  // namespace ds::runtime
