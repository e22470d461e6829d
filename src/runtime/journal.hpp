// Crash-safe checkpoint journal for the sweep engine.
//
// Format (version 2): one framed record per line,
//
//     <len> <crc32-hex8> <json-payload>\n
//
// where `len` is the decimal byte length of the payload and the CRC32
// (IEEE, reflected) covers exactly the payload bytes. The first record
// is a header binding the spec content fingerprint; every following
// record is one completed job.
//
// The framing buys two recovery properties a plain JSON-lines file
// cannot offer:
//   - torn-write recovery: a crash mid-append leaves a record whose
//     payload is shorter than its declared length (or a bare length
//     prefix). The loader detects this at EOF, truncates the file back
//     to the last complete record, and resumes -- the interrupted job
//     simply runs again.
//   - corruption containment: a record whose CRC does not match (bit
//     rot, concurrent writer, chaos tests flipping bytes) is skipped
//     and counted; every other record still resumes. Only a corrupt
//     *header* is fatal, because then nothing proves the journal
//     belongs to this spec.
//
// Durability is a policy knob (JournalSync): kNone leaves flushing to
// the OS, kBatch fsyncs every kSyncBatchRecords appends, kAlways
// fsyncs each append -- the usual throughput/durability trade, chosen
// per sweep via --journal-sync.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/result_sink.hpp"
#include "runtime/sweep_spec.hpp"

namespace ds::runtime {

/// CRC32 (IEEE 802.3, reflected) over `data`. Exposed for tests.
std::uint32_t Crc32(const std::string& data);

/// Wraps a payload line in the length + CRC frame (no trailing \n).
std::string FrameJournalRecord(const std::string& payload);

/// Journal header payload for a fresh checkpoint file.
std::string JournalHeaderLine(const SweepSpec& spec);

/// Serializes one completed job as a journal payload (no framing).
std::string JournalLine(const JobResult& result);

/// fsync policy for journal appends.
enum class JournalSync { kNone, kBatch, kAlways };

/// Parses "none" | "batch" | "always"; throws std::invalid_argument
/// otherwise.
JournalSync JournalSyncByName(const std::string& name);

/// Append-side of the journal: framed records with the configured
/// durability. Not internally synchronized -- the engine serializes
/// appends under its journal mutex (SweepEngine's journal_mu at
/// locks::kJournal; the writer pointer is DS_PT_GUARDED_BY it, so the
/// thread-safety analysis rejects an unserialized Append).
class JournalWriter {
 public:
  static constexpr std::size_t kSyncBatchRecords = 16;

  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` (truncating when `fresh`); contract-checks failure so
  /// an unwritable checkpoint fails the run up front.
  void Open(const std::string& path, bool fresh, JournalSync sync);

  /// Appends one framed record and applies the sync policy.
  void Append(const std::string& payload);

  /// Flushes and (for kBatch/kAlways) fsyncs any tail, then closes.
  void Close();

  bool is_open() const { return file_ != nullptr; }

 private:
  void Flush(bool force_sync);

  std::FILE* file_ = nullptr;
  std::string path_;
  JournalSync sync_ = JournalSync::kBatch;
  std::size_t unsynced_records_ = 0;
};

/// What LoadJournal saw besides the completed jobs.
struct JournalLoadStats {
  std::size_t records = 0;          // valid job records parsed
  std::size_t corrupt_records = 0;  // CRC/framing failures skipped
  std::size_t truncated_bytes = 0;  // torn tail removed from the file
  std::size_t dedup_drops = 0;      // duplicate job records superseded
                                    // (last record wins on resume)
};

/// Parses (and, on a torn tail, repairs) a journal file. Returns false
/// with untouched outputs when the file is missing or empty.
/// Contract-checks the header: version 2, framed, fingerprint equal to
/// `expect_fingerprint`. Job records with bad CRC or mangled framing
/// are skipped and counted in `stats` (which may be nullptr).
bool LoadJournal(const std::string& path,
                 const std::string& expect_fingerprint,
                 std::vector<JobResult>* completed,
                 JournalLoadStats* stats = nullptr);

}  // namespace ds::runtime
