// Sweep-engine tests: spec parsing/validation at the contract boundary,
// cartesian expansion order, deterministic seeds, ModelCache sharing
// and bit-exactness (cached vs uncached solves must agree to the last
// bit), thread-count-independent results, checkpoint/resume
// exactly-once semantics, and failed-job isolation.
#include "runtime/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/platform.hpp"
#include "core/tsp.hpp"
#include "faults/chaos.hpp"
#include "runtime/journal.hpp"
#include "runtime/model_cache.hpp"
#include "runtime/result_sink.hpp"
#include "runtime/scenarios.hpp"
#include "runtime/sweep_spec.hpp"
#include "telemetry/json.hpp"
#include "thermal/rc_model.hpp"
#include "thermal/steady_state.hpp"
#include "util/contracts.hpp"

namespace ds::runtime {
namespace {

SweepSpec SmokeSpec() {
  SweepSpec spec("smoke", SweepKind::kTspCurve);
  spec.Set("node", "16nm");
  spec.Axis("cores", std::vector<double>{16, 32});
  spec.Axis("count", std::vector<double>{4, 8});
  return spec;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(SweepSpecTest, ParsesJsonGrid) {
  const SweepSpec spec = SweepSpec::FromJsonText(R"({
    "name": "fig05a", "kind": "estimate", "seed": 3,
    "base": {"node": "16nm", "tdp_w": 220, "threads": 8},
    "axes": {"app": ["x264", "ferret"], "freq_ghz": [2.8, 3.6]}
  })");
  EXPECT_EQ(spec.name(), "fig05a");
  EXPECT_EQ(spec.kind(), SweepKind::kEstimate);
  EXPECT_EQ(spec.seed(), 3u);
  const std::vector<SweepJob> jobs = spec.Jobs();
  ASSERT_EQ(jobs.size(), 4u);
  // First axis outermost: (x264, 2.8), (x264, 3.6), (ferret, 2.8), ...
  EXPECT_EQ(jobs[0].point.app, "x264");
  EXPECT_DOUBLE_EQ(jobs[0].point.freq_ghz, 2.8);
  EXPECT_EQ(jobs[1].point.app, "x264");
  EXPECT_DOUBLE_EQ(jobs[1].point.freq_ghz, 3.6);
  EXPECT_EQ(jobs[2].point.app, "ferret");
  EXPECT_DOUBLE_EQ(jobs[2].point.tdp_w, 220.0);
  EXPECT_EQ(jobs[2].point.threads, 8u);
  EXPECT_EQ(spec.ParamColumns(),
            (std::vector<std::string>{"app", "freq_ghz"}));
}

TEST(SweepSpecTest, ParsesPointsList) {
  const SweepSpec spec = SweepSpec::FromJsonText(R"({
    "kind": "tsp_perf",
    "points": [{"node": "16nm", "dark_pct": 20},
               {"node": "8nm", "dark_pct": 40}]
  })");
  const std::vector<SweepJob> jobs = spec.Jobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].point.node, "16nm");
  EXPECT_DOUBLE_EQ(jobs[1].point.dark_pct, 40.0);
}

TEST(SweepSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(SweepSpec::FromJsonText(R"({"kind": "nope", "axes": {}})"),
               ContractViolation);
  EXPECT_THROW(SweepSpec::FromJsonText(R"({"kind": "estimate"})"),
               ContractViolation);  // neither axes nor points
  EXPECT_THROW(SweepSpec::FromJsonText(R"({
    "kind": "estimate", "axes": {"app": ["x264"]}, "points": []})"),
               ContractViolation);  // both
  EXPECT_THROW(SweepSpec::FromJsonText(R"({
    "kind": "estimate", "axes": {"warp_factor": [9]}})"),
               ContractViolation);  // unknown field
  EXPECT_THROW(SweepSpec::FromJsonText(R"({
    "kind": "estimate", "typo": 1, "axes": {"app": ["x264"]}})"),
               ContractViolation);  // unknown top-level key
  EXPECT_THROW(SweepSpec::FromJsonText(R"({
    "kind": "estimate", "axes": {"constraint": ["neither"]}})"),
               ContractViolation);  // invalid enum value
  EXPECT_THROW(SweepSpec::FromJsonText(R"({
    "kind": "estimate", "axes": {"dark_pct": [100]}})"),
               ContractViolation);  // out of range
  SweepSpec spec("x", SweepKind::kEstimate);
  spec.Axis("app", std::vector<std::string>{"x264"});
  EXPECT_THROW(spec.Axis("app", std::vector<std::string>{"ferret"}),
               ContractViolation);  // duplicate axis
}

TEST(SweepSpecTest, SeedsAreStableAndPerJobDistinct) {
  const SweepSpec spec = SmokeSpec();
  const std::vector<SweepJob> a = spec.Jobs();
  const std::vector<SweepJob> b = spec.Jobs();
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rng_seed, b[i].rng_seed);
    EXPECT_EQ(a[i].rng_seed, MixSeed(spec.seed(), i));
    for (std::size_t j = i + 1; j < a.size(); ++j)
      EXPECT_NE(a[i].rng_seed, a[j].rng_seed);
  }
}

// The three seed mixers share one SplitMix64 finalizer; these pins hold
// the per-job seeds, the model hash on cache events and the chaos
// schedule to their values, so a change to the mixer cannot move them.
TEST(SeedMixingPin, MixSeedValues) {
  EXPECT_EQ(MixSeed(1, 0), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(MixSeed(1, 1), 0xbeeb8da1658eec67ULL);
  EXPECT_EQ(MixSeed(1, 2), 0xf893a2eefb32555eULL);
  EXPECT_EQ(MixSeed(1, 3), 0x71c18690ee42c90bULL);
}

TEST(SeedMixingPin, ModelContentHashOf16nmPaperFloorplan) {
  const arch::Platform plat =
      arch::Platform::PaperPlatform(power::TechNode::N16);
  EXPECT_EQ(ModelContentHash(plat.thermal_model().floorplan(),
                             plat.thermal_model().package()),
            0x863f3e913e04777eULL);
}

TEST(SeedMixingPin, ChaosDecisions) {
  faults::ChaosConfig config;
  config.enabled = true;
  config.seed = 1234;
  config.fail_rate = 0.3;
  config.delay_rate = 0.2;
  config.delay_ms = 5.0;
  const faults::ChaosInjector chaos(config);
  // One digit per job: 1 = fail, 2 = delay, 3 = both.
  std::vector<std::string> by_attempt(3);
  for (std::size_t attempt = 0; attempt < 3; ++attempt)
    for (std::size_t job = 0; job < 64; ++job) {
      const faults::ChaosDecision d = chaos.Decide(job, attempt);
      by_attempt[attempt] += static_cast<char>('0' + (d.fail ? 1 : 0) +
                                               (d.delay ? 2 : 0));
    }
  EXPECT_EQ(by_attempt[0],
            "00101000000021100323000001021000"
            "00000101310001320000300302001000");
  EXPECT_EQ(by_attempt[1],
            "00003102222011110130000020113300"
            "21131011101130002132000113011001");
  EXPECT_EQ(by_attempt[2],
            "10003210302112003021000002201100"
            "00232110000001202100020102003103");
}

TEST(SweepSpecTest, FingerprintTracksContent) {
  const std::string fp = SmokeSpec().Fingerprint();
  EXPECT_EQ(fp, SmokeSpec().Fingerprint());  // stable
  SweepSpec other = SmokeSpec();
  other.set_seed(99);
  EXPECT_NE(fp, other.Fingerprint());
}

TEST(ModelCacheTest, SharesAssetsAcrossEqualFloorplans) {
  ModelCache cache;
  const arch::Platform p1(power::TechNode::N16, 16);
  const arch::Platform p2(power::TechNode::N16, 16);
  const ThermalAssets a1 = cache.Get(p1.floorplan());
  const ThermalAssets a2 = cache.Get(p2.floorplan());
  EXPECT_EQ(a1.model.get(), a2.model.get());
  EXPECT_EQ(a1.solver.get(), a2.solver.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  const arch::Platform p3(power::TechNode::N16, 32);
  const ThermalAssets a3 = cache.Get(p3.floorplan());
  EXPECT_NE(a3.model.get(), a1.model.get());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ModelCacheTest, CachedSolveIsBitIdenticalToUncached) {
  ModelCache cache;
  arch::Platform plat(power::TechNode::N16, 24);
  cache.InstallThermal(plat);

  // An independent, uncached build from the same floorplan.
  const thermal::RcModel fresh_model(plat.floorplan());
  const thermal::SteadyStateSolver fresh(fresh_model);

  std::vector<double> powers(plat.num_cores(), 0.0);
  for (std::size_t i = 0; i < powers.size(); ++i)
    powers[i] = 0.3 + 0.05 * static_cast<double>(i % 7);
  const std::vector<double> cached = plat.solver().Solve(powers);
  const std::vector<double> uncached = fresh.Solve(powers);
  ASSERT_EQ(cached.size(), uncached.size());
  double max_abs_diff = 0.0;
  for (std::size_t i = 0; i < cached.size(); ++i)
    max_abs_diff =
        std::max(max_abs_diff, std::abs(cached[i] - uncached[i]));
  EXPECT_EQ(max_abs_diff, 0.0);  // bit-identical, not merely close

  const util::Matrix& a = plat.solver().InfluenceMatrix();
  const util::Matrix& b = fresh.InfluenceMatrix();
  for (std::size_t i = 0; i < plat.num_cores(); ++i)
    for (std::size_t j = 0; j < plat.num_cores(); ++j)
      EXPECT_EQ(a(i, j), b(i, j));
}

TEST(ModelCacheTest, TspMemoMatchesDirectComputation) {
  ModelCache cache;
  arch::Platform plat(power::TechNode::N16, 16);
  cache.InstallThermal(plat);
  const double memo1 = cache.TspWorstCase(plat, 8);
  const double memo2 = cache.TspWorstCase(plat, 8);
  EXPECT_EQ(memo1, memo2);
  EXPECT_EQ(memo1, core::Tsp(plat).WorstCase(8));
  EXPECT_EQ(cache.TspBestCase(plat, 8), core::Tsp(plat).BestCase(8));
  EXPECT_EQ(cache.stats().tsp_misses, 2u);
  EXPECT_EQ(cache.stats().tsp_hits, 1u);
}

TEST(SweepEngineTest, RunsAllJobsSerially) {
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const SweepOutcome out = SweepEngine(SmokeSpec(), opts).Run();
  ASSERT_EQ(out.results.size(), 4u);
  for (const JobResult& r : out.results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(Metric(r, "tsp_w_per_core"), 0.0);
  }
  EXPECT_EQ(out.stats.jobs_executed, 4u);
  EXPECT_EQ(out.stats.jobs_failed, 0u);
  // 2 distinct floorplans (16 and 32 cores) over 4 jobs.
  EXPECT_EQ(out.stats.cache_misses, 2u);
  EXPECT_EQ(out.stats.cache_hits, 2u);
}

std::string CsvFor(std::size_t threads, ModelCache* cache) {
  SweepOptions opts;
  opts.threads = threads;
  opts.cache = cache;
  const SweepSpec spec = SmokeSpec();
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream os;
  sink.WriteCsv(os, out.results);
  return os.str();
}

TEST(SweepEngineTest, RowsAreByteIdenticalAcrossThreadCounts) {
  ModelCache c1, c4, c8;
  const std::string serial = CsvFor(1, &c1);
  EXPECT_EQ(serial, CsvFor(4, &c4));
  EXPECT_EQ(serial, CsvFor(8, &c8));
  // Hit/miss counts are deterministic too: misses == distinct keys.
  EXPECT_EQ(c1.stats().misses, c4.stats().misses);
  EXPECT_EQ(c1.stats().hits, c4.stats().hits);
}

TEST(SweepEngineTest, CheckpointThenResumeRunsEachJobExactlyOnce) {
  const std::string path = TempPath("ds_sweep_resume.jsonl");
  std::remove(path.c_str());

  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  opts.checkpoint_path = path;
  opts.stop_after_jobs = 2;  // "kill" after k jobs
  const SweepOutcome partial = SweepEngine(SmokeSpec(), opts).Run();
  EXPECT_EQ(partial.stats.jobs_executed, 2u);
  EXPECT_EQ(partial.stats.jobs_pending, 2u);

  SweepOptions resume_opts;
  resume_opts.threads = 1;
  resume_opts.cache = &cache;
  resume_opts.checkpoint_path = path;
  resume_opts.resume = true;
  const SweepOutcome full = SweepEngine(SmokeSpec(), resume_opts).Run();
  EXPECT_EQ(full.stats.jobs_resumed, 2u);
  EXPECT_EQ(full.stats.jobs_executed, 2u);  // the remaining two, once
  EXPECT_EQ(full.stats.jobs_pending, 0u);
  for (const JobResult& r : full.results) EXPECT_TRUE(r.ok) << r.error;

  // The combined run must equal a clean serial run, byte for byte.
  ModelCache fresh;
  SweepOptions clean;
  clean.threads = 1;
  clean.cache = &fresh;
  const SweepOutcome reference = SweepEngine(SmokeSpec(), clean).Run();
  const SweepSpec spec = SmokeSpec();
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream a, b;
  sink.WriteCsv(a, full.results);
  sink.WriteCsv(b, reference.results);
  EXPECT_EQ(a.str(), b.str());
  std::remove(path.c_str());
}

TEST(SweepEngineTest, ResumeRejectsForeignJournal) {
  const std::string path = TempPath("ds_sweep_foreign.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"sweep": "other", "version": 1, "fingerprint": "deadbeef"})"
        << "\n";
  }
  SweepOptions opts;
  opts.threads = 1;
  opts.checkpoint_path = path;
  opts.resume = true;
  ModelCache cache;
  opts.cache = &cache;
  SweepEngine engine(SmokeSpec(), opts);
  EXPECT_THROW(engine.Run(), ContractViolation);
  std::remove(path.c_str());
}

TEST(SweepEngineTest, FailedJobDoesNotPoisonOthers) {
  SweepSpec spec("mixed", SweepKind::kEstimate);
  spec.Set("node", "16nm").Set("cores", 16.0);
  spec.Axis("app", std::vector<std::string>{"x264", "no_such_app", "ferret"});
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 2;
  opts.cache = &cache;
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  ASSERT_EQ(out.results.size(), 3u);
  EXPECT_TRUE(out.results[0].ok);
  EXPECT_FALSE(out.results[1].ok);
  EXPECT_FALSE(out.results[1].error.empty());
  EXPECT_TRUE(out.results[2].ok);
  EXPECT_EQ(out.stats.jobs_failed, 1u);

  // Failed rows render with empty metric cells, not garbage.
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream os;
  sink.WriteCsv(os, out.results);
  EXPECT_NE(os.str().find("1,failed,no_such_app"), std::string::npos);
}

TEST(SweepEngineTest, SkippedJobsAreCountedNotFailed) {
  // 40 instances of 8 threads exceed the 100-core paper platform: the
  // boost runner reports the scenario infeasible (skipped).
  SweepSpec spec("boost_edge", SweepKind::kBoost);
  spec.Set("node", "16nm").Set("app", "x264").Set("power_cap_w", 10.0);
  spec.Axis("instances", std::vector<double>{1, 40});
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  EXPECT_EQ(out.stats.jobs_failed + out.stats.jobs_skipped +
                (out.results[0].ok && !out.results[0].skipped ? 1u : 0u),
            2u);
  EXPECT_EQ(out.stats.jobs_pending, 0u);
}

TEST(ResultSinkTest, JsonRowsParseBack) {
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const SweepSpec spec = SmokeSpec();
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream os;
  sink.WriteJsonRows(os, out.results);
  const telemetry::JsonValue doc = telemetry::ParseJson(os.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.array.size(), 4u);
  const telemetry::JsonValue* tsp = doc.array[0].Find("tsp_w_per_core");
  ASSERT_NE(tsp, nullptr);
  EXPECT_EQ(tsp->number, Metric(out.results[0], "tsp_w_per_core"));
  const telemetry::JsonValue* cores = doc.array[3].Find("cores");
  ASSERT_NE(cores, nullptr);
  EXPECT_EQ(cores->str, "32");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Splits journal text into lines (without the trailing newline each).
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::string CleanCsv() {
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const SweepSpec spec = SmokeSpec();
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream os;
  sink.WriteCsv(os, out.results);
  return os.str();
}

std::string CsvOf(const SweepOutcome& out) {
  const SweepSpec spec = SmokeSpec();
  const ResultSink sink(spec, spec.Jobs());
  std::ostringstream os;
  sink.WriteCsv(os, out.results);
  return os.str();
}

TEST(JournalTest, FramedRecordRoundTripsThroughCrc) {
  const std::string payload = R"({"job": 7, "ok": true, "metrics": {}})";
  const std::string framed = FrameJournalRecord(payload);
  // <len> <crc8hex> <payload>
  const std::size_t sp1 = framed.find(' ');
  ASSERT_NE(sp1, std::string::npos);
  EXPECT_EQ(std::stoul(framed.substr(0, sp1)), payload.size());
  EXPECT_EQ(framed.substr(sp1 + 10), payload);
  char expect[16];
  std::snprintf(expect, sizeof(expect), "%08x", Crc32(payload));
  EXPECT_EQ(framed.substr(sp1 + 1, 8), expect);
  // The CRC32 implementation itself against a known vector.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
}

TEST(JournalTest, TornTailIsTruncatedOnResume) {
  const std::string path = TempPath("ds_journal_torn.jsonl");
  std::remove(path.c_str());
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  opts.checkpoint_path = path;
  opts.stop_after_jobs = 2;
  (void)SweepEngine(SmokeSpec(), opts).Run();

  // Crash mid-append: a record whose declared length exceeds the bytes
  // that actually landed, no trailing newline.
  const std::string before = ReadFile(path);
  WriteFile(path, before + "57 0badf00d {\"job\": 2, \"ok\": tr");

  SweepOptions resume;
  resume.threads = 1;
  resume.cache = &cache;
  resume.checkpoint_path = path;
  resume.resume = true;
  const SweepOutcome out = SweepEngine(SmokeSpec(), resume).Run();
  EXPECT_EQ(out.stats.jobs_resumed, 2u);
  EXPECT_EQ(out.stats.jobs_executed, 2u);
  EXPECT_GT(out.stats.journal_truncated_bytes, 0u);
  EXPECT_EQ(out.stats.journal_corrupt_records, 0u);
  EXPECT_EQ(CsvOf(out), CleanCsv());
  std::remove(path.c_str());
}

TEST(JournalTest, FlippedCrcSkipsOnlyThatRecord) {
  const std::string path = TempPath("ds_journal_crc.jsonl");
  std::remove(path.c_str());
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  opts.checkpoint_path = path;
  (void)SweepEngine(SmokeSpec(), opts).Run();

  // Flip one hex digit of job 1's CRC: framing stays valid, the
  // checksum no longer matches the payload.
  std::vector<std::string> lines = Lines(ReadFile(path));
  ASSERT_EQ(lines.size(), 5u);  // header + 4 job records
  const std::size_t sp = lines[2].find(' ');
  ASSERT_NE(sp, std::string::npos);
  lines[2][sp + 1] = lines[2][sp + 1] == '0' ? '1' : '0';
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  WriteFile(path, text);

  SweepOptions resume;
  resume.threads = 1;
  resume.cache = &cache;
  resume.checkpoint_path = path;
  resume.resume = true;
  const SweepOutcome out = SweepEngine(SmokeSpec(), resume).Run();
  EXPECT_EQ(out.stats.jobs_resumed, 3u);
  EXPECT_EQ(out.stats.jobs_executed, 1u);  // only the corrupted job re-runs
  EXPECT_EQ(out.stats.journal_corrupt_records, 1u);
  EXPECT_EQ(CsvOf(out), CleanCsv());
  std::remove(path.c_str());
}

TEST(JournalTest, DuplicateJobRecordResumesOnce) {
  const std::string path = TempPath("ds_journal_dup.jsonl");
  std::remove(path.c_str());
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  opts.checkpoint_path = path;
  (void)SweepEngine(SmokeSpec(), opts).Run();

  // A re-appended record for job 0 (e.g. a retry that raced a crash):
  // last record wins, the job resumes exactly once.
  const std::vector<std::string> lines = Lines(ReadFile(path));
  ASSERT_EQ(lines.size(), 5u);
  WriteFile(path, ReadFile(path) + lines[1] + "\n");

  SweepOptions resume;
  resume.threads = 1;
  resume.cache = &cache;
  resume.checkpoint_path = path;
  resume.resume = true;
  const SweepOutcome out = SweepEngine(SmokeSpec(), resume).Run();
  EXPECT_EQ(out.stats.jobs_resumed, 4u);
  EXPECT_EQ(out.stats.jobs_executed, 0u);
  EXPECT_EQ(out.stats.jobs_pending, 0u);
  EXPECT_EQ(CsvOf(out), CleanCsv());
  std::remove(path.c_str());
}

TEST(JournalTest, ResumeRejectsWrongFingerprint) {
  const std::string path = TempPath("ds_journal_wrongfp.jsonl");
  // A structurally perfect v2 header whose fingerprint belongs to some
  // other spec content.
  const std::string payload =
      R"({"sweep": "smoke", "version": 2, "fingerprint": "0000000000000000"})";
  WriteFile(path, FrameJournalRecord(payload) + "\n");
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  opts.checkpoint_path = path;
  opts.resume = true;
  SweepEngine engine(SmokeSpec(), opts);
  EXPECT_THROW(engine.Run(), ContractViolation);
  std::remove(path.c_str());
}

TEST(SweepEngineTest, DeadlineQuarantinesHungJobs) {
  const std::string path = TempPath("ds_sweep_hung.jsonl");
  std::remove(path.c_str());
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 2;
  opts.cache = &cache;
  opts.checkpoint_path = path;
  opts.job_deadline_ms = 50.0;
  opts.job_retries = 1;
  opts.retry_backoff_ms = 1.0;
  opts.chaos.enabled = true;
  opts.chaos.delay_rate = 1.0;  // every attempt hangs far past the deadline
  opts.chaos.delay_ms = 60000.0;
  const SweepOutcome out = SweepEngine(SmokeSpec(), opts).Run();
  ASSERT_EQ(out.results.size(), 4u);
  for (const JobResult& r : out.results) {
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.quarantined);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.attempts, 2u);  // first attempt + one retry
    EXPECT_EQ(r.error, "deadline exceeded");
  }
  EXPECT_EQ(out.stats.jobs_failed, 4u);
  EXPECT_EQ(out.stats.jobs_quarantined, 4u);
  EXPECT_EQ(out.stats.jobs_timed_out, 4u);
  EXPECT_EQ(out.stats.retries_total, 4u);
  EXPECT_FALSE(out.chaos_log.empty());
  const std::string csv = CsvOf(out);
  EXPECT_NE(csv.find("0,quarantined"), std::string::npos);

  // Quarantined journal rows are poison on resume: nothing re-runs,
  // even with chaos off and no deadline.
  SweepOptions resume;
  resume.threads = 1;
  resume.cache = &cache;
  resume.checkpoint_path = path;
  resume.resume = true;
  const SweepOutcome again = SweepEngine(SmokeSpec(), resume).Run();
  EXPECT_EQ(again.stats.jobs_resumed, 4u);
  EXPECT_EQ(again.stats.jobs_executed, 0u);
  EXPECT_EQ(again.stats.jobs_failed, 4u);
  std::remove(path.c_str());
}

TEST(SweepEngineTest, ChaosRunRecoversByteIdenticalRows) {
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 4;
  opts.cache = &cache;
  opts.job_retries = 4;
  opts.retry_backoff_ms = 0.1;
  opts.chaos.enabled = true;
  opts.chaos.fail_rate = 1.0;  // every attempt fails...
  opts.chaos.max_faulty_attempts = 2;  // ...until attempt index 2
  const SweepOutcome out = SweepEngine(SmokeSpec(), opts).Run();
  for (const JobResult& r : out.results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.quarantined);
    EXPECT_EQ(r.attempts, 3u);
  }
  EXPECT_EQ(out.stats.jobs_failed, 0u);
  EXPECT_EQ(out.stats.jobs_retried, 4u);
  EXPECT_EQ(out.stats.retries_total, 8u);
  EXPECT_EQ(out.chaos_log.events().size(), 8u);
  EXPECT_EQ(CsvOf(out), CleanCsv());
}

TEST(SweepEngineTest, ChaosDecisionsAreThreadCountInvariant) {
  const auto run = [](std::size_t threads) {
    ModelCache cache;
    SweepOptions opts;
    opts.threads = threads;
    opts.cache = &cache;
    opts.job_retries = 3;
    opts.retry_backoff_ms = 0.1;
    opts.chaos.enabled = true;
    opts.chaos.seed = 11;
    opts.chaos.fail_rate = 0.5;
    opts.chaos.max_faulty_attempts = 3;
    return SweepEngine(SmokeSpec(), opts).Run();
  };
  const SweepOutcome a = run(1);
  const SweepOutcome b = run(4);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].attempts, b.results[i].attempts) << "job " << i;
    EXPECT_EQ(a.results[i].ok, b.results[i].ok) << "job " << i;
  }
  EXPECT_EQ(CsvOf(a), CsvOf(b));
  EXPECT_EQ(a.chaos_log.events().size(), b.chaos_log.events().size());
}

TEST(ModelCacheTest, BudgetEvictsLruAndStaysUnderCeiling) {
  ModelCache cache;
  const arch::Platform p16(power::TechNode::N16, 16);
  const arch::Platform p24(power::TechNode::N16, 24);
  const arch::Platform p32(power::TechNode::N16, 32);
  // Entries take 15,360 / 28,992 / 46,720 bytes (16 / 24 / 32 cores):
  // the first two fit together (44,352), the third forces both out
  // (28,992 + 46,720 = 75,712 > 65,536).
  cache.set_budget_bytes(64 * 1024);
  EXPECT_EQ(cache.budget_bytes(), 64u * 1024u);
  (void)cache.Get(p16.floorplan());
  (void)cache.Get(p24.floorplan());
  const ThermalAssets a32 = cache.Get(p32.floorplan());
  const ModelCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, 64u * 1024u);
  EXPECT_GT(stats.bytes, 0u);
  // Eviction dropped the cache's reference only: our assets stay valid,
  // and re-requesting an evicted key is a rebuild (miss), not an error.
  EXPECT_NE(a32.model.get(), nullptr);
  const std::uint64_t misses_before = stats.misses;
  (void)cache.Get(p16.floorplan());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(SweepEngineTest, CacheBudgetDoesNotChangeRows) {
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  // Tight enough that the 16- and 32-core entries (15,360 + 46,720 =
  // 62,080 bytes) cannot coexist, but large enough (52,428 bytes) to
  // hold either alone (so the ceiling is respected rather than
  // degraded to keep-the-pinned-entry).
  opts.cache_budget_mb = 0.05;
  const SweepOutcome out = SweepEngine(SmokeSpec(), opts).Run();
  for (const JobResult& r : out.results) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GE(out.stats.cache_evictions, 1u);
  EXPECT_LE(out.stats.cache_bytes, static_cast<std::uint64_t>(0.05 * 1024 *
                                                              1024));
  EXPECT_EQ(CsvOf(out), CleanCsv());
}

TEST(ResultSinkTest, SurfacesStreamFailureWithRowCount) {
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const SweepSpec spec = SmokeSpec();
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  const ResultSink sink(spec, spec.Jobs());
  EXPECT_THROW(
      sink.WriteCsv("/nonexistent_ds_dir/rows.csv", out.results),
      SinkWriteError);
  EXPECT_THROW(
      sink.WriteJsonRows("/nonexistent_ds_dir/rows.json", out.results),
      SinkWriteError);
  try {
    sink.WriteCsv("/nonexistent_ds_dir/rows.csv", out.results);
  } catch (const SinkWriteError& e) {
    EXPECT_EQ(e.rows_written(), 0u);
  }
}

// MetricColumns is each kind's schema: one ok job of every kind fills
// exactly its columns, by name, in order.
TEST(ScenariosTest, MetricColumnsMatchRunnerOutput) {
  ModelCache cache;
  for (const SweepKind kind :
       {SweepKind::kEstimate, SweepKind::kTspCurve, SweepKind::kTspPerf,
        SweepKind::kBoost, SweepKind::kCharacterize, SweepKind::kSpeedup,
        SweepKind::kBoostTransient}) {
    SCOPED_TRACE(SweepKindName(kind));
    const SweepSpec spec = SweepSpec::FromJsonText(
        std::string(R"({"kind": ")") + SweepKindName(kind) +
        R"(", "points": [{"node": "16nm", "cores": 16, "count": 4,
                          "duration_s": 0.01}]})");
    JobResult result;
    RunScenario(kind, spec.Jobs()[0], cache, &result);
    ASSERT_TRUE(result.ok && !result.skipped);
    const std::vector<std::string>& cols = MetricColumns(kind);
    ASSERT_EQ(cols.size(), result.metrics.size());
    for (std::size_t i = 0; i < cols.size(); ++i)
      EXPECT_EQ(cols[i], result.metrics[i].first);
  }
}

// The spec alone fixes the header: a sweep none of whose rows is ok
// still carries its kind's metric columns, with empty cells.
TEST(ResultSinkTest, SweepWithNoOkRowCarriesItsKindsColumns) {
  const SweepSpec spec = SweepSpec::FromJsonText(R"({"kind": "boost",
      "base": {"node": "16nm", "power_cap_w": 1},
      "axes": {"app": ["x264", "ferret"], "instances": [1, 2]}})");
  ModelCache cache;
  SweepOptions opts;
  opts.threads = 1;
  opts.cache = &cache;
  const SweepOutcome out = SweepEngine(spec, opts).Run();
  std::ostringstream csv;
  ResultSink(spec, spec.Jobs()).WriteCsv(csv, out.results);
  EXPECT_EQ(csv.str(),
            "job,status,app,instances,const_freq_ghz,const_gips,"
            "const_power_w,boost_gips,boost_avg_power_w,"
            "boost_peak_power_w,boost_base_freq_ghz\n"
            "0,skipped,x264,1,,,,,,,\n"
            "1,skipped,x264,2,,,,,,,\n"
            "2,skipped,ferret,1,,,,,,,\n"
            "3,skipped,ferret,2,,,,,,,\n");
}

}  // namespace
}  // namespace ds::runtime
