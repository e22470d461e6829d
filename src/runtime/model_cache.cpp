#include "runtime/model_cache.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/tsp.hpp"
#include "telemetry/event_bus.hpp"
#include "telemetry/scoped.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ds::runtime {

namespace {

/// Content key: every scalar that determines the RC network. Two
/// (floorplan, package) pairs with equal values share one entry.
std::vector<double> ContentKey(const thermal::Floorplan& fp,
                               const thermal::PackageParams& pkg) {
  return {
      static_cast<double>(fp.rows()),
      static_cast<double>(fp.cols()),
      fp.core_width_mm(),
      fp.core_height_mm(),
      pkg.die_thickness,
      pkg.die_conductivity,
      pkg.die_specific_heat,
      pkg.tim_thickness,
      pkg.tim_conductivity,
      pkg.tim_specific_heat,
      pkg.spreader_side,
      pkg.spreader_thickness,
      pkg.spreader_conductivity,
      pkg.spreader_specific_heat,
      pkg.sink_side,
      pkg.sink_thickness,
      pkg.sink_conductivity,
      pkg.sink_specific_heat,
      pkg.convection_resistance,
      pkg.convection_capacitance,
      pkg.ambient_c,
  };
}

std::uint64_t KeyHash(const std::vector<double>& key) {
  std::uint64_t h = 0x8f3a9c1d2e5b7a40ull ^ key.size();
  for (const double v : key) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = util::SplitMix64(h ^ bits);
  }
  // Zero means "no hash" in the event schema; keep real hashes nonzero.
  return h == 0 ? 1 : h;
}

}  // namespace

std::uint64_t ModelContentHash(const thermal::Floorplan& fp,
                               const thermal::PackageParams& pkg) {
  return KeyHash(ContentKey(fp, pkg));
}

std::shared_ptr<ModelCache::Entry> ModelCache::GetEntry(
    const thermal::Floorplan& fp, const thermal::PackageParams& pkg,
    bool count_stats) {
  std::vector<double> key = ContentKey(fp, pkg);
  const std::uint64_t key_hash = KeyHash(key);
  std::shared_ptr<Entry> entry;
  bool created = false;
  {
    const ds::MutexLock lock(mu_);
    std::shared_ptr<Entry>& slot = entries_[std::move(key)];
    if (!slot) {
      slot = std::make_shared<Entry>();
      slot->key_hash = key_hash;
      created = true;
    }
    slot->last_use = ++use_counter_;
    entry = slot;
  }
  if (count_stats) {
    if (created) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      DS_TELEM_COUNT("modelcache.misses", 1);
    } else {
      hits_.fetch_add(1, std::memory_order_relaxed);
      DS_TELEM_COUNT("modelcache.hits", 1);
    }
  }
  // Exactly one caller builds; concurrent requesters block here until
  // the assets exist.
  std::call_once(entry->once, [&entry, &fp, &pkg] {
    DS_TELEM_SPAN("runtime", "modelcache_build",
                  ds::telemetry::TraceLevel::kSpan);
    DS_TELEM_TIMER("modelcache.build_us");
    auto model = std::make_shared<const thermal::RcModel>(fp, pkg);
    auto solver = std::make_shared<const thermal::SteadyStateSolver>(*model);
    // The propagator set starts empty; each (model, dt) folds lazily on
    // the first transient simulator that needs it and is then shared by
    // every job in the sweep.
    auto propagators = std::make_shared<const thermal::PropagatorSet>();
    entry->assets = ThermalAssets{std::move(model), std::move(solver),
                                  std::move(propagators)};
    entry->built.store(true, std::memory_order_release);
  });
  EnforceBudget(entry.get());
  return entry;
}

std::size_t ModelCache::EntryBytes(const Entry& entry) {
  if (!entry.built.load(std::memory_order_acquire)) return 0;
  const ThermalAssets& a = entry.assets;
  const std::size_t n = a.model->num_nodes();
  const std::size_t cores = a.model->num_cores();
  // The model's edge list and G and C diagonals, the solver's n x cores
  // response block B, and the folded propagators. Element counts, not
  // allocator overhead -- the budget is a working-set cap, not an
  // allocator audit.
  std::size_t doubles = 2 * n;           // G and C diagonals
  doubles += n * cores;                  // B (influence matrix = die rows)
  return sizeof(thermal::RcModel::Edge) * a.model->edges().size() +
         sizeof(double) * doubles + a.propagators->ApproxBytes();
}

void ModelCache::EnforceBudget(const Entry* pinned) {
  // Dropped entries are destroyed outside mu_: their destructors can
  // free O(n^2) matrices, and in-flight users may hold the last other
  // reference anyway.
  std::vector<std::shared_ptr<Entry>> dropped;
  std::vector<std::pair<std::uint64_t, std::size_t>> evicted;  // hash, bytes
  {
    const ds::MutexLock lock(mu_);
    struct Candidate {
      std::map<std::vector<double>, std::shared_ptr<Entry>>::iterator it;
      std::size_t size = 0;
      std::uint64_t last_use = 0;
    };
    std::uint64_t total = 0;
    std::vector<Candidate> victims;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const std::size_t size = EntryBytes(*it->second);
      total += size;
      if (it->second.get() != pinned)
        victims.push_back({it, size, it->second->last_use});
    }
    if (budget_bytes_ != 0 && total > budget_bytes_) {
      std::sort(victims.begin(), victims.end(),
                [](const Candidate& a, const Candidate& b) {
                  return a.last_use < b.last_use;
                });
      for (Candidate& v : victims) {
        if (total <= budget_bytes_) break;
        total -= v.size;
        evicted.emplace_back(v.it->second->key_hash, v.size);
        dropped.push_back(std::move(v.it->second));
        entries_.erase(v.it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        DS_TELEM_COUNT("modelcache.evictions", 1);
      }
    }
    bytes_.store(total, std::memory_order_relaxed);
    DS_TELEM_GAUGE_SET("modelcache.bytes", static_cast<double>(total));
  }
  if (telemetry::EventsOn()) {
    for (const auto& [hash, bytes] : evicted) {
      telemetry::Event e =
          telemetry::MakeEvent(telemetry::EventKind::kCacheEvict);
      e.model_hash = hash;
      e.AddField("bytes", static_cast<double>(bytes));
      telemetry::Emit(e);
    }
  }
}

ThermalAssets ModelCache::Get(const thermal::Floorplan& fp,
                              const thermal::PackageParams& pkg) {
  return GetEntry(fp, pkg, /*count_stats=*/true)->assets;
}

void ModelCache::InstallThermal(arch::Platform& platform) {
  ThermalAssets assets = Get(platform.floorplan());
  platform.AdoptThermalAssets(std::move(assets.model),
                              std::move(assets.solver),
                              std::move(assets.propagators));
}

double ModelCache::TspForEntry(const arch::Platform& platform, std::size_t m,
                               char kind) {
  DS_REQUIRE(m >= 1 && m <= platform.num_cores(),
             "ModelCache: TSP active count " << m << " out of 1.."
                                             << platform.num_cores());
  const std::shared_ptr<Entry> entry =
      GetEntry(platform.floorplan(), thermal::PackageParams{},
               /*count_stats=*/false);
  const std::pair<char, std::size_t> key{kind, m};
  {
    const ds::MutexLock lock(entry->tsp_mu);
    const auto it = entry->tsp.find(key);
    if (it != entry->tsp.end()) {
      tsp_hits_.fetch_add(1, std::memory_order_relaxed);
      DS_TELEM_COUNT("modelcache.tsp_hits", 1);
      return it->second;
    }
  }
  tsp_misses_.fetch_add(1, std::memory_order_relaxed);
  DS_TELEM_COUNT("modelcache.tsp_misses", 1);
  const core::Tsp tsp(platform);
  const double budget = kind == 'w' ? tsp.WorstCase(m) : tsp.BestCase(m);
  const ds::MutexLock lock(entry->tsp_mu);
  entry->tsp.emplace(key, budget);
  return budget;
}

double ModelCache::TspWorstCase(const arch::Platform& platform,
                                std::size_t m) {
  return TspForEntry(platform, m, 'w');
}

double ModelCache::TspBestCase(const arch::Platform& platform,
                               std::size_t m) {
  return TspForEntry(platform, m, 'b');
}

void ModelCache::Clear() {
  const ds::MutexLock lock(mu_);
  entries_.clear();
  bytes_.store(0, std::memory_order_relaxed);
}

void ModelCache::set_budget_bytes(std::size_t bytes) {
  const ds::MutexLock lock(mu_);
  budget_bytes_ = bytes;
}

std::size_t ModelCache::budget_bytes() const {
  const ds::MutexLock lock(mu_);
  return budget_bytes_;
}

ModelCache::Stats ModelCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.tsp_hits = tsp_hits_.load(std::memory_order_relaxed);
  s.tsp_misses = tsp_misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

ModelCache& ModelCache::Process() {
  // Intentionally leaked process-wide singleton (same lifetime pattern
  // as telemetry::Registry): sweeps may run during static destruction
  // of other objects.
  // ds_lint: allow(static-mutable)
  static ModelCache* cache = new ModelCache();  // ds_lint: allow(naked-new)
  return *cache;
}

}  // namespace ds::runtime
