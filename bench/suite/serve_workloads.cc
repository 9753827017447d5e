// serve_hot and serve_swap: four tenant cities in one TenantRegistry answer
// Zipf-skewed top-K site queries from an open loop. Request i of a rung is
// due at rung_start + i / rate and is timed from its due time, so a stall
// also charges the requests queued behind it. Two sender threads split the
// stream; each is the front end of two of the tenants (tenant-affine
// routing), so the senders share the registry but no engine. A cycle of
// windows over the kRungs rates runs several times over the run's seconds.
// The top rung offers far more than two senders can serve, so its
// completions per second are the highest rate served; the reference rung
// must not build a backlog.
//
// serve_swap adds one TenantRegistry::Swap every 250 ms (start to start)
// beside the senders, each to a freshly PrepareServing-built model
// restoring the tenant's own snapshot: snapshot load, structure build and
// serving-table build run next to the readers, and every swap bumps the
// tenant's epoch, sending its pairs down the cache-miss scoring path.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/o2siterec_recommender.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "serve/tenant.h"
#include "suite.h"

namespace o2sr::suite {
namespace {

namespace fs = std::filesystem;

constexpr int kTenants = 4;
constexpr int kCandidates = 48;
constexpr int kTopK = 10;
constexpr int kSenders = 2;
static_assert(kTenants % kSenders == 0, "each sender fronts whole tenants");
constexpr int kRequestsPerTenant = 4096;
constexpr size_t kStreamLength = size_t{1} << 16;
// One response in kCheckEvery of each sender is compared bit for bit with
// the reference.
constexpr uint64_t kCheckEvery = 64;
// A rung whose generator ends its median window more than this far behind
// schedule (or a quarter of the window, for short windows) has a growing
// backlog: it is saturated. The median keeps a single stall of the host
// from turning the reference rung into a saturated one.
constexpr double kSaturatedLatenessMs = 100.0;
// Also the length of one measuring window of the ladder.
constexpr double kSwapPeriodMs = 250.0;

// Offered rates of the ladder, in req/s. The top rung is far past what two
// senders can issue, on any machine. serve_swap's reference rate is half
// of serve_hot's, for the cache misses after each swap, and no lower: the
// further apart a sender's requests, the slower and the more variable each
// one is on a shared host (see bench/suite/README.md).
constexpr double kHotLadder[kRungs] = {50e3, 100e3, 200e3, 300e3, 5e6};
constexpr double kSwapLadder[kRungs] = {25e3, 50e3, 100e3, 200e3, 5e6};
// The rung whose latency is reported end to end, and the rung whose
// completions per second are.
constexpr int kReferenceRung = 1;
constexpr int kTopRung = kRungs - 1;
// One cycle of the ladder, one window per entry; window w runs rung
// kCycle[w % kCycleWindows]. Its first kLadderWindows windows visit every
// rung, and a run has at least that many. The end-to-end numbers come from
// the best window of their rung, so the rest of the cycle alternates those
// two, favouring the reference rung: its best window p50 is the noisier
// number, and it steadies as the rung gets more windows.
constexpr int kR = kReferenceRung;
constexpr int kT = kTopRung;
constexpr int kCycle[] = {kR, kT, 0, kR, kT, 2, kR, kT, 3,  //
                          kR, kT, kR, kR, kT, kR,           //
                          kR, kT, kR, kR, kT, kR};
constexpr int kCycleWindows = static_cast<int>(std::size(kCycle));
// peak_rss_mb is sampled after the first kLadderWindows windows (in
// serve_swap, every tenant swapped at least twice): later swaps only add
// allocator fragmentation, which depends on how the swaps happen to
// interleave with the senders.
constexpr int kLadderWindows = 9;

struct Tenant {
  std::string name;
  std::unique_ptr<Prepared> prepared;
  core::O2SiteRecConfig config;
  uint64_t config_hash = 0;
  std::string snapshot_path;
  std::vector<serve::RankRequest> requests;
  // Reference top-K of each request, from the tenant's ServingPredict.
  std::vector<std::vector<serve::RankedSite>> expected;
};

// Zipf-skewed candidate sets: region r (in a seeded popularity order) is
// drawn with weight 1 / (rank + 1), so a few hot districts dominate.
std::vector<serve::RankRequest> MakeRequests(const std::vector<int>& regions,
                                             int num_types, int count,
                                             std::mt19937_64& rng) {
  std::vector<int> order = regions;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<double> cumulative(order.size());
  double total = 0.0;
  for (size_t i = 0; i < order.size(); ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cumulative[i] = total;
  }
  std::uniform_real_distribution<double> unit(0.0, total);
  std::uniform_int_distribution<int> type(0, num_types - 1);
  std::vector<serve::RankRequest> requests(count);
  for (serve::RankRequest& request : requests) {
    request.type = type(rng);
    request.k = kTopK;
    request.candidates.resize(kCandidates);
    for (int& c : request.candidates) {
      const size_t idx = static_cast<size_t>(
          std::upper_bound(cumulative.begin(), cumulative.end(), unit(rng)) -
          cumulative.begin());
      c = order[std::min(idx, order.size() - 1)];
    }
  }
  return requests;
}

// The engine's ranking contract, recomputed from a full score table:
// scorable candidates, duplicates once, (score desc, region asc), top k.
std::vector<serve::RankedSite> ReferenceTopK(
    const serve::RankRequest& request,
    const std::map<std::pair<int, int>, double>& scores) {
  std::vector<serve::RankedSite> sites;
  for (int region : request.candidates) {
    const auto it = scores.find({region, request.type});
    if (it == scores.end()) continue;
    if (std::any_of(sites.begin(), sites.end(),
                    [&](const serve::RankedSite& s) {
                      return s.region == region;
                    })) {
      continue;
    }
    sites.push_back({region, it->second});
  }
  std::sort(sites.begin(), sites.end(),
            [](const serve::RankedSite& a, const serve::RankedSite& b) {
              return a.score != b.score ? a.score > b.score
                                        : a.region < b.region;
            });
  if (sites.size() > static_cast<size_t>(request.k)) sites.resize(request.k);
  return sites;
}

bool SameSites(const std::vector<serve::RankedSite>& a,
               const std::vector<serve::RankedSite>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].region != b[i].region ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

serve::ServingOptions PinnedServingOptions() {
  serve::ServingOptions options;
  options.cache_capacity = 65536;
  options.cache_shards = 8;
  // One front-end shard: the senders share the cache the set-up warmed.
  options.num_shards = 1;
  // Null: each call runs on the calling thread's pool (see RunServe).
  options.pool = nullptr;
  options.max_inflight = 0;
  options.default_deadline_ms = 0.0;
  options.slo_ms = 50.0;
  options.slo_target = 0.99;
  return options;
}

// Builds, trains, snapshots and registers one tenant, then warms its cache
// with every distinct request.
void SetUpTenant(const RunOptions& options, int index,
                 exec::ThreadPool* query_pool,
                 serve::TenantRegistry* registry, Tenant* tenant,
                 Ledger* ledger, double* ndcg3) {
  tenant->name = "city" + std::to_string(index);
  const sim::SimConfig city = TrainCity(
      options, sim::SimulationPreset::kSyntheticEleme, 100 + index);
  std::vector<double> ignored;
  tenant->prepared =
      SetUpCity(city, SubSeed(options.seed, 110 + index), ledger, &ignored);
  tenant->config.rec.embedding_dim = 16;
  tenant->config.epochs = options.smoke ? 1 : 2;
  tenant->config.seed = SubSeed(options.seed, 120 + index);
  tenant->config_hash =
      serve::CombineFingerprints(serve::FingerprintOf(city),
                                 serve::FingerprintOf(tenant->config));

  auto model = std::make_unique<core::O2SiteRecRecommender>(tenant->config);
  const TrainOutcome trained =
      TrainAndRank(*model, *tenant->prepared, options, "core.train", ledger);
  if (!trained.ok) return;
  *ndcg3 += trained.ndcg3 / kTenants;

  const sim::Dataset& data = tenant->prepared->data;
  core::InteractionList interactions = tenant->prepared->split.train;
  interactions.insert(interactions.end(), tenant->prepared->split.test.begin(),
                      tenant->prepared->split.test.end());
  serve::SnapshotMeta meta;
  meta.model_name = model->Name();
  meta.config_hash = tenant->config_hash;
  meta.num_regions = data.num_regions();
  meta.num_types = data.num_types();
  meta.type_norm = serve::TypeNormalizers(data.num_types(), interactions);
  tenant->snapshot_path =
      options.work_dir + "/serve/" + tenant->name + ".o2ss";
  ledger->Attempt();
  const common::Status exported =
      serve::ExportSnapshot(tenant->snapshot_path, meta, *model);
  if (!exported.ok()) {
    ledger->Fail("ExportSnapshot: " + exported.ToString());
    return;
  }

  std::vector<int> regions;
  for (int r = 0; r < data.num_regions(); ++r) {
    if (model->CanScoreRegion(r)) regions.push_back(r);
  }
  std::mt19937_64 rng(SubSeed(options.seed, 130 + index));
  tenant->requests = MakeRequests(regions, data.num_types(),
                                  options.smoke ? 256 : kRequestsPerTenant,
                                  rng);

  ledger->Attempt();
  const common::Status registered = registry->Register(
      tenant->name, std::move(model), PinnedServingOptions());
  if (!registered.ok()) {
    ledger->Fail("Register: " + registered.ToString());
    return;
  }
  const serve::TenantRegistry::TenantPtr pinned =
      registry->Get(tenant->name).value();
  exec::PoolScope pool_scope(query_pool);
  for (const serve::RankRequest& request : tenant->requests) {
    ledger->Attempt();
    if (!pinned->engine->Rank(request).ok()) {
      ledger->Fail(tenant->name + " warm-up request failed");
    }
  }
}

// Scores every (scorable region, type) pair once through ServingPredict
// and derives each request's reference top-K from that table.
void ComputeReferences(const serve::TenantRegistry& registry, Tenant* tenant,
                       Ledger* ledger) {
  const serve::TenantRegistry::TenantPtr pinned =
      registry.Get(tenant->name).value();
  const core::SiteRecommender& model = *pinned->model;
  const sim::Dataset& data = tenant->prepared->data;
  core::InteractionList pairs;
  for (int r = 0; r < data.num_regions(); ++r) {
    if (!model.CanScoreRegion(r)) continue;
    for (int t = 0; t < data.num_types(); ++t) pairs.push_back({r, t});
  }
  ledger->Attempt();
  const auto scores = model.ServingPredict(pairs);
  if (!scores.ok()) {
    ledger->Fail("ServingPredict: " + scores.status().ToString());
    return;
  }
  std::map<std::pair<int, int>, double> table;
  for (size_t i = 0; i < pairs.size(); ++i) {
    table[{pairs[i].region, pairs[i].type}] = (*scores)[i];
  }
  tenant->expected.clear();
  for (const serve::RankRequest& request : tenant->requests) {
    tenant->expected.push_back(ReferenceTopK(request, table));
  }
}

// What one sender saw during one window.
struct SenderLog {
  std::vector<double> latency_ms;  // done - due
  std::vector<double> service_us;  // done - send
  double backlog_ms = 0.0;         // how far behind schedule it ended
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  // Responses compared with the reference, per tenant.
  uint64_t checked[kTenants] = {};
};

// One rung over every window it ran in.
struct RungLog {
  std::vector<double> latency_ms;
  std::vector<double> service_us;
  std::vector<double> achieved;    // completions per second, per window
  std::vector<double> window_p50;  // p50 latency, per window
  std::vector<double> backlog_ms;  // generator lateness at the end, per window

  // Merges one window's sender logs (and their operation counts).
  void Add(const std::vector<SenderLog>& logs, double window_s,
           Ledger* ledger) {
    double window_backlog_ms = 0.0;
    std::vector<double> window_ms;
    for (const SenderLog& log : logs) {
      window_ms.insert(window_ms.end(), log.latency_ms.begin(),
                       log.latency_ms.end());
      service_us.insert(service_us.end(), log.service_us.begin(),
                        log.service_us.end());
      window_backlog_ms = std::max(window_backlog_ms, log.backlog_ms);
      ledger->Attempt(log.attempted);
      if (log.failed > 0) ledger->Fail(log.first_failure, log.failed);
    }
    achieved.push_back(static_cast<double>(window_ms.size()) / window_s);
    window_p50.push_back(Quantile(window_ms, 0.5));
    latency_ms.insert(latency_ms.end(), window_ms.begin(), window_ms.end());
    backlog_ms.push_back(window_backlog_ms);
  }
};

struct StreamEntry {
  int tenant = 0;
  int request = 0;
};

void Send(const std::vector<Tenant>& tenants,
          const std::vector<StreamEntry>& stream,
          const serve::TenantRegistry& registry, exec::ThreadPool* query_pool,
          int sender, double rate, Clock::time_point start,
          Clock::time_point end, SenderLog* log) {
  exec::PoolScope pool_scope(query_pool);
  const auto fail = [&](const std::string& what) {
    if (log->failed++ == 0) log->first_failure = what;
  };
  const double period_s = 1.0 / rate;
  // `sent` counts this sender's own requests, so the check below samples
  // every sender (and therefore every tenant) alike.
  uint64_t sent = 0;
  for (uint64_t i = static_cast<uint64_t>(sender);; i += kSenders, ++sent) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(period_s *
                                                  static_cast<double>(i)));
    if (due >= end) break;
    Clock::time_point now = Clock::now();
    if (now >= end) {
      log->backlog_ms =
          std::chrono::duration<double, std::milli>(end - due).count();
      break;
    }
    while (now < due) now = Clock::now();
    const StreamEntry entry = stream[i % stream.size()];
    const Tenant& tenant = tenants[static_cast<size_t>(entry.tenant)];
    ++log->attempted;
    auto pinned = registry.Get(tenant.name);
    if (!pinned.ok()) {
      fail("registry lookup: " + pinned.status().ToString());
      continue;
    }
    const auto response =
        (*pinned)->engine->Rank(tenant.requests[entry.request]);
    const Clock::time_point done = Clock::now();
    log->latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - due).count());
    log->service_us.push_back(
        std::chrono::duration<double, std::micro>(done - now).count());
    if (!response.ok()) {
      fail(tenant.name + " Rank: " + response.status().ToString());
    } else if (response->tier != serve::ServeTier::kFresh) {
      fail(tenant.name + " served a " +
           std::string(serve::ServeTierName(response->tier)) + " response");
    } else if (sent % kCheckEvery == 0) {
      ++log->checked[entry.tenant];
      if (!SameSites(response->sites, tenant.expected[entry.request])) {
        fail(tenant.name + " top-K differs from the ServingPredict reference");
      }
    }
  }
}

// The swap loop of serve_swap, run on its own thread during the ladder.
struct SwapLog {
  std::vector<double> swap_ms;
  std::vector<double> prepare_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
};

void SwapLoop(exec::ThreadPool* pool, const std::vector<Tenant>& tenants,
              serve::TenantRegistry* registry, Clock::time_point start,
              const std::atomic<bool>& stop, SwapLog* log) {
  exec::PoolScope pool_scope(pool);
  const auto fail = [&](const std::string& what) {
    if (log->failed++ == 0) log->first_failure = what;
  };
  for (int swap = 0; !stop.load(std::memory_order_relaxed); ++swap) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(kSwapPeriodMs *
                                                              swap));
    while (Clock::now() < due) {
      if (stop.load(std::memory_order_relaxed)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Tenant& tenant = tenants[static_cast<size_t>(swap % kTenants)];
    ++log->attempted;
    const Clock::time_point swap_start = Clock::now();
    auto staged = std::make_unique<core::O2SiteRecRecommender>(tenant.config);
    const common::Status prepared =
        staged->PrepareServing(ContextOf(*tenant.prepared, pool));
    log->prepare_ms.push_back(MsSince(swap_start));
    if (!prepared.ok()) {
      fail("PrepareServing: " + prepared.ToString());
      continue;
    }
    const auto report = registry->Swap(tenant.name, tenant.snapshot_path,
                                       std::move(staged), tenant.config_hash);
    log->swap_ms.push_back(MsSince(swap_start));
    if (!report.ok()) {
      fail("Swap: " + report.status().ToString());
    } else if (!report->promoted) {
      fail(tenant.name + " swap not promoted: " +
           report->reject_reason.ToString());
    }
  }
}

struct EngineTotals {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t pairs_scored = 0;
  uint64_t degraded = 0;
};

EngineTotals Totals(const serve::TenantRegistry& registry,
                    const std::vector<Tenant>& tenants) {
  EngineTotals totals;
  for (const Tenant& tenant : tenants) {
    const auto pinned = registry.Get(tenant.name).value();
    const serve::ScoreCache::Stats cache = pinned->engine->CacheStats();
    totals.hits += cache.hits;
    totals.misses += cache.misses;
    totals.pairs_scored += pinned->engine->pairs_scored_count();
    totals.degraded += pinned->engine->degraded_count();
  }
  return totals;
}

double PerPairServingPredictUs(const serve::TenantRegistry& registry,
                               const Tenant& tenant) {
  const auto pinned = registry.Get(tenant.name).value();
  core::InteractionList pairs;
  for (int region : tenant.requests.front().candidates) {
    if (pinned->model->CanScoreRegion(region)) {
      pairs.push_back({region, tenant.requests.front().type});
    }
  }
  std::vector<double> us;
  for (int i = 0; i < 200 && !pairs.empty(); ++i) {
    const Clock::time_point start = Clock::now();
    const auto scores = pinned->model->ServingPredict(pairs);
    us.push_back(MsSince(start) * 1e3);
    if (!scores.ok()) return 0.0;
  }
  return pairs.empty() ? 0.0 : Median(us) / static_cast<double>(pairs.size());
}

}  // namespace

void RunServe(const RunOptions& options, bool swap, Ledger* ledger) {
  const double* rates = swap ? kSwapLadder : kHotLadder;
  std::error_code error;
  fs::remove_all(options.work_dir + "/serve", error);
  fs::create_directories(options.work_dir + "/serve", error);
  if (error) {
    ledger->Fail("cannot create the snapshot directory: " + error.message());
    return;
  }

  // Queries run on a one-lane pool; training, engine creation and swaps on
  // the run's pool. Scoring a request's <= 48 pairs never fans out, so the
  // work is the same, but every planned forward on a multi-lane pool opens
  // an exec::Session, and a burst of such short sessions can trip a race in
  // ThreadPool::WorkerLoop: a worker woken for a session that has already
  // closed falls through to the region path and calls a null region
  // function (segfault).
  exec::ThreadPool query_pool(1, "suite.query_pool");

  // Set-up, per tenant: dataset + split, training, snapshot export,
  // engine creation and cache warm-up. setup_s is the median tenant.
  serve::TenantRegistry registry;
  std::vector<Tenant> tenants(kTenants);
  std::vector<double> setup_s;
  double ndcg3 = 0.0;
  for (int i = 0; i < kTenants; ++i) {
    const Clock::time_point start = Clock::now();
    SetUpTenant(options, i, &query_pool, &registry, &tenants[i], ledger,
                &ndcg3);
    if (ledger->failed() > 0) return;
    setup_s.push_back(SecondsSince(start));
    {
      exec::PoolScope pool_scope(&query_pool);
      ComputeReferences(registry, &tenants[i], ledger);
    }
    if (ledger->failed() > 0) return;
  }
  ledger->SetE2e("setup_s", Median(setup_s));

  // Entry i goes to sender i % kSenders, which fronts tenants sender,
  // sender + kSenders, ...
  std::vector<StreamEntry> stream(kStreamLength);
  {
    std::mt19937_64 rng(SubSeed(options.seed, 140));
    std::uniform_int_distribution<int> tenant(0, kTenants / kSenders - 1);
    std::uniform_int_distribution<int> request(
        0, static_cast<int>(tenants[0].requests.size()) - 1);
    for (size_t i = 0; i < stream.size(); ++i) {
      const int sender = static_cast<int>(i % kSenders);
      stream[i] = {sender + kSenders * tenant(rng), request(rng)};
    }
  }

  const EngineTotals before = Totals(registry, tenants);
  const ProfileDelta profile_before = ProfileNow();
  // One timeline of back-to-back windows of one swap period each, as many
  // as fit in the run's seconds: window w starts at t0 + w * window_s, and
  // serve_swap starts swap k at t0 + k * window_s. Every window therefore
  // begins with a swap, and a slow moment of the host lands in some windows
  // of a rung, not in all of them.
  const double window_s = kSwapPeriodMs / 1e3;
  const int windows = std::max(
      kLadderWindows, static_cast<int>(options.seconds / window_s));
  const double saturated_ms =
      std::min(kSaturatedLatenessMs, window_s * 1e3 / 4);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto at = [&](int window) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(window_s * window));
  };
  // Swaps run on the lanes the senders leave free, so the benchmark's own
  // threads never outnumber the run's lanes: a swap that preempted a sender
  // would charge its requests for the benchmark's oversubscription.
  exec::ThreadPool swap_pool(
      std::max(1, options.pool->num_threads() - kSenders), "suite.swap_pool");
  std::atomic<bool> stop_swaps{false};
  SwapLog swap_log;
  std::thread swapper;
  if (swap) {
    swapper = std::thread(SwapLoop, &swap_pool, std::cref(tenants), &registry,
                          t0, std::cref(stop_swaps), &swap_log);
  }
  std::vector<RungLog> rungs(kRungs);
  uint64_t checked[kTenants] = {};
  for (int window = 0; window < windows; ++window) {
    const int rung = kCycle[window % kCycleWindows];
    const Clock::time_point start = at(window);
    const Clock::time_point end = at(window + 1);
    std::vector<SenderLog> logs(kSenders);
    std::vector<std::thread> senders;
    for (int s = 0; s < kSenders; ++s) {
      senders.emplace_back(Send, std::cref(tenants), std::cref(stream),
                           std::cref(registry), &query_pool, s, rates[rung],
                           start, end, &logs[s]);
    }
    for (std::thread& sender : senders) sender.join();
    rungs[rung].Add(logs, window_s, ledger);
    for (const SenderLog& log : logs) {
      for (int t = 0; t < kTenants; ++t) checked[t] += log.checked[t];
    }
    if (window + 1 == kLadderWindows) {
      ledger->SetE2e("peak_rss_mb", PeakRssMb());
    }
  }
  stop_swaps.store(true);
  if (swapper.joinable()) swapper.join();
  const EngineTotals after = Totals(registry, tenants);

  if (Median(rungs[kTopRung].backlog_ms) <= saturated_ms) {
    ledger->Fail("the top rung did not saturate");
  }
  // The smoke test also runs in sanitizer builds, whose capacity can sit
  // below the reference rate.
  if (!options.smoke &&
      Median(rungs[kReferenceRung].backlog_ms) > saturated_ms) {
    ledger->Fail("the reference rung saturated");
  }
  // The best window of each rung (see RepeatFor in suite.h for why).
  ledger->SetE2e("latency_ms", Quantile(rungs[kReferenceRung].window_p50, 0.0));
  ledger->SetE2e("throughput", Quantile(rungs[kTopRung].achieved, 1.0));
  ledger->Attempt(swap_log.attempted);
  if (swap_log.failed > 0) {
    ledger->Fail(swap_log.first_failure, swap_log.failed);
  }
  if (swap && swap_log.swap_ms.empty()) ledger->Fail("no swap ran");
  for (int t = 0; t < kTenants; ++t) {
    if (checked[t] == 0) {
      ledger->Fail(tenants[t].name +
                   " had no response checked against its reference");
    }
  }
  if (after.degraded != before.degraded) {
    ledger->Fail("degraded responses were served");
  }

  if (!ledger->traced()) return;
  for (int rung = 0; rung < kRungs; ++rung) {
    const RungLog& log = rungs[rung];
    const std::string prefix = "serve.rung" + std::to_string(rung) + ".";
    ledger->SetLayer(prefix + "achieved_qps", Median(log.achieved));
    ledger->SetLayer(prefix + "p50_ms", Quantile(log.latency_ms, 0.5));
    ledger->SetLayer(prefix + "p99_ms", Quantile(log.latency_ms, 0.99));
    ledger->SetLayer(prefix + "samples", log.latency_ms.size());
    ledger->SetLayer(prefix + "lateness_ms", Quantile(log.backlog_ms, 1.0));
  }
  const double lookups = static_cast<double>(
      (after.hits - before.hits) + (after.misses - before.misses));
  ledger->SetLayer("serve.cache_hit_rate",
                   lookups > 0 ? (after.hits - before.hits) / lookups : 0.0);
  ledger->SetLayer("serve.service_us_p50",
                   Median(rungs[kReferenceRung].service_us));
  ledger->SetLayer("serve.pairs_scored",
                   static_cast<double>(after.pairs_scored - before.pairs_scored));
  ledger->SetLayer("serve.degraded_responses",
                   static_cast<double>(after.degraded - before.degraded));
  ledger->SetLayer("serve.swaps", static_cast<double>(swap_log.swap_ms.size()));
  ledger->SetLayer("serve.swap_ms_p50", Median(swap_log.swap_ms));
  ledger->SetLayer("core.prepare_serving_ms", Median(swap_log.prepare_ms));
  {
    exec::PoolScope pool_scope(&query_pool);
    ledger->SetLayer("core.serving_predict_us_per_pair",
                     PerPairServingPredictUs(registry, tenants[0]));
  }
  PublishMedianMs(ledger, "sim.generate_dataset");
  PublishMedianMs(ledger, "eval.split");
  PublishMedianMs(ledger, "core.train");
  PublishTrainerSpans(ledger);
  ledger->SetLayer("eval.ndcg3", ndcg3);
  PublishKernelProfile(ledger, ProfileSince(profile_before), 1, 0.0);
}

}  // namespace o2sr::suite
