// Serving throughput: replays a synthetic query stream (mixed store types,
// Zipf-skewed candidate regions) against a ServingEngine and reports QPS,
// latency quantiles and cache hit-rate into BENCH_serving.json.
//
// Two passes over the same stream: the first starts with a cold score
// cache (every pair goes through the model), the second replays warm.
// Because scores are deterministic, the warm pass returns identical
// rankings — the delta is pure throughput, which is the point of the
// cache. The bench asserts nothing; ci.sh checks qps_warm > qps_cold from
// the JSON.
//
// A third pass replays the stream against a fresh engine under *deadlines*
// (DESIGN.md §10): queries arrive on a fixed cadence faster than the cold
// engine can serve, each carrying a small budget from its scheduled
// arrival. When the engine falls behind, lagging requests are already out
// of budget at admission and are shed instead of queueing, so the p99 of
// the requests actually served stays bounded — the JSON records that p99
// and the shed-rate next to the no-deadline numbers.
//
// A fourth pass measures the multi-tenant saturation curve (DESIGN.md
// §14): four cities, each a model trained on its own simulated world,
// hosted side by side in one TenantRegistry. N closed-loop driver threads
// (N in {1, 2, 4}) round-robin batched requests (RankSitesBatch, batch
// size O2SR_SERVE_BATCH) across the tenants; the JSON records QPS and p99
// per thread count plus the 4-thread-over-1-thread speedup. At standard
// scale the three points together push over a million queries through the
// registry.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/o2siterec_recommender.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "serve/engine.h"
#include "serve/score_cache.h"
#include "serve/tenant.h"

namespace {

using namespace o2sr;

struct Query {
  int type = 0;
  std::vector<int> candidates;
};

// Zipf-skewed sampling over a popularity ranking of the store regions:
// candidate r is drawn with weight 1 / (rank + 1), so a few hot regions
// dominate the stream the way hot city districts dominate real site
// queries.
std::vector<Query> MakeQueryStream(int num_queries, int candidates_per_query,
                                   const std::vector<int>& regions,
                                   int num_types, Rng& rng) {
  std::vector<double> weights(regions.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  std::vector<Query> stream(num_queries);
  for (Query& q : stream) {
    q.type = rng.UniformInt(0, num_types - 1);
    q.candidates.resize(candidates_per_query);
    for (int& c : q.candidates) {
      c = regions[rng.Categorical(weights)];
    }
  }
  return stream;
}

double ReplayQps(const serve::ServingEngine& engine,
                 const std::vector<Query>& stream, int k) {
  const auto start = std::chrono::steady_clock::now();
  for (const Query& q : stream) {
    O2SR_CHECK_OK(engine.RankSites(q.type, q.candidates, k).status());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(stream.size()) / std::max(seconds, 1e-9);
}

double QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(q * static_cast<double>(
                                                 values.size() - 1));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(idx), values.end());
  return values[idx];
}

struct DeadlineReplay {
  double period_ms = 0.0;  // arrival cadence
  double budget_ms = 0.0;  // per-query budget from scheduled arrival
  double qps = 0.0;
  double p99_ms = 0.0;     // over served (non-shed) queries only
  uint64_t shed = 0;       // rejected at admission (pre-expired deadline)
  double shed_rate = 0.0;
  double degraded_rate = 0.0;  // served below fresh tier
  double failed_rate = 0.0;    // expired mid-flight, ladder exhausted
};

// Replays the stream under per-request deadlines against a cold engine.
// Queries arrive on a fixed cadence `overload` times faster than the cold
// engine's measured throughput, each with a small budget counted from its
// *scheduled* arrival. Once the engine lags more than the budget, the
// laggards are pre-expired at admission and shed — the served p99 stays
// bounded at roughly the budget while the shed-rate absorbs the overload.
DeadlineReplay ReplayWithDeadlines(const serve::ServingEngine& engine,
                                   const std::vector<Query>& stream, int k,
                                   double qps_cold, double overload) {
  DeadlineReplay out;
  out.period_ms = 1000.0 / std::max(qps_cold * overload, 1.0);
  out.budget_ms = 4.0 * out.period_ms;

  std::vector<double> served_ms;
  served_ms.reserve(stream.size());
  uint64_t degraded = 0, failed = 0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    const auto arrival =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        out.period_ms * static_cast<double>(i)));
    auto now = std::chrono::steady_clock::now();
    if (now < arrival) {  // ahead of schedule: wait for the arrival
      std::this_thread::sleep_until(arrival);
      now = std::chrono::steady_clock::now();
    }
    const double remaining_ms =
        out.budget_ms -
        std::chrono::duration<double, std::milli>(now - arrival).count();

    serve::RankRequest request;
    request.type = stream[i].type;
    request.candidates = stream[i].candidates;
    request.k = k;
    request.deadline = serve::Deadline::AfterMs(remaining_ms);
    const auto response = engine.Rank(request);
    if (response.ok()) {
      served_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - now)
                              .count());
      if (response->tier != serve::ServeTier::kFresh) ++degraded;
    } else if (response.status().code() ==
               common::StatusCode::kResourceExhausted) {
      // Admission-time sheds carry the engine's "request shed" marker; a
      // RESOURCE_EXHAUSTED without it expired mid-flight and exhausted the
      // fallback ladder.
      if (response.status().message().find("request shed") !=
          std::string::npos) {
        ++out.shed;
      } else {
        ++failed;
      }
    } else {
      O2SR_CHECK_OK(response.status());
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double total = static_cast<double>(stream.size());
  out.qps = static_cast<double>(served_ms.size()) / std::max(seconds, 1e-9);
  out.p99_ms = QuantileOf(std::move(served_ms), 0.99);
  out.shed_rate = static_cast<double>(out.shed) / total;
  out.degraded_rate = static_cast<double>(degraded) / total;
  out.failed_rate = static_cast<double>(failed) / total;
  return out;
}

// --- Multi-tenant saturation (DESIGN.md §14) ---------------------------

// One hosted city: its trained model lives in the registry; the bench
// keeps the pre-built request stream.
struct TenantWorkload {
  std::string name;
  std::vector<serve::RankRequest> requests;  // length divisible by batch
};

struct SaturationPoint {
  int threads = 0;
  uint64_t queries = 0;
  double qps = 0.0;
  double p99_ms = 0.0;
};

// N closed-loop driver threads, each pinning every tenant once and
// round-robining batched spans across them. Per-query latency is the
// batch wall time divided across its span (the driver observes batches,
// not requests). Every response must be OK: the tenants are healthy and
// nothing sheds by construction.
SaturationPoint RunSaturationPoint(serve::TenantRegistry& registry,
                                   const std::vector<TenantWorkload>& tenants,
                                   int threads, uint64_t total_queries,
                                   int batch) {
  SaturationPoint point;
  point.threads = threads;
  const uint64_t per_thread =
      (total_queries / (static_cast<uint64_t>(threads) *
                        static_cast<uint64_t>(batch))) *
      static_cast<uint64_t>(batch);
  point.queries = per_thread * static_cast<uint64_t>(threads);

  std::vector<std::vector<double>> latencies(threads);
  std::atomic<uint64_t> failures{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  drivers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    drivers.emplace_back([&, t] {
      std::vector<serve::TenantRegistry::TenantPtr> pins;
      pins.reserve(tenants.size());
      for (const TenantWorkload& tenant : tenants) {
        pins.push_back(registry.Get(tenant.name).value());
      }
      std::vector<double>& out = latencies[t];
      out.reserve(per_thread);
      // Decorrelated start offsets so threads do not march in lockstep
      // over the same keys.
      std::vector<size_t> offsets(tenants.size());
      for (size_t i = 0; i < offsets.size(); ++i) {
        offsets[i] = (static_cast<size_t>(t) * 977 * batch) %
                     tenants[i].requests.size();
      }
      size_t which = static_cast<size_t>(t) % tenants.size();
      for (uint64_t issued = 0; issued < per_thread;
           issued += static_cast<uint64_t>(batch)) {
        const TenantWorkload& tenant = tenants[which];
        size_t& offset = offsets[which];
        const std::span<const serve::RankRequest> span(
            tenant.requests.data() + offset, static_cast<size_t>(batch));
        const auto batch_start = std::chrono::steady_clock::now();
        const auto responses = pins[which]->engine->RankSitesBatch(span);
        const double batch_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - batch_start)
                .count();
        for (const auto& response : responses) {
          if (!response.ok()) failures.fetch_add(1);
        }
        const double per_query_ms = batch_ms / static_cast<double>(batch);
        for (int j = 0; j < batch; ++j) out.push_back(per_query_ms);
        offset = (offset + static_cast<size_t>(batch)) %
                 tenant.requests.size();
        which = (which + 1) % tenants.size();
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  O2SR_CHECK(failures.load() == 0);

  std::vector<double> merged;
  merged.reserve(point.queries);
  for (std::vector<double>& per_thread_ms : latencies) {
    merged.insert(merged.end(), per_thread_ms.begin(), per_thread_ms.end());
  }
  point.qps = static_cast<double>(point.queries) / std::max(seconds, 1e-9);
  point.p99_ms = QuantileOf(std::move(merged), 0.99);
  return point;
}

}  // namespace

int main() {
  using namespace o2sr;
  bench::BenchReport report(
      "serving", "Online serving: cached top-K ranking throughput",
      "serving engine (no paper counterpart)");

  const bench::Scale scale = bench::CurrentScale();
  const int num_queries = scale == bench::Scale::kSmall ? 1500 : 6000;
  const int candidates_per_query = 48;
  const int k = 10;

  sim::SimConfig world = bench::SweepConfig();
  bench::PreparedData prepared(world, /*split_seed=*/3);

  core::O2SiteRecConfig model_cfg;
  model_cfg.rec.embedding_dim = 24;
  model_cfg.epochs = scale == bench::Scale::kSmall ? 4 : 10;
  core::O2SiteRecRecommender model(model_cfg);
  O2SR_CHECK_OK(model.Train(bench::MakeTrainContext(prepared)));

  // Scorable store regions; the Zipf head of the stream concentrates on
  // the first few of them.
  std::vector<int> regions;
  for (int r = 0; r < prepared.data.num_regions(); ++r) {
    if (model.CanScoreRegion(r)) regions.push_back(r);
  }
  O2SR_CHECK(!regions.empty());

  Rng rng(123);
  const std::vector<Query> stream = MakeQueryStream(
      num_queries, candidates_per_query, regions,
      prepared.data.num_types(), rng);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto engine = serve::ServingEngine::Create(&model).value();

  const double qps_cold = ReplayQps(*engine, stream, k);
  const uint64_t cold_hits = registry.GetCounter("serve.cache.hits")->value();
  const uint64_t cold_misses =
      registry.GetCounter("serve.cache.misses")->value();

  const double qps_warm = ReplayQps(*engine, stream, k);
  const uint64_t total_hits =
      registry.GetCounter("serve.cache.hits")->value();
  const uint64_t total_misses =
      registry.GetCounter("serve.cache.misses")->value();

  const uint64_t lookups = total_hits + total_misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(total_hits) /
                         static_cast<double>(lookups);
  const uint64_t warm_lookups =
      (total_hits - cold_hits) + (total_misses - cold_misses);
  const double warm_hit_rate =
      warm_lookups == 0
          ? 0.0
          : static_cast<double>(total_hits - cold_hits) /
                static_cast<double>(warm_lookups);

  obs::Histogram* latency =
      registry.GetHistogram("serve.rank_latency_ms",
                            obs::DefaultLatencyBucketsMs());

  // Deadline pass: a fresh engine (cold cache) under an overloaded arrival
  // schedule, with the popularity prior as the last ladder rung so queries
  // that expire mid-flight degrade instead of failing. The no-deadline
  // passes above never shed by construction. The SLO threshold is set to
  // the per-query budget, so the engine's burn rate directly measures how
  // far past its error budget the overload pushes it.
  const double overload = 1.5;
  serve::ServingOptions dl_options;
  dl_options.prior = serve::BuildPopularityPrior(prepared.data.num_types(),
                                                 prepared.split.train);
  dl_options.slo_ms = 4.0 * 1000.0 / std::max(qps_cold * overload, 1.0);
  dl_options.slo_target = 0.99;
  const auto engine_dl =
      serve::ServingEngine::Create(&model, dl_options).value();
  const DeadlineReplay dl =
      ReplayWithDeadlines(*engine_dl, stream, k, qps_cold, overload);
  // Every RESOURCE_EXHAUSTED the replay saw must be a shed the engine
  // counted, and vice versa.
  O2SR_CHECK(engine_dl->shed_count() == dl.shed);
  const obs::SloSnapshot slo = engine_dl->slo().Snapshot();

  report.AddValue("queries", static_cast<double>(num_queries));
  report.AddValue("candidates_per_query",
                  static_cast<double>(candidates_per_query));
  report.AddValue("qps_cold", qps_cold);
  report.AddValue("qps_warm", qps_warm);
  report.AddValue("speedup_warm_over_cold", qps_warm / qps_cold);
  report.AddValue("p50_ms", latency->Quantile(0.50));
  report.AddValue("p95_ms", latency->Quantile(0.95));
  report.AddValue("p99_ms", latency->Quantile(0.99));
  report.AddValue("cache_hit_rate", hit_rate);
  report.AddValue("warm_pass_hit_rate", warm_hit_rate);
  report.AddValue("nodeadline_p99_ms", latency->Quantile(0.99));
  report.AddValue("nodeadline_shed_rate", 0.0);
  report.AddValue("deadline_budget_ms", dl.budget_ms);
  report.AddValue("deadline_qps_served", dl.qps);
  report.AddValue("deadline_p99_ms", dl.p99_ms);
  report.AddValue("deadline_shed_rate", dl.shed_rate);
  report.AddValue("deadline_degraded_rate", dl.degraded_rate);
  report.AddValue("deadline_failed_rate", dl.failed_rate);
  report.AddValue("slo_ms", slo.config.slo_ms);
  report.AddValue("slo_target", slo.config.target);
  report.AddValue("slo_bad_fraction", slo.bad_fraction);
  report.AddValue("slo_burn_rate", slo.burn_rate);
  report.AddValue("slo_breached", slo.breached ? 1.0 : 0.0);
  report.AddValue("slo_window_p99_ms", slo.p99_ms);

  // --- Multi-tenant saturation curve (DESIGN.md §14) -------------------
  // Four cities, each trained on its own drifted world seed, hosted in one
  // registry; {1, 2, 4} closed-loop driver threads round-robin batched
  // requests across them.
  constexpr int kTenants = 4;
  const int batch =
      static_cast<int>(common::EnvInt(common::Knob::kServeBatch, 16));
  const uint64_t base_queries =
      scale == bench::Scale::kSmall ? 6000 : 150000;

  serve::TenantRegistry tenant_registry;
  std::vector<TenantWorkload> tenants;
  for (int i = 0; i < kTenants; ++i) {
    sim::SimConfig city = bench::SweepConfig();
    city.seed = 101 + static_cast<uint64_t>(i) * 17;  // four distinct cities
    bench::PreparedData city_data(city, /*split_seed=*/3);

    core::O2SiteRecConfig city_cfg;
    city_cfg.rec.embedding_dim = 16;
    city_cfg.epochs = scale == bench::Scale::kSmall ? 2 : 3;
    city_cfg.seed = 7 + static_cast<uint64_t>(i);
    auto city_model = std::make_unique<core::O2SiteRecRecommender>(city_cfg);
    O2SR_CHECK_OK(city_model->Train(bench::MakeTrainContext(city_data)));

    std::vector<int> city_regions;
    for (int r = 0; r < city_data.data.num_regions(); ++r) {
      if (city_model->CanScoreRegion(r)) city_regions.push_back(r);
    }
    O2SR_CHECK(!city_regions.empty());

    TenantWorkload workload;
    workload.name = "city" + std::to_string(i);
    Rng city_rng(900 + static_cast<uint64_t>(i));
    const int stream_len = batch * 256;
    for (const Query& q :
         MakeQueryStream(stream_len, candidates_per_query, city_regions,
                         city_data.data.num_types(), city_rng)) {
      serve::RankRequest request;
      request.type = q.type;
      request.candidates = q.candidates;
      request.k = k;
      workload.requests.push_back(std::move(request));
    }

    serve::ServingOptions city_options;
    city_options.num_shards = 4;  // one front-end shard per driver thread
    city_options.prior = serve::BuildPopularityPrior(
        city_data.data.num_types(), city_data.split.train);
    O2SR_CHECK_OK(tenant_registry.Register(
        workload.name, std::move(city_model), city_options));
    tenants.push_back(std::move(workload));
  }

  // Short warm pass so every point measures the steady (cached) state.
  (void)RunSaturationPoint(tenant_registry, tenants, 1,
                           static_cast<uint64_t>(batch) * kTenants * 8,
                           batch);

  std::vector<SaturationPoint> curve;
  uint64_t mt_total = 0;
  for (const int threads : {1, 2, 4}) {
    curve.push_back(RunSaturationPoint(
        tenant_registry, tenants, threads,
        base_queries * static_cast<uint64_t>(threads), batch));
    mt_total += curve.back().queries;
    report.AddValue("mt_queries_t" + std::to_string(threads),
                    static_cast<double>(curve.back().queries));
    report.AddValue("mt_qps_t" + std::to_string(threads), curve.back().qps);
    report.AddValue("mt_p99_ms_t" + std::to_string(threads),
                    curve.back().p99_ms);
  }
  const double mt_speedup = curve.back().qps / std::max(curve[0].qps, 1e-9);
  report.AddValue("mt_tenants", static_cast<double>(kTenants));
  report.AddValue("mt_batch", static_cast<double>(batch));
  report.AddValue("mt_total_queries", static_cast<double>(mt_total));
  report.AddValue("mt_speedup_t4", mt_speedup);

  std::printf(
      "\n  queries            %d (x2 passes, %d candidates each, k=%d)\n"
      "  qps cold / warm    %.0f / %.0f (%.1fx)\n"
      "  latency p50/p95/p99  %.3f / %.3f / %.3f ms\n"
      "  cache hit rate     %.3f overall, %.3f warm pass\n"
      "  deadline pass      budget %.3f ms, served p99 %.3f ms, "
      "shed %.3f, degraded %.3f\n"
      "  slo                %.3f ms @ %.2f target: bad %.3f, "
      "burn %.2f, breached %s\n",
      num_queries, candidates_per_query, k, qps_cold, qps_warm,
      qps_warm / qps_cold, latency->Quantile(0.50), latency->Quantile(0.95),
      latency->Quantile(0.99), hit_rate, warm_hit_rate, dl.budget_ms,
      dl.p99_ms, dl.shed_rate, dl.degraded_rate, slo.config.slo_ms,
      slo.config.target, slo.bad_fraction, slo.burn_rate,
      slo.breached ? "yes" : "no");
  std::printf("  multi-tenant       %d tenants, batch %d, %llu queries total\n",
              kTenants, batch,
              static_cast<unsigned long long>(mt_total));
  for (const SaturationPoint& point : curve) {
    std::printf("    threads=%d        qps %.0f, p99 %.3f ms (%llu queries)\n",
                point.threads, point.qps, point.p99_ms,
                static_cast<unsigned long long>(point.queries));
  }
  std::printf("  mt speedup t4/t1   %.2fx\n", mt_speedup);
  return 0;
}
