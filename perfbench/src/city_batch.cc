// city_batch: the collector's full pipeline over the Safegraph-like
// city, closed loop. Batches of users go through
// BatchReleaseEngine::ReleaseAllFull one after another (guided POI
// policy, ε = 5, 2 workers). Viterbi dominates per-user time here, so a
// reconstruction optimisation shows; transport and journal never run.
//
// The traced run fans the same batches out over a ThreadPool of the
// same size through CollectorPipeline::ReleaseInto, which also yields
// the per-stage split, and records a span per batch and per user.

#include <algorithm>
#include <iostream>
#include <span>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "workloads.h"
#include "worlds.h"

namespace perfbench {
namespace {

using trajldp::Rng;
using trajldp::Status;
using trajldp::StatusOr;
using trajldp::core::CollectorPipeline;
using trajldp::core::FullRelease;
using trajldp::core::PoiPolicy;
using trajldp::region::RegionTrajectory;

// Batches hold two users of each of the 6 trajectory lengths; the pool
// is 8 batches, cycled.
constexpr size_t kBatchUsers = 12;
constexpr size_t kPoolUsers = 8 * kBatchUsers;
constexpr size_t kWarmupUsers = 2 * kBatchUsers;
constexpr size_t kOptimalitySample = 4;
constexpr size_t kCrossCheckBatches = 2;

struct Setup {
  std::unique_ptr<World> world;
  std::vector<RegionTrajectory> users;
  std::unique_ptr<trajldp::core::BatchReleaseEngine> engine;
};

// Per-user stage totals of the traced path.
struct StageTotals {
  trajldp::core::StageBreakdown stages;
  double span_seconds = 0.0;
  size_t poi_attempts = 0;
};

// The traced path: the engine's per-user unit, fanned out the way
// ReleaseAllFull fans it out (user i of the batch on substream i, one
// workspace per worker per call), with a span per user.
StatusOr<std::vector<FullRelease>> TracedBatch(
    trajldp::ThreadPool& pool, const CollectorPipeline& pipeline,
    std::span<const RegionTrajectory> users, uint64_t batch_seed,
    uint64_t first_user_id, Tracer* tracer, Tracer::SpanId batch_span,
    std::vector<StageTotals>& totals) {
  std::vector<FullRelease> out(users.size());
  std::vector<Status> statuses(users.size());
  std::vector<trajldp::core::PipelineWorkspace> workspaces(
      std::min(pool.size(), users.size()));
  pool.ParallelFor(users.size(), [&](size_t i, size_t worker) {
    const Clock::time_point start = Clock::now();
    Rng rng = CollectorPipeline::UserRng(batch_seed, i);
    trajldp::core::StageBreakdown stages;
    statuses[i] =
        pipeline.ReleaseInto(users[i], rng, workspaces[worker], out[i],
                             &stages);
    const Clock::time_point end = Clock::now();
    tracer->Record("core.release_user", start, end, batch_span,
                   first_user_id + i);
    StageTotals& t = totals[worker];
    t.stages += stages;
    t.span_seconds += SecondsBetween(start, end);
    t.poi_attempts += out[i].poi_attempts;
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return out;
}

// Sequential reference through the same per-user unit.
StatusOr<std::vector<FullRelease>> SequentialBatch(
    const CollectorPipeline& pipeline, std::span<const RegionTrajectory> users,
    uint64_t batch_seed) {
  std::vector<FullRelease> out(users.size());
  trajldp::core::PipelineWorkspace ws;
  for (size_t i = 0; i < users.size(); ++i) {
    Rng rng = CollectorPipeline::UserRng(batch_seed, i);
    TRAJLDP_RETURN_NOT_OK(pipeline.ReleaseInto(users[i], rng, ws, out[i]));
  }
  return out;
}

}  // namespace

void RunCityBatch(const RunOptions& options, Outcome* out) {
  Result& result = out->result;
  // Inputs: users drawn from the seed once; every set-up converts them
  // on its own copy of the world.
  StatusOr<trajldp::model::TrajectorySet> trajectories =
      trajldp::model::TrajectorySet{};
  {
    auto dataset = MakeDataset(WorldKind::kCity);
    if (!dataset.ok()) return result.Fail(dataset.status().ToString());
    trajectories =
        MakeUsers(*dataset, WorldKind::kCity, options.seed, kPoolUsers);
    if (!trajectories.ok()) {
      return result.Fail(trajectories.status().ToString());
    }
  }

  auto setup = RepeatSetup<Setup>(
      [&]() -> StatusOr<std::unique_ptr<Setup>> {
        auto s = std::make_unique<Setup>();
        auto world = MakeWorld(WorldKind::kCity, PoiPolicy::kGuided);
        if (!world.ok()) return world.status();
        s->world = std::move(*world);
        auto users = ToRegions(*s->world, *trajectories);
        if (!users.ok()) return users.status();
        s->users = std::move(*users);
        trajldp::core::BatchReleaseEngine::Config config;
        config.num_threads = options.threads;
        config.poi_policy = PoiPolicy::kGuided;
        s->engine = std::make_unique<trajldp::core::BatchReleaseEngine>(
            &s->world->mech(), config);
        // Warm-up: fill the domain's weight rows for the whole pool (a
        // long-running collector has them), then run a few users through
        // the full pipeline so its workspaces reach steady state.
        auto rows =
            s->engine->ReleaseAll(s->users, MixSeed(options.seed, ~0ULL));
        if (!rows.ok()) return rows.status();
        auto warm = s->engine->ReleaseAllFull(
            std::span(s->users.data(), kWarmupUsers),
            MixSeed(options.seed, ~1ULL));
        if (!warm.ok()) return warm.status();
        return s;
      },
      kCitySetupRepetitions, &out->e2e.setup_s);
  if (!setup.ok()) return result.Fail(setup.status().ToString());
  const World& world = *(*setup)->world;
  const auto& mech = world.mech();
  const std::vector<RegionTrajectory>& users = (*setup)->users;
  const CollectorPipeline pipeline = mech.pipeline(PoiPolicy::kGuided);

  // Traced-run machinery.
  std::unique_ptr<trajldp::ThreadPool> pool;
  std::vector<StageTotals> totals(options.threads);
  if (options.trace) {
    pool = std::make_unique<trajldp::ThreadPool>(options.threads);
  }

  std::vector<RegionTrajectory> inputs;
  std::vector<FullRelease> releases;
  std::vector<double> call_ms;
  const auto cache_before = mech.domain().cache_stats();
  WindowedRate rate(1.0);
  const Clock::time_point t0 = Clock::now();
  rate.Start();
  for (uint64_t k = 0; k == 0 || SecondsSince(t0) < options.seconds; ++k) {
    const size_t first = (k * kBatchUsers) % kPoolUsers;
    const std::span<const RegionTrajectory> batch(users.data() + first,
                                                  kBatchUsers);
    const uint64_t batch_seed = MixSeed(options.seed, k);
    result.attempted += kBatchUsers;
    const Clock::time_point start = Clock::now();
    StatusOr<std::vector<FullRelease>> released = std::vector<FullRelease>{};
    if (options.trace) {
      ScopedSpan span(out->tracer, "engine.batch", Tracer::kNoParent, k);
      released = TracedBatch(*pool, pipeline, batch, batch_seed,
                             k * kBatchUsers, out->tracer, span.id(), totals);
    } else {
      released = (*setup)->engine->ReleaseAllFull(batch, batch_seed);
    }
    call_ms.push_back(1e3 * SecondsSince(start));
    rate.Add(kBatchUsers);
    if (!released.ok()) {
      result.failed += kBatchUsers;
      std::cerr << "batch " << k << ": " << released.status() << "\n";
      continue;
    }
    inputs.insert(inputs.end(), batch.begin(), batch.end());
    releases.insert(releases.end(), std::make_move_iterator(released->begin()),
                    std::make_move_iterator(released->end()));
  }
  const double wall = rate.total_seconds();
  out->e2e.peak_rss_mb = PeakRssMb();
  out->e2e.release_users_per_s = rate.MedianUnitsPerSecond();
  out->e2e.reports_per_s = rate.MedianUnitsPerSecond();
  out->e2e.cpu_ms_per_user = rate.MedianCpuMsPerUnit();
  // A batch's users are released, and its caller acknowledged, when the
  // call returns: both latencies are the call's duration.
  out->e2e.ack_latency_p50_ms = Quantile(call_ms, 0.50);
  std::cout << "city_batch: call latency p99 " << Quantile(call_ms, 0.99)
            << " ms\n";
  std::cout << "city_batch: " << rate.total_units() << " users in " << wall
            << " s, " << call_ms.size() << " batches of " << kBatchUsers
            << ", " << rate.num_windows() << " windows:";
  for (const double r : rate.WindowRates()) std::cout << " " << r;
  std::cout << " /s\n";

  if (options.trace) {
    StageTotals sum;
    for (const StageTotals& t : totals) {
      sum.stages += t.stages;
      sum.span_seconds += t.span_seconds;
      sum.poi_attempts += t.poi_attempts;
    }
    const double n = static_cast<double>(releases.size());
    const auto& st = sum.stages;
    out->layers["core.perturb.us_per_user"] = 1e6 * st.perturb_seconds / n;
    out->layers["core.prep.us_per_user"] =
        1e6 * st.reconstruct_prep_seconds / n;
    out->layers["core.viterbi.us_per_user"] =
        1e6 * st.optimal_reconstruct_seconds / n;
    out->layers["core.poi.us_per_user"] = 1e6 * st.poi_seconds / n;
    out->layers["core.other.us_per_user"] =
        1e6 * (st.other_seconds - st.poi_seconds) / n;
    out->layers["core.poi.attempts_per_user"] =
        static_cast<double>(sum.poi_attempts) / n;
    out->layers["core.engine.busy_ratio"] =
        sum.span_seconds / (wall * static_cast<double>(options.threads));
  }
  const auto cache_after = mech.domain().cache_stats();
  RecordDomainCache(cache_before, cache_after, out);

  // --- Output checks (untimed). ----------------------------------------
  result.Check(checks::ReleaseLengths(inputs, releases));
  result.Check(checks::PoisInRegions(mech, world.dataset.time, releases));
  result.Check(checks::TimesIncrease(releases));
  result.Check(checks::Reachable(world.db(), world.dataset.time,
                                 world.dataset.reachability.speed_kmh,
                                 releases));
  // Optimality on the first users of batch 0: their reports are the
  // device stream ReleaseAll reproduces.
  std::vector<trajldp::core::PerturbedNgramSet> sample_reports;
  for (size_t i = 0; i < kOptimalitySample && i < releases.size(); ++i) {
    Rng rng = CollectorPipeline::UserRng(MixSeed(options.seed, 0), i);
    auto z = mech.perturber().Perturb(users[i], rng);
    if (!z.ok()) return result.Fail(z.status().ToString());
    result.Check(checks::RegionCostOptimal(mech, *z, releases[i].regions));
    sample_reports.push_back(std::move(*z));
  }
  // Traced and untraced paths agree bit for bit: recompute the first
  // batches through the path this run did not take.
  for (uint64_t k = 0;
       k < kCrossCheckBatches && (k + 1) * kBatchUsers <= releases.size();
       ++k) {
    const std::span<const RegionTrajectory> batch(
        users.data() + k * kBatchUsers, kBatchUsers);
    const uint64_t batch_seed = MixSeed(options.seed, k);
    auto other = options.trace
                     ? (*setup)->engine->ReleaseAllFull(batch, batch_seed)
                     : SequentialBatch(pipeline, batch, batch_seed);
    if (!other.ok()) return result.Fail(other.status().ToString());
    result.Check(checks::SameReleases(
        *other, std::span(releases.data() + k * kBatchUsers, kBatchUsers)));
  }
  result.Check(checks::ReleaseNegativeControls(
      mech, world.dataset, inputs, releases,
      sample_reports.empty() ? nullptr : &sample_reports[0]));
}

}  // namespace perfbench
