// city_perturb: the device side over the Safegraph-like city. Fixed-size
// user batches go through BatchReleaseEngine::ReleaseAll (2 workers,
// workspaces created per call), then MakeWireReports and
// EncodeReportBatch frame them as a device would. Path-EM sampling and
// the NgramDomain weight rows are nearly all of the CPU, so a change to
// the domain's cache layout shows here; reconstruction never runs.
//
// The traced run perturbs the same batches over a ThreadPool of the same
// size through NgramPerturber::Perturb, the call ReleaseAll makes per
// user, with a span per batch, per user, and per framing step.

#include <algorithm>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/batch_release_engine.h"
#include "core/streaming_collector.h"
#include "workloads.h"
#include "worlds.h"

namespace perfbench {
namespace {

using trajldp::Rng;
using trajldp::Status;
using trajldp::StatusOr;
using trajldp::core::CollectorPipeline;
using trajldp::core::PerturbedNgramSet;
using trajldp::region::RegionTrajectory;

// Every call perturbs one batch: 960 distinct users (160 of each of the
// 6 trajectory lengths) repeated 5 times, each copy on its own substream.
// A call takes about 0.1 s, long against scheduler hiccups.
constexpr size_t kDistinctUsers = 960;
constexpr size_t kBatchUsers = 5 * kDistinctUsers;
// Batches 0, 32, 64 and 96 keep their reports and frame for the checks.
constexpr uint64_t kCheckEvery = 32;
constexpr uint64_t kCheckedBatches = 4;

struct Setup {
  std::unique_ptr<World> world;
  std::vector<RegionTrajectory> users;
  std::unique_ptr<trajldp::core::BatchReleaseEngine> engine;
};

struct Frame {
  uint64_t batch = 0;
  std::string bytes;
  trajldp::io::ReportBatch reports;
};

StatusOr<std::string> Encode(const trajldp::io::ReportBatch& reports) {
  trajldp::io::WireEncodeOptions options;
  options.include_user_range = true;  // as ReportClient frames batches
  return trajldp::io::EncodeReportBatch(reports, options);
}

// The traced device path: the per-user call ReleaseAll makes (user i of
// the batch on substream i, one sampler workspace per worker per call).
StatusOr<std::vector<PerturbedNgramSet>> TracedPerturb(
    trajldp::ThreadPool& pool, const trajldp::core::NgramPerturber& perturber,
    std::span<const RegionTrajectory> users, uint64_t batch_seed,
    uint64_t first_user_id, Tracer* tracer, Tracer::SpanId batch_span,
    std::vector<double>& busy_seconds) {
  std::vector<PerturbedNgramSet> out(users.size());
  std::vector<Status> statuses(users.size());
  std::vector<trajldp::core::SamplerWorkspace> workspaces(
      std::min(pool.size(), users.size()));
  pool.ParallelFor(users.size(), [&](size_t i, size_t worker) {
    const Clock::time_point start = Clock::now();
    Rng rng = CollectorPipeline::UserRng(batch_seed, i);
    auto z = perturber.Perturb(users[i], rng, workspaces[worker]);
    if (z.ok()) {
      out[i] = std::move(*z);
    } else {
      statuses[i] = z.status();
    }
    const Clock::time_point end = Clock::now();
    tracer->Record("core.perturb_user", start, end, batch_span,
                   first_user_id + i);
    busy_seconds[worker] += SecondsBetween(start, end);
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return out;
}

}  // namespace

void RunCityPerturb(const RunOptions& options, Outcome* out) {
  Result& result = out->result;
  StatusOr<trajldp::model::TrajectorySet> trajectories =
      trajldp::model::TrajectorySet{};
  {
    auto dataset = MakeDataset(WorldKind::kCity);
    if (!dataset.ok()) return result.Fail(dataset.status().ToString());
    trajectories =
        MakeUsers(*dataset, WorldKind::kCity, options.seed, kDistinctUsers);
    if (!trajectories.ok()) {
      return result.Fail(trajectories.status().ToString());
    }
  }

  auto setup = RepeatSetup<Setup>(
      [&]() -> StatusOr<std::unique_ptr<Setup>> {
        auto s = std::make_unique<Setup>();
        auto world = MakeWorld(WorldKind::kCity, std::nullopt);
        if (!world.ok()) return world.status();
        s->world = std::move(*world);
        auto users = ToRegions(*s->world, *trajectories);
        if (!users.ok()) return users.status();
        for (size_t copy = 0; copy < kBatchUsers / kDistinctUsers; ++copy) {
          s->users.insert(s->users.end(), users->begin(), users->end());
        }
        trajldp::core::BatchReleaseEngine::Config config;
        config.num_threads = options.threads;
        s->engine = std::make_unique<trajldp::core::BatchReleaseEngine>(
            &s->world->mech().perturber(), config);
        // Warm-up: one batch fills the domain's weight rows for every user.
        auto warm =
            s->engine->ReleaseAll(s->users, MixSeed(options.seed, ~0ULL));
        if (!warm.ok()) return warm.status();
        return s;
      },
      kCitySetupRepetitions, &out->e2e.setup_s);
  if (!setup.ok()) return result.Fail(setup.status().ToString());
  const auto& mech = (*setup)->world->mech();
  const auto& perturber = mech.perturber();
  const std::vector<RegionTrajectory>& users = (*setup)->users;

  std::unique_ptr<trajldp::ThreadPool> pool;
  std::vector<double> busy_seconds(options.threads, 0.0);
  if (options.trace) {
    pool = std::make_unique<trajldp::ThreadPool>(options.threads);
  }

  std::vector<Frame> kept;
  std::vector<double> perturb_ms;
  std::vector<double> frame_ms;
  double encode_seconds = 0.0;
  uint64_t frame_bytes = 0;
  const auto cache_before = mech.domain().cache_stats();
  WindowedRate rate(1.0);
  const Clock::time_point t0 = Clock::now();
  rate.Start();
  uint64_t batches = 0;
  for (uint64_t k = 0; k == 0 || SecondsSince(t0) < options.seconds; ++k) {
    const std::span<const RegionTrajectory> batch(users);
    const uint64_t batch_seed = MixSeed(options.seed, k);
    result.attempted += kBatchUsers;
    ScopedSpan batch_span(out->tracer, "engine.batch", Tracer::kNoParent, k);
    const Clock::time_point start = Clock::now();
    auto perturbed =
        options.trace
            ? TracedPerturb(*pool, perturber, batch, batch_seed,
                            k * kBatchUsers, out->tracer, batch_span.id(),
                            busy_seconds)
            : (*setup)->engine->ReleaseAll(batch, batch_seed);
    const Clock::time_point perturbed_at = Clock::now();
    if (!perturbed.ok()) {
      result.failed += kBatchUsers;
      std::cerr << "batch " << k << ": " << perturbed.status() << "\n";
      continue;
    }
    trajldp::io::ReportBatch reports;
    {
      ScopedSpan span(out->tracer, "io.make_wire_reports", batch_span.id(), k);
      reports = trajldp::core::MakeWireReports(batch, std::move(*perturbed),
                                               perturber, k * kBatchUsers);
    }
    const Clock::time_point encode_start = Clock::now();
    StatusOr<std::string> frame = std::string();
    {
      ScopedSpan span(out->tracer, "io.encode_frame", batch_span.id(), k);
      frame = Encode(reports);
    }
    const Clock::time_point end = Clock::now();
    rate.Add(kBatchUsers);
    if (!frame.ok()) {
      result.failed += kBatchUsers;
      std::cerr << "batch " << k << ": " << frame.status() << "\n";
      continue;
    }
    ++batches;
    perturb_ms.push_back(1e3 * SecondsBetween(start, perturbed_at));
    frame_ms.push_back(1e3 * SecondsBetween(start, end));
    encode_seconds += SecondsBetween(encode_start, end);
    frame_bytes += frame->size();
    if (k % kCheckEvery == 0 && k / kCheckEvery < kCheckedBatches) {
      kept.push_back({k, std::move(*frame), std::move(reports)});
    }
  }
  const double wall = rate.total_seconds();
  out->e2e.peak_rss_mb = PeakRssMb();
  // Each user's perturbed report is its device-side release.
  out->e2e.release_users_per_s = rate.MedianUnitsPerSecond();
  out->e2e.reports_per_s = rate.MedianUnitsPerSecond();
  out->e2e.cpu_ms_per_user = rate.MedianCpuMsPerUnit();
  // Ack: the engine call returned the batch's reports. Release: the
  // batch's frame is ready to send.
  out->e2e.ack_latency_p50_ms = Quantile(perturb_ms, 0.50);
  std::cout << "city_perturb: ReleaseAll call p99 "
            << Quantile(perturb_ms, 0.99) << " ms, call to frame p99 "
            << Quantile(frame_ms, 0.99) << " ms\n";
  std::cout << "city_perturb: " << rate.total_units() << " reports in " << wall
            << " s, " << batches << " frames of " << kBatchUsers << ", "
            << rate.num_windows() << " windows:";
  for (const double r : rate.WindowRates()) std::cout << " " << r;
  std::cout << " /s\n";

  const double reports = static_cast<double>(batches * kBatchUsers);
  if (options.trace) {
    double busy = 0.0;
    for (const double s : busy_seconds) busy += s;
    out->layers["core.perturb.us_per_user"] = 1e6 * busy / reports;
    out->layers["core.engine.busy_ratio"] =
        busy / (wall * static_cast<double>(options.threads));
  }
  out->layers["io.wire.encode_us_per_frame"] =
      1e6 * encode_seconds / static_cast<double>(batches);
  out->layers["io.wire.bytes_per_report"] =
      static_cast<double>(frame_bytes) / reports;
  const auto cache_after = mech.domain().cache_stats();
  RecordDomainCache(cache_before, cache_after, out);

  // --- Output checks (untimed). ----------------------------------------
  const size_t num_regions = mech.decomposition().num_regions();
  const double epsilon = mech.config().epsilon;
  auto batch_users = [&](uint64_t) {
    return std::span<const RegionTrajectory>(users);
  };
  for (const Frame& frame : kept) {
    result.Check(checks::ReportShape(perturber, num_regions, epsilon,
                                     batch_users(frame.batch), frame.reports));
    result.Check(checks::WireRoundTrip(frame.bytes, frame.reports));
  }
  if (kept.empty()) return result.Fail("no frame kept for the checks");
  // Traced and untraced paths agree bit for bit: re-frame the first
  // batch through the engine and compare bytes.
  {
    auto again = (*setup)->engine->ReleaseAll(batch_users(0),
                                              MixSeed(options.seed, 0));
    if (!again.ok()) return result.Fail(again.status().ToString());
    auto frame = Encode(trajldp::core::MakeWireReports(
        batch_users(0), std::move(*again), perturber, 0));
    if (!frame.ok()) return result.Fail(frame.status().ToString());
    if (*frame != kept[0].bytes) result.Fail("re-framed batch 0 differs");
  }
  // Negative controls.
  using Reports = trajldp::io::ReportBatch;
  const Frame& f = kept[0];
  auto shape = [&](const Reports& r) {
    return checks::ReportShape(perturber, num_regions, epsilon,
                               batch_users(f.batch), r);
  };
  result.Check(checks::NegativeControl(
      "n-gram count", f.reports, [](Reports& r) { r[0].ngrams.pop_back(); },
      shape));
  result.Check(checks::NegativeControl(
      "region id below R", f.reports,
      [&](Reports& r) {
        r[1].ngrams[0].regions[0] =
            static_cast<trajldp::region::RegionId>(num_regions);
      },
      shape));
  result.Check(checks::NegativeControl(
      "epsilon split", f.reports,
      [](Reports& r) { r[2].epsilon_prime *= 1.01; }, shape));
  result.Check(checks::NegativeControl(
      "wire round trip", f.bytes,
      [](std::string& bytes) { bytes[bytes.size() / 2] ^= 0x20; },
      [&](const std::string& bytes) {
        return checks::WireRoundTrip(bytes, f.reports);
      }));
}

}  // namespace perfbench
