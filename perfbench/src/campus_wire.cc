// campus_wire: continuous collection over the network on the campus
// world, open loop. Devices' reports are perturbed and framed before
// timing; the generator then offers them at a fixed rate, well under
// capacity, over 2 sequenced loopback connections to an IngestServer
// (1 reactor, a journal that is written but not fsynced) that feeds a
// StreamingCollector (2 workers, user-id dedup). The collector's sink
// fans out to materialisation and StreamAnalytics, and /metrics is
// scraped once a second. Each frame is timed from its scheduled send
// time: to the cumulative ack that covers it, and to its last user's
// release in the sink.
//
// The generator reads acks itself (net::Socket + io::DecodeAckFrame), so
// every frame gets its own ack time. Its sockets keep the kernel's
// defaults, as ReportClient's do.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analytics/stream_analytics.h"
#include "checks.h"
#include "core/batch_release_engine.h"
#include "core/streaming_collector.h"
#include "io/wire.h"
#include "net/ingest_server.h"
#include "net/socket.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "workloads.h"
#include "worlds.h"

namespace perfbench {
namespace {

using trajldp::Status;
using trajldp::StatusOr;
using trajldp::core::FullRelease;
using trajldp::region::RegionTrajectory;

constexpr size_t kFrameUsers = 1;
constexpr double kFramesPerSecond = 250.0;  // 250 users/s offered
constexpr size_t kConnections = 2;
constexpr size_t kWarmupFrames = 4;  // sent after set-up, before timing
// The journal writes every frame before the frame is pushed and acked,
// but never fsyncs (SyncPolicy::kNone): per-record fsyncs on a disk other
// tenants share put its stalls (0.2 ms typical, 2-8 ms at p99, single
// stalls of 100-250 ms) into every frame's ack and release, so the latency
// figures measured the disk rather than the program.
constexpr auto kJournalSync =
    trajldp::io::FrameJournal::SyncPolicy::kNone;
constexpr size_t kStageSplitUsers = 400;
constexpr size_t kWindowFrames = 1000;  // latency windows: 4 s each
constexpr auto kDrainTimeout = std::chrono::seconds(60);

// Everything the collector's sink touches. Sink calls are serialised by
// the collector, so the vectors need no lock of their own; the counter
// and condition variable let the generator wait for the releases.
struct SinkState {
  explicit SinkState(size_t users, trajldp::analytics::StreamAnalytics a)
      : releases(users), released_at(users), analytics(std::move(a)) {}

  std::vector<FullRelease> releases;  // by user id
  std::vector<Clock::time_point> released_at;
  std::vector<uint64_t> arrivals;  // user ids in arrival order
  trajldp::analytics::StreamAnalytics analytics;

  std::mutex mu;
  std::condition_variable cv;
  size_t count = 0;

  bool WaitFor(size_t target) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, kDrainTimeout, [&] { return count >= target; });
  }
};

struct Setup {
  std::unique_ptr<World> world;
  std::unique_ptr<trajldp::obs::Registry> registry;
  std::unique_ptr<SinkState> sink;
  std::unique_ptr<trajldp::core::StreamingCollector> collector;
  std::unique_ptr<trajldp::net::IngestServer> server;
  std::unique_ptr<trajldp::obs::AdminServer> admin;
  trajldp::net::Socket conns[kConnections];
  std::string journal_path;
  Clock::time_point schedule_start;  // timed frame j: start + j * period

  ~Setup() {
    for (auto& conn : conns) conn.Close();
    admin.reset();
    server.reset();
    if (collector) (void)collector->Finish();
    collector.reset();
    if (!journal_path.empty()) std::filesystem::remove(journal_path);
  }
};

Clock::duration FramePeriod() {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kFramesPerSecond));
}

// Reads one ack frame; returns its cumulative sequence.
StatusOr<uint64_t> ReadAck(const trajldp::net::Socket& socket) {
  char buf[trajldp::io::kAckFrameBytes];
  bool eof = false;
  TRAJLDP_RETURN_NOT_OK(
      trajldp::net::RecvExact(socket, buf, sizeof(buf), &eof));
  if (eof) return Status::Internal("ingest server closed the connection");
  return trajldp::io::DecodeAckFrame(std::string_view(buf, sizeof(buf)));
}

// GET /metrics; returns the scrape's wall time in ms.
StatusOr<double> Scrape(uint16_t port) {
  const Clock::time_point start = Clock::now();
  auto socket = trajldp::net::TcpConnect("127.0.0.1", port);
  if (!socket.ok()) return socket.status();
  TRAJLDP_RETURN_NOT_OK(trajldp::net::SendAll(
      *socket, "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"));
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(socket->fd(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::Internal("scrape recv failed");
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  if (response.rfind("HTTP/1.1 200", 0) != 0 ||
      response.find("trajldp_collector_reports_released_total") ==
          std::string::npos) {
    return Status::Internal("/metrics scrape returned no collector series");
  }
  return 1e3 * SecondsSince(start);
}

// Histogram quantile over the observations between two snapshots,
// interpolated within the bucket that holds it.
double HistogramQuantile(const trajldp::obs::RegistrySnapshot& before,
                         const trajldp::obs::RegistrySnapshot& after,
                         const std::string& name, double q) {
  const auto* b = before.Find(name);
  const auto* a = after.Find(name);
  if (a == nullptr || a->buckets.empty()) return 0.0;
  std::vector<double> counts(a->buckets.size());
  double total = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(a->buckets[i]) -
                (b != nullptr ? static_cast<double>(b->buckets[i]) : 0.0);
    total += counts[i];
  }
  if (total <= 0.0) return 0.0;
  const double target = q * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0.0 && cumulative + counts[i] >= target) {
      const double lo = i == 0 ? 0.0 : a->bounds[i - 1];
      const double hi = i < a->bounds.size() ? a->bounds[i] : a->bounds.back();
      return lo + (hi - lo) * (target - cumulative) / counts[i];
    }
    cumulative += counts[i];
  }
  return a->bounds.back();
}

double Delta(const trajldp::obs::RegistrySnapshot& before,
             const trajldp::obs::RegistrySnapshot& after,
             const std::string& name) {
  const auto* b = before.Find(name);
  const auto* a = after.Find(name);
  if (a == nullptr) return 0.0;
  const bool histogram = a->type == trajldp::obs::MetricType::kHistogram;
  const double va = histogram ? a->sum : a->value;
  const double vb = b == nullptr ? 0.0 : (histogram ? b->sum : b->value);
  return va - vb;
}

// Puts every connection's acks into the state a long-lived connection
// reaches after its first stall longer than a frame gap: the server's ack
// waits in Nagle's algorithm until the device's next frame brings the TCP
// acknowledgement of the ack before it, and then every later ack waits
// the same way. Without this, runs differed by whether a stall happened
// to set the hold off (ack p50 8 ms in most runs, 0.5-2 ms in the rest).
// A round resends the connection's last warm-up frame, which the server
// drops as a duplicate and re-acks; reads that ack; then resends the
// frame twice in one write. The second re-ack is held if it has not
// arrived kHeldAfter later. Returns the number of connections held at
// the end (0 once the server's sockets stop delaying acks).
StatusOr<size_t> PrimeAckHold(Setup& s,
                              const std::vector<std::string>& frames) {
  constexpr int kRounds = 10;
  constexpr auto kHeldAfter = std::chrono::milliseconds(5);
  size_t owed[kConnections];  // acks sent to us and not yet read
  for (auto& n : owed) n = kWarmupFrames / kConnections;
  size_t held = 0;
  for (int round = 0; round < kRounds && held < kConnections; ++round) {
    for (size_t c = 0; c < kConnections; ++c) {
      const std::string& dup = frames[kWarmupFrames - kConnections + c];
      for (; owed[c] > 0; --owed[c]) {
        TRAJLDP_RETURN_NOT_OK(ReadAck(s.conns[c]).status());
      }
      TRAJLDP_RETURN_NOT_OK(trajldp::net::SendAll(s.conns[c], dup));
      TRAJLDP_RETURN_NOT_OK(ReadAck(s.conns[c]).status());
      TRAJLDP_RETURN_NOT_OK(trajldp::net::SendAll(s.conns[c], dup + dup));
      TRAJLDP_RETURN_NOT_OK(ReadAck(s.conns[c]).status());
      owed[c] = 1;
    }
    std::this_thread::sleep_for(kHeldAfter);
    held = 0;
    for (size_t c = 0; c < kConnections; ++c) {
      pollfd fd{s.conns[c].fd(), POLLIN, 0};
      if (::poll(&fd, 1, 0) == 0) ++held;
    }
  }
  return held;
}

// The q-quantile of each run of kWindowFrames consecutive frames (the
// last one takes the remainder), then the median over those windows. A
// window's p99 has at least 10 frames beyond it. A change that slows
// every frame moves every window; a stall confined to fewer than half of
// them (a disk or host hiccup) does not move the median.
double WindowMedianQuantile(const std::vector<double>& per_frame, double q) {
  const size_t windows = std::max<size_t>(1, per_frame.size() / kWindowFrames);
  const size_t size = per_frame.size() / windows;
  std::vector<double> quantiles;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = per_frame.begin() + w * size;
    const auto end = w + 1 == windows ? per_frame.end() : begin + size;
    quantiles.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Median(quantiles);
}

}  // namespace

void RunCampusWire(const RunOptions& options, Outcome* out) {
  Result& result = out->result;
  const size_t timed_frames = static_cast<size_t>(
      std::llround(options.seconds * kFramesPerSecond));
  const size_t total_frames = kWarmupFrames + timed_frames;
  const size_t total_users = total_frames * kFrameUsers;

  // --- Inputs: users, their reports and frames (untimed, not set-up). --
  StatusOr<trajldp::model::TrajectorySet> trajectories =
      trajldp::model::TrajectorySet{};
  std::vector<RegionTrajectory> users;
  std::vector<std::string> frames;  // frame f: users [f, f + 1) * kFrameUsers
  trajldp::io::ReportBatch reports;
  double encode_seconds = 0.0;
  uint64_t frame_bytes = 0;
  {
    auto world = MakeWorld(WorldKind::kCampus, std::nullopt);
    if (!world.ok()) return result.Fail(world.status().ToString());
    trajectories = MakeUsers((*world)->dataset, WorldKind::kCampus,
                             options.seed, total_users);
    if (!trajectories.ok()) {
      return result.Fail(trajectories.status().ToString());
    }
    auto regions = ToRegions(**world, *trajectories);
    if (!regions.ok()) return result.Fail(regions.status().ToString());
    users = std::move(*regions);
    // Untimed input generation: every hardware thread.
    trajldp::core::BatchReleaseEngine devices(&(*world)->mech().perturber());
    auto perturbed = devices.ReleaseAll(users, options.seed);
    if (!perturbed.ok()) return result.Fail(perturbed.status().ToString());
    reports = trajldp::core::MakeWireReports(users, std::move(*perturbed),
                                             (*world)->mech().perturber());
    const Clock::time_point start = Clock::now();
    for (size_t f = 0; f < total_frames; ++f) {
      trajldp::io::WireEncodeOptions encode;
      encode.include_user_range = true;
      encode.sequence = trajldp::io::WireSequence{
          f % kConnections + 1, f / kConnections + 1};
      auto frame = trajldp::io::EncodeReportBatch(
          std::span(reports.data() + f * kFrameUsers, kFrameUsers), encode);
      if (!frame.ok()) return result.Fail(frame.status().ToString());
      frame_bytes += frame->size();
      frames.push_back(std::move(*frame));
    }
    encode_seconds = SecondsSince(start);
  }
  out->layers["io.wire.encode_us_per_frame"] =
      1e6 * encode_seconds / static_cast<double>(total_frames);
  out->layers["io.wire.bytes_per_report"] =
      static_cast<double>(frame_bytes) / static_cast<double>(total_users);

  const trajldp::eval::HotspotSpec hotspot_spec;
  Tracer* tracer = out->tracer;
  int rep = 0;
  auto setup = RepeatSetup<Setup>(
      [&]() -> StatusOr<std::unique_ptr<Setup>> {
        auto s = std::make_unique<Setup>();
        auto world = MakeWorld(WorldKind::kCampus, std::nullopt);
        if (!world.ok()) return world.status();
        s->world = std::move(*world);
        const World& w = *s->world;
        s->registry = std::make_unique<trajldp::obs::Registry>();

        trajldp::analytics::StreamAnalyticsConfig analytics_config;
        analytics_config.hotspots = hotspot_spec;
        trajldp::analytics::TopKSpec top_k;
        top_k.k = w.db().size();  // every visited POI: all counts
        analytics_config.top_k = top_k;
        auto analytics = trajldp::analytics::StreamAnalytics::Create(
            &w.db(), w.dataset.time, analytics_config);
        if (!analytics.ok()) return analytics.status();
        s->sink =
            std::make_unique<SinkState>(total_users, std::move(*analytics));

        SinkState* sink = s->sink.get();
        auto materialise = [sink, tracer](trajldp::core::UserRelease r) {
          ScopedSpan span(tracer, "sink.materialise", Tracer::kNoParent,
                          r.user_id);
          const Clock::time_point now = Clock::now();
          sink->arrivals.push_back(r.user_id);
          if (r.user_id < sink->releases.size()) {
            sink->released_at[r.user_id] = now;
            sink->releases[r.user_id] = std::move(r.release);
          }
          {
            std::lock_guard<std::mutex> lock(sink->mu);
            ++sink->count;
          }
          sink->cv.notify_all();
        };
        auto consume = [sink, tracer](trajldp::core::UserRelease r) {
          ScopedSpan span(tracer, "analytics.consume", Tracer::kNoParent,
                          r.user_id);
          sink->analytics.Consume(r);
        };
        trajldp::core::StreamingCollector::Config collector_config;
        collector_config.num_threads = options.threads;
        collector_config.dedup_user_ids = true;
        collector_config.metrics = s->registry.get();
        s->collector = std::make_unique<trajldp::core::StreamingCollector>(
            &w.mech(), options.seed,
            trajldp::core::StreamingCollector::FanOutSink(
                {consume, materialise}),
            collector_config);

        s->journal_path = options.work_dir + "/campus_wire-" +
                          std::to_string(rep++) + ".journal";
        std::filesystem::remove(s->journal_path);
        trajldp::net::IngestServer::Options server_options;
        server_options.reactor_threads = 1;
        server_options.journal_path = s->journal_path;
        server_options.journal_options.sync = kJournalSync;
        auto server = trajldp::net::IngestServer::Start(s->collector.get(),
                                                        server_options);
        if (!server.ok()) return server.status();
        s->server = std::move(*server);
        auto admin = trajldp::obs::AdminServer::Start(s->registry.get());
        if (!admin.ok()) return admin.status();
        s->admin = std::move(*admin);
        for (auto& conn : s->conns) {
          auto socket =
              trajldp::net::TcpConnect("127.0.0.1", s->server->port());
          if (!socket.ok()) return socket.status();
          conn = std::move(*socket);
        }
        return s;
      },
      kCampusSetupRepetitions, &out->e2e.setup_s);
  if (!setup.ok()) return result.Fail(setup.status().ToString());
  Setup& s = **setup;
  // Warm-up, then priming the ack hold; neither is part of setup_s. The
  // warm-up users' reconstruction time depends on the seed's draws
  // (0.4 ms for most users, 8-20 ms for some), which would make the
  // campus setup_s, about 0.04 s, a measure of the seed; priming is
  // pacing and TCP timers. The warm-up sends the first frames back to
  // back and waits for their releases, so the timed schedule starts on a
  // settled pipeline. Their acks are read by the priming.
  for (size_t f = 0; f < kWarmupFrames; ++f) {
    const Status sent =
        trajldp::net::SendAll(s.conns[f % kConnections], frames[f]);
    if (!sent.ok()) return result.Fail("warm-up: " + sent.ToString());
  }
  if (!s.sink->WaitFor(kWarmupFrames * kFrameUsers)) {
    return result.Fail("warm-up releases did not arrive");
  }
  auto held = PrimeAckHold(s, frames);
  if (!held.ok()) return result.Fail("priming: " + held.status().ToString());
  std::cout << "campus_wire: acks held by Nagle's algorithm on " << *held
            << " of " << kConnections << " connections at the start\n";
  s.schedule_start = Clock::now() + FramePeriod();
  const auto& mech = s.world->mech();
  SinkState& sink = *s.sink;

  // --- Timed section: open-loop offer of the remaining frames. ---------
  std::vector<Clock::time_point> scheduled(timed_frames);
  std::vector<Clock::time_point> sent_at(timed_frames);
  std::vector<Clock::time_point> send_done(timed_frames);
  std::vector<Clock::time_point> acked_at(timed_frames);
  // Per connection: next timed frame (index into the timed frames) not
  // yet acked; frames of connection c are c, c + 2, ...
  std::vector<size_t> next_unacked(kConnections);
  for (size_t c = 0; c < kConnections; ++c) next_unacked[c] = c;

  std::atomic<bool> scraping{true};
  std::vector<double> scrape_ms;
  Status scrape_status;
  const auto cache_before = mech.domain().cache_stats();
  const auto snap_before = s.registry->Snapshot();
  for (size_t j = 0; j < timed_frames; ++j) {
    scheduled[j] = s.schedule_start + FramePeriod() * j;
  }
  const Clock::time_point t0 = scheduled[0];
  const double cpu0 = ProcessCpuSeconds();
  std::thread scraper([&] {
    Clock::time_point next = t0;
    while (scraping.load()) {
      std::this_thread::sleep_until(next);
      if (!scraping.load()) break;
      const Clock::time_point start = Clock::now();
      auto ms = Scrape(s.admin->port());
      if (!ms.ok()) {
        scrape_status = ms.status();
        break;
      }
      if (tracer != nullptr) {
        tracer->Record("obs.scrape", start, Clock::now(), Tracer::kNoParent,
                       scrape_ms.size());
      }
      scrape_ms.push_back(*ms);
      next += std::chrono::seconds(1);
    }
  });

  size_t next_send = 0;
  size_t acked = 0;
  Status wire_status;
  while (acked < timed_frames && wire_status.ok()) {
    Clock::time_point now = Clock::now();
    if (next_send < timed_frames && now >= scheduled[next_send]) {
      const size_t f = kWarmupFrames + next_send;
      sent_at[next_send] = now;
      wire_status = trajldp::net::SendAll(s.conns[f % kConnections], frames[f]);
      send_done[next_send] = Clock::now();
      ++next_send;
      continue;
    }
    pollfd fds[kConnections];
    for (size_t c = 0; c < kConnections; ++c) {
      fds[c] = {s.conns[c].fd(), POLLIN, 0};
    }
    const auto wait =
        next_send < timed_frames
            ? scheduled[next_send] - now
            : std::chrono::duration_cast<Clock::duration>(kDrainTimeout);
    const int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(ns / 1000000000),
                     static_cast<long>(ns % 1000000000)};
    const int ready = ::ppoll(fds, kConnections, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      wire_status = Status::Internal("ppoll failed");
    }
    if (ready == 0 && next_send == timed_frames) {
      wire_status = Status::Internal("acks stopped arriving");
    }
    if (ready <= 0) continue;
    for (size_t c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      auto ack = ReadAck(s.conns[c]);
      if (!ack.ok()) {
        wire_status = ack.status();
        break;
      }
      const Clock::time_point at = Clock::now();
      // Timed frame j on connection c carries seq (kWarmupFrames + j) / 2 + 1.
      while (next_unacked[c] < timed_frames &&
             (kWarmupFrames + next_unacked[c]) / kConnections + 1 <= *ack) {
        acked_at[next_unacked[c]] = at;
        next_unacked[c] += kConnections;
        ++acked;
      }
    }
  }
  const bool drained = wire_status.ok() && sink.WaitFor(total_users);
  const Clock::time_point last_release = Clock::now();
  const double cpu1 = ProcessCpuSeconds();
  scraping = false;
  scraper.join();
  out->e2e.peak_rss_mb = PeakRssMb();
  const auto snap_after = s.registry->Snapshot();
  const auto cache_after = mech.domain().cache_stats();
  if (!wire_status.ok()) return result.Fail("wire: " + wire_status.ToString());
  if (!drained) return result.Fail("releases did not all arrive");
  if (!scrape_status.ok()) result.Fail("scrape: " + scrape_status.ToString());

  const size_t timed_users = timed_frames * kFrameUsers;
  result.attempted = timed_users;
  std::vector<double> ack_ms(timed_frames);
  std::vector<double> release_ms(timed_frames);
  std::vector<double> lateness_ms(timed_frames);
  std::vector<double> send_us(timed_frames);
  Clock::time_point last_timed_release = t0;
  for (size_t j = 0; j < timed_frames; ++j) {
    const size_t first_user = (kWarmupFrames + j) * kFrameUsers;
    Clock::time_point released = sink.released_at[first_user];
    for (size_t u = 1; u < kFrameUsers; ++u) {
      released = std::max(released, sink.released_at[first_user + u]);
    }
    last_timed_release = std::max(last_timed_release, released);
    ack_ms[j] = 1e3 * SecondsBetween(scheduled[j], acked_at[j]);
    release_ms[j] = 1e3 * SecondsBetween(scheduled[j], released);
    lateness_ms[j] = 1e3 * SecondsBetween(scheduled[j], sent_at[j]);
    send_us[j] = 1e6 * SecondsBetween(sent_at[j], send_done[j]);
    if (tracer != nullptr) {
      const Tracer::SpanId frame = tracer->Record(
          "wire.frame", scheduled[j], std::max(acked_at[j], released),
          Tracer::kNoParent, j);
      tracer->Record("net.generator.send", sent_at[j], send_done[j], frame, j);
      tracer->Record("net.ack_wait", send_done[j], acked_at[j], frame, j);
      tracer->Record("collector.release_wait", acked_at[j],
                     std::max(acked_at[j], released), frame, j);
    }
  }
  out->e2e.ack_latency_p50_ms = WindowMedianQuantile(ack_ms, 0.50);
  std::cout << "campus_wire: window medians: ack p99 "
            << WindowMedianQuantile(ack_ms, 0.99) << " ms; release p50 "
            << WindowMedianQuantile(release_ms, 0.50) << " ms, p99 "
            << WindowMedianQuantile(release_ms, 0.99) << " ms\n";
  std::cout << "campus_wire: over all timed frames ack p50 "
            << Quantile(ack_ms, 0.50) << " ms, p99 " << Quantile(ack_ms, 0.99)
            << " ms; release p50 " << Quantile(release_ms, 0.50)
            << " ms, p99 " << Quantile(release_ms, 0.99) << " ms\n";
  Clock::time_point last_timed_ack = t0;
  for (const auto& at : acked_at) last_timed_ack = std::max(last_timed_ack, at);
  out->e2e.release_users_per_s =
      static_cast<double>(timed_users) / SecondsBetween(t0, last_timed_release);
  out->e2e.reports_per_s =
      static_cast<double>(timed_users) / SecondsBetween(t0, last_timed_ack);
  out->e2e.cpu_ms_per_user =
      1e3 * (cpu1 - cpu0) / static_cast<double>(timed_users);
  std::cout << "campus_wire: " << timed_frames << " frames of " << kFrameUsers
            << " offered at " << kFramesPerSecond << "/s, drained "
            << SecondsBetween(t0, last_release) << " s after the first, "
            << scrape_ms.size() << " scrapes\n";

  // --- Layer figures, from the program's own instruments. --------------
  const double wall = SecondsBetween(t0, last_release);
  auto delta = [&](const char* name) {
    return Delta(snap_before, snap_after, name);
  };
  auto hq = [&](const char* name, double q, double scale) {
    return scale * HistogramQuantile(snap_before, snap_after, name, q);
  };
  const double frames_in = delta("trajldp_ingest_frames_total");
  auto& L = out->layers;
  L["collector.queue_wait_ms_p50"] =
      hq("trajldp_collector_queue_wait_seconds", 0.50, 1e3);
  L["collector.queue_wait_ms_p99"] =
      hq("trajldp_collector_queue_wait_seconds", 0.99, 1e3);
  if (const auto* hw = snap_after.Find("trajldp_collector_queue_high_water")) {
    L["collector.queue_high_water"] = hw->value;
  }
  L["collector.decode_us_p50"] =
      hq("trajldp_collector_decode_seconds", 0.50, 1e6);
  L["collector.reconstruct_ms_p50"] =
      hq("trajldp_collector_reconstruct_seconds", 0.50, 1e3);
  L["io.journal.append_us_p50"] =
      hq("trajldp_journal_append_seconds", 0.50, 1e6);
  // trajldp_journal_sync_seconds records only the idle-tail fsyncs of
  // the timed sync policy; under the default per-record policy every
  // append ends in its own fsync, so the append series carries them.
  L["io.journal.sync_us_p99"] =
      hq("trajldp_journal_sync_seconds", 0.99, 1e6) > 0.0
          ? hq("trajldp_journal_sync_seconds", 0.99, 1e6)
          : hq("trajldp_journal_append_seconds", 0.99, 1e6);
  L["net.ingest.frames"] = frames_in;
  if (frames_in > 0) {
    L["io.journal.fsyncs_per_frame"] =
        delta("trajldp_journal_fsyncs") / frames_in;
    L["net.reactor.wakeups_per_frame"] =
        delta("trajldp_reactor_wakeups_total") / frames_in;
  }
  L["net.generator.send_us_p50"] = Quantile(send_us, 0.50);
  L["net.generator.lateness_ms_p99"] = Quantile(lateness_ms, 0.99);
  L["obs.scrape_ms_p50"] = Median(scrape_ms);
  L["core.engine.busy_ratio"] =
      (delta("trajldp_collector_decode_seconds") +
       delta("trajldp_collector_validate_seconds") +
       delta("trajldp_collector_reconstruct_seconds")) /
      (wall * static_cast<double>(options.threads));
  RecordDomainCache(cache_before, cache_after, out);
  double attempts = 0.0;
  for (size_t u = kWarmupFrames * kFrameUsers; u < total_users; ++u) {
    attempts += static_cast<double>(sink.releases[u].poi_attempts);
  }
  L["core.poi.attempts_per_user"] = attempts / static_cast<double>(timed_users);
  if (tracer != nullptr) {
    double consume_ms = 0.0;
    size_t consumed = 0;
    for (const auto& st : tracer->SelfTimes()) {
      if (st.name == "analytics.consume") {
        consume_ms = st.total_ms;
        consumed = st.count;
      }
    }
    if (consumed > 0) {
      L["analytics.consume_us_per_release"] =
          1e3 * consume_ms / static_cast<double>(consumed);
    }
  }

  // Shut the transport down before reading the collector's outputs.
  for (auto& conn : s.conns) conn.Close();
  s.admin->Shutdown();
  s.server->Shutdown();
  const Status finished = s.collector->Finish();
  if (!finished.ok()) result.Fail("collector: " + finished.ToString());

  // --- Output checks (untimed). ----------------------------------------
  const auto& world = *s.world;
  result.Check(checks::ExactlyOnce(sink.arrivals, total_users));
  result.Check(checks::ReleaseLengths(users, sink.releases));
  result.Check(checks::PoisInRegions(mech, world.dataset.time, sink.releases));
  result.Check(checks::TimesIncrease(sink.releases));
  result.Check(checks::Reachable(world.db(), world.dataset.time,
                                 world.dataset.reachability.speed_kmh,
                                 sink.releases));
  result.Check(checks::VisitorCounts(sink.analytics, world.dataset.time,
                                     hotspot_spec, sink.releases));
  for (size_t u = 0; u < 4; ++u) {
    result.Check(checks::RegionCostOptimal(mech, reports[u].ngrams,
                                           sink.releases[u].regions));
  }
  {
    // Untimed reference: every hardware thread.
    trajldp::core::BatchReleaseEngine engine(&mech);
    auto reference = engine.ReleaseAllFull(users, options.seed);
    if (!reference.ok()) return result.Fail(reference.status().ToString());
    result.Check(checks::SameReleases(*reference, sink.releases));
  }
  if (options.trace) {
    // The collector does not expose its stage split: take it from the
    // same per-user unit over the first users, which must also match.
    const auto pipeline = mech.pipeline();
    trajldp::core::PipelineWorkspace ws;
    trajldp::core::StageBreakdown stages;
    const size_t n = std::min(kStageSplitUsers, total_users);
    for (size_t u = 0; u < n; ++u) {
      trajldp::Rng rng =
          trajldp::core::CollectorPipeline::UserRng(options.seed, u);
      FullRelease release;
      if (!pipeline.ReleaseInto(users[u], rng, ws, release, &stages).ok() ||
          !checks::SameReleases(std::span(&sink.releases[u], 1),
                                std::span(&release, 1))
               .empty()) {
        result.Fail("stage-split pass differs from the collector's release");
        break;
      }
    }
    const double k = 1e6 / static_cast<double>(n);
    L["core.perturb.us_per_user"] = k * stages.perturb_seconds;
    L["core.prep.us_per_user"] = k * stages.reconstruct_prep_seconds;
    L["core.viterbi.us_per_user"] = k * stages.optimal_reconstruct_seconds;
    L["core.poi.us_per_user"] = k * stages.poi_seconds;
    L["core.other.us_per_user"] =
        k * (stages.other_seconds - stages.poi_seconds);
  }

  // Negative controls.
  result.Check(checks::ReleaseNegativeControls(
      mech, world.dataset, users, sink.releases, &reports[0].ngrams));
  result.Check(checks::NegativeControl(
      "released twice", sink.arrivals,
      [](std::vector<uint64_t>& ids) { ids.push_back(ids.front()); },
      [&](const std::vector<uint64_t>& ids) {
        return checks::ExactlyOnce(ids, total_users);
      }));
  result.Check(checks::NegativeControl(
      "never released", sink.arrivals,
      [](std::vector<uint64_t>& ids) { ids.pop_back(); },
      [&](const std::vector<uint64_t>& ids) {
        return checks::ExactlyOnce(ids, total_users);
      }));
  result.Check(checks::NegativeControl(
      "visitor counts", sink.releases,
      [&](std::vector<FullRelease>& rs) {
        // Move the first visit to a POI the user never visits, so that
        // POI gains a visitor whatever else the user visits.
        const auto& points = rs[0].trajectory.points();
        auto poi = points[0].poi;
        auto visited = [&](trajldp::model::PoiId p) {
          return std::any_of(points.begin(), points.end(),
                             [p](const auto& at) { return at.poi == p; });
        };
        while (visited(poi)) poi = (poi + 1) % world.db().size();
        rs[0].trajectory.point(0).poi = poi;
      },
      [&](const std::vector<FullRelease>& rs) {
        return checks::VisitorCounts(sink.analytics, world.dataset.time,
                                     hotspot_spec, rs);
      }));
}

}  // namespace perfbench
