#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numbers>
#include <optional>
#include <tuple>
#include <utility>

#include "core/lp_reconstructor.h"
#include "core/reconstruction.h"
#include "region/region_index.h"

namespace perfbench::checks {

using trajldp::core::ReconstructionProblem;
using trajldp::region::RegionId;

namespace {

std::string At(const char* what, size_t user, size_t pos) {
  return std::string(what) + " (release " + std::to_string(user) +
         ", point " + std::to_string(pos) + ")";
}

bool Close(double a, double b) {
  return std::abs(a - b) <=
         1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

// Great-circle distance on the mean Earth radius.
double GreatCircleKm(double lat1, double lon1, double lat2, double lon2) {
  constexpr double kRad = std::numbers::pi / 180.0;
  constexpr double kEarthKm = 6371.0088;
  const double dlat = (lat2 - lat1) * kRad;
  const double dlon = (lon2 - lon1) * kRad;
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1 * kRad) * std::cos(lat2 * kRad) *
                       std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * kEarthKm * std::asin(std::min(1.0, std::sqrt(h)));
}

// Exact minimum path cost over the layered feasibility DAG; false when
// no feasible path exists.
bool ShortestPathCost(const ReconstructionProblem& problem, double* cost) {
  const size_t len = problem.traj_len();
  const size_t c = problem.candidates().size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (len == 1) {
    double best = kInf;
    for (size_t j = 0; j < c; ++j) {
      best = std::min(best, problem.NodeError(0, j));
    }
    *cost = best;
    return c > 0;
  }
  std::vector<double> dist(c, 0.0);
  std::vector<double> leaving(c);
  std::vector<double> next(c);
  for (size_t i = 0; i + 1 < len; ++i) {
    for (size_t j = 0; j < c; ++j) {
      leaving[j] = dist[j] + problem.NodeError(i, j);
    }
    for (size_t to = 0; to < c; ++to) {
      double best = kInf;
      for (size_t from = 0; from < c; ++from) {
        if (leaving[from] < best && problem.Feasible(from, to)) {
          best = leaving[from];
        }
      }
      next[to] = best + problem.NodeError(i + 1, to);
    }
    dist.swap(next);
  }
  *cost = *std::min_element(dist.begin(), dist.end());
  return std::isfinite(*cost);
}

// Candidate indices of `regions`; false when one is not a candidate.
bool IndicesOf(const std::vector<RegionId>& candidates,
               const RegionTrajectory& regions, std::vector<size_t>* out) {
  out->clear();
  for (const RegionId r : regions) {
    auto it = std::lower_bound(candidates.begin(), candidates.end(), r);
    if (it == candidates.end() || *it != r) return false;
    out->push_back(static_cast<size_t>(it - candidates.begin()));
  }
  return true;
}

bool PathFeasible(const ReconstructionProblem& problem,
                  const std::vector<size_t>& path) {
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (!problem.Feasible(path[i], path[i + 1])) return false;
  }
  return true;
}

// Cost of the region sequence against Z; nullopt when it is infeasible.
std::optional<double> SequenceCost(const trajldp::core::NGramMechanism& mech,
                                   const trajldp::core::PerturbedNgramSet& z,
                                   const RegionTrajectory& regions) {
  std::vector<RegionId> candidates(regions.begin(), regions.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  auto problem = ReconstructionProblem::Create(
      &mech.distance(), &mech.graph(), regions.size(), z, candidates);
  std::vector<size_t> path;
  if (!problem.ok() || !IndicesOf(candidates, regions, &path) ||
      !PathFeasible(*problem, path)) {
    return std::nullopt;
  }
  return problem->Objective(path);
}

}  // namespace

std::string ReleaseLengths(std::span<const RegionTrajectory> inputs,
                           std::span<const FullRelease> releases) {
  if (inputs.size() != releases.size()) return "release count != input count";
  for (size_t u = 0; u < inputs.size(); ++u) {
    if (releases[u].trajectory.size() != inputs[u].size() ||
        releases[u].regions.size() != inputs[u].size()) {
      return At("release length differs from its input", u, 0);
    }
  }
  return "";
}

std::string PoisInRegions(const trajldp::core::NGramMechanism& mech,
                          const trajldp::model::TimeDomain& time,
                          std::span<const FullRelease> releases) {
  const auto& decomp = mech.decomposition();
  for (size_t u = 0; u < releases.size(); ++u) {
    const FullRelease& release = releases[u];
    if (release.regions.size() != release.trajectory.size()) {
      return At("region and POI sequences differ in length", u, 0);
    }
    for (size_t i = 0; i < release.trajectory.size(); ++i) {
      const auto& point = release.trajectory.point(i);
      if (release.regions[i] >= decomp.num_regions()) {
        return At("released region id out of range", u, i);
      }
      const auto& region = decomp.region(release.regions[i]);
      if (!std::binary_search(region.pois.begin(), region.pois.end(),
                              point.poi)) {
        return At("released POI is not a member of its region", u, i);
      }
      if (!release.smoothed &&
          !region.time.Contains(time.TimestepToMinute(point.t))) {
        return At("visit time outside its region's interval", u, i);
      }
    }
  }
  return "";
}

std::string TimesIncrease(std::span<const FullRelease> releases) {
  for (size_t u = 0; u < releases.size(); ++u) {
    const auto& points = releases[u].trajectory.points();
    for (size_t i = 1; i < points.size(); ++i) {
      if (points[i].t <= points[i - 1].t) {
        return At("visit times do not strictly increase", u, i);
      }
    }
  }
  return "";
}

std::string Reachable(const trajldp::model::PoiDatabase& db,
                      const trajldp::model::TimeDomain& time, double speed_kmh,
                      std::span<const FullRelease> releases) {
  for (size_t u = 0; u < releases.size(); ++u) {
    const auto& points = releases[u].trajectory.points();
    for (size_t i = 1; i < points.size(); ++i) {
      const auto& from = db.poi(points[i - 1].poi).location;
      const auto& to = db.poi(points[i].poi).location;
      const double km = GreatCircleKm(from.lat, from.lon, to.lat, to.lon);
      const double gap_minutes = static_cast<double>(
          time.TimestepToMinute(points[i].t) -
          time.TimestepToMinute(points[i - 1].t));
      const double reach_km = speed_kmh * gap_minutes / 60.0;
      if (km > reach_km * (1.0 + 1e-9) + 1e-12) {
        return At("consecutive visits are not reachable", u, i);
      }
    }
  }
  return "";
}

std::string RegionCostOptimal(const trajldp::core::NGramMechanism& mech,
                              const trajldp::core::PerturbedNgramSet& z,
                              const RegionTrajectory& released) {
  const auto& decomp = mech.decomposition();
  std::vector<RegionId> observed;
  for (const auto& gram : z) {
    observed.insert(observed.end(), gram.regions.begin(), gram.regions.end());
  }
  std::sort(observed.begin(), observed.end());
  observed.erase(std::unique(observed.begin(), observed.end()), observed.end());

  // The pipeline's candidate set: R_mbr, or every region when R_mbr
  // admits no feasible sequence.
  std::vector<RegionId> candidates = trajldp::region::MbrCandidateRegions(
      decomp, observed, mech.config().mbr_expand_km);
  auto problem = ReconstructionProblem::Create(
      &mech.distance(), &mech.graph(), released.size(), z, candidates);
  if (!problem.ok()) {
    return "reconstruction problem: " + problem.status().ToString();
  }
  double optimum = 0.0;
  if (!ShortestPathCost(*problem, &optimum)) {
    candidates.resize(decomp.num_regions());
    for (size_t r = 0; r < candidates.size(); ++r) {
      candidates[r] = static_cast<RegionId>(r);
    }
    problem = ReconstructionProblem::Create(&mech.distance(), &mech.graph(),
                                            released.size(), z, candidates);
    if (!problem.ok()) {
      return "reconstruction problem: " + problem.status().ToString();
    }
    if (!ShortestPathCost(*problem, &optimum)) {
      return "a release exists but no feasible region sequence does";
    }
  }
  std::vector<size_t> path;
  if (!IndicesOf(candidates, released, &path)) {
    return "released region outside the candidate set";
  }
  if (!PathFeasible(*problem, path)) {
    return "released region sequence is infeasible";
  }
  const double cost = problem->Objective(path);
  if (!Close(cost, optimum)) {
    return "released region sequence costs " + std::to_string(cost) +
           ", the optimum is " + std::to_string(optimum);
  }

  // LpReconstructor over a subset holding the released sequence: the
  // released regions, then Z's regions, then evenly spaced candidates,
  // up to 16 regions (the dense simplex does not fit the full set).
  constexpr size_t kSubsetSize = 16;
  std::vector<RegionId> subset(released.begin(), released.end());
  auto add = [&subset](RegionId r) {
    if (subset.size() < kSubsetSize &&
        std::find(subset.begin(), subset.end(), r) == subset.end()) {
      subset.push_back(r);
    }
  };
  for (const RegionId r : observed) add(r);
  const size_t stride = std::max<size_t>(1, candidates.size() / kSubsetSize);
  for (size_t i = 0; i < candidates.size(); i += stride) add(candidates[i]);
  std::sort(subset.begin(), subset.end());
  auto sub = ReconstructionProblem::Create(&mech.distance(), &mech.graph(),
                                           released.size(), z, subset);
  if (!sub.ok()) return "LP subset problem: " + sub.status().ToString();
  auto lp = trajldp::core::LpReconstructor().Reconstruct(*sub);
  if (!lp.ok()) return "LpReconstructor: " + lp.status().ToString();
  std::vector<size_t> lp_path;
  std::vector<size_t> released_path;
  if (!IndicesOf(subset, *lp, &lp_path) ||
      !IndicesOf(subset, released, &released_path) ||
      !PathFeasible(*sub, lp_path)) {
    return "LpReconstructor returned a sequence outside its candidates";
  }
  const double lp_cost = sub->Objective(lp_path);
  const double released_cost = sub->Objective(released_path);
  if (!Close(lp_cost, released_cost)) {
    return "released region sequence costs " + std::to_string(released_cost) +
           ", the LpReconstructor optimum is " + std::to_string(lp_cost);
  }
  return "";
}

std::string SameReleases(std::span<const FullRelease> expected,
                         std::span<const FullRelease> actual) {
  if (expected.size() != actual.size()) return "release counts differ";
  for (size_t u = 0; u < expected.size(); ++u) {
    const FullRelease& a = expected[u];
    const FullRelease& b = actual[u];
    if (a.regions != b.regions || !(a.trajectory == b.trajectory) ||
        a.poi_attempts != b.poi_attempts || a.smoothed != b.smoothed) {
      return At("releases are not bit-identical", u, 0);
    }
  }
  return "";
}

std::string ReportShape(const trajldp::core::NgramPerturber& perturber,
                        size_t num_regions, double epsilon,
                        std::span<const RegionTrajectory> users,
                        const trajldp::io::ReportBatch& reports) {
  if (users.size() != reports.size()) return "report count != user count";
  for (size_t u = 0; u < users.size(); ++u) {
    const auto& report = reports[u];
    const size_t len = users[u].size();
    const size_t n = std::min<size_t>(perturber.config().n, len);
    if (report.trajectory_len != len) return At("report length != input", u, 0);
    if (report.ngrams.size() != len + n - 1) {
      return At("report does not carry L + n - 1 n-grams", u, 0);
    }
    std::vector<size_t> cover(len + 1, 0);
    for (const auto& gram : report.ngrams) {
      if (gram.a < 1 || gram.a > gram.b || gram.b > len ||
          gram.regions.size() != gram.b - gram.a + 1) {
        return At("n-gram bounds are inconsistent", u, gram.a);
      }
      for (const RegionId r : gram.regions) {
        if (r >= num_regions) return At("n-gram region id >= R", u, gram.a);
      }
      for (size_t i = gram.a; i <= gram.b; ++i) ++cover[i];
    }
    for (size_t i = 1; i <= len; ++i) {
      if (cover[i] != n) return At("position not covered by n n-grams", u, i);
    }
    const double spent =
        report.epsilon_prime * static_cast<double>(report.ngrams.size());
    if (!(std::abs(spent - epsilon) <= 1e-9 * epsilon)) {
      return At("per-draw budgets do not sum to epsilon", u, 0);
    }
  }
  return "";
}

std::string WireRoundTrip(const std::string& frame,
                          const trajldp::io::ReportBatch& reports) {
  auto decoded = trajldp::io::DecodeReportBatch(frame);
  if (!decoded.ok()) {
    return "frame does not decode: " + decoded.status().ToString();
  }
  if (!(*decoded == reports)) return "decoded frame differs from its reports";
  return "";
}

std::string ExactlyOnce(std::span<const uint64_t> released_ids,
                        uint64_t count) {
  std::vector<uint32_t> seen(count, 0);
  for (const uint64_t id : released_ids) {
    if (id >= count) {
      return "released an id that was never offered: " + std::to_string(id);
    }
    ++seen[id];
  }
  for (uint64_t id = 0; id < count; ++id) {
    if (seen[id] != 1) {
      return "user " + std::to_string(id) + " released " +
             std::to_string(seen[id]) + " times";
    }
  }
  return "";
}

std::string VisitorCounts(const trajldp::analytics::StreamAnalytics& analytics,
                          const trajldp::model::TimeDomain& time,
                          const trajldp::eval::HotspotSpec& hotspot_spec,
                          std::span<const FullRelease> releases) {
  const auto* top_k = analytics.top_k();
  const auto* hotspots = analytics.hotspots();
  if (top_k == nullptr || hotspots == nullptr) {
    return "analytics bundle incomplete";
  }
  if (analytics.releases_consumed() != releases.size()) {
    return "analytics consumed " +
           std::to_string(analytics.releases_consumed()) +
           " releases, " + std::to_string(releases.size()) + " were released";
  }
  const int window = top_k->spec().window_minutes;
  const int bins = 1440 / hotspot_spec.bin_minutes;
  // Unique visitors per (POI, window) and per (POI, hotspot bin).
  std::map<std::pair<int, uint64_t>, uint32_t> per_window;
  std::map<uint64_t, std::vector<int>> per_bin;
  for (const FullRelease& release : releases) {
    std::vector<std::pair<int, uint64_t>> windows;
    std::vector<std::pair<uint64_t, int>> hot;
    for (const auto& point : release.trajectory.points()) {
      const int minute = time.TimestepToMinute(point.t);
      windows.push_back({minute / window, point.poi});
      hot.push_back({point.poi, minute / hotspot_spec.bin_minutes});
    }
    std::sort(windows.begin(), windows.end());
    windows.erase(std::unique(windows.begin(), windows.end()), windows.end());
    for (const auto& key : windows) ++per_window[key];
    std::sort(hot.begin(), hot.end());
    hot.erase(std::unique(hot.begin(), hot.end()), hot.end());
    for (const auto& [poi, bin] : hot) {
      auto& counts = per_bin[poi];
      counts.resize(static_cast<size_t>(bins), 0);
      ++counts[static_cast<size_t>(bin)];
    }
  }

  const auto ranked = top_k->Finalize();
  std::vector<std::vector<trajldp::analytics::WindowTopEntry>> expected(
      ranked.size());
  for (const auto& [key, visitors] : per_window) {
    if (key.first < 0 || static_cast<size_t>(key.first) >= expected.size()) {
      return "visit outside the analytics windows";
    }
    expected[static_cast<size_t>(key.first)].push_back({key.second, visitors});
  }
  for (auto& entries : expected) {
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return a.unique_visitors != b.unique_visitors
                 ? a.unique_visitors > b.unique_visitors
                 : a.entity < b.entity;
    });
    if (entries.size() > top_k->spec().k) entries.resize(top_k->spec().k);
  }
  if (ranked != expected) {
    return "analytics visitor counts differ from the releases";
  }

  std::vector<trajldp::eval::Hotspot> expected_hot;
  for (const auto& [poi, counts] : per_bin) {
    int start = -1;
    int peak = 0;
    for (int b = 0; b <= bins; ++b) {
      const int count = b < bins ? counts[static_cast<size_t>(b)] : 0;
      if (count >= hotspot_spec.eta) {
        if (start < 0) start = b;
        peak = std::max(peak, count);
      } else if (start >= 0) {
        expected_hot.push_back({poi, start * hotspot_spec.bin_minutes,
                                b * hotspot_spec.bin_minutes, peak});
        start = -1;
        peak = 0;
      }
    }
  }
  auto found = hotspots->Finalize();
  auto order = [](const trajldp::eval::Hotspot& a,
                  const trajldp::eval::Hotspot& b) {
    return std::tie(a.entity, a.start_minute) <
           std::tie(b.entity, b.start_minute);
  };
  std::sort(found.begin(), found.end(), order);
  std::sort(expected_hot.begin(), expected_hot.end(), order);
  if (found != expected_hot) {
    return "analytics hotspots differ from the releases";
  }
  return "";
}

std::string ReleaseNegativeControls(
    const trajldp::core::NGramMechanism& mech,
    const trajldp::eval::Dataset& dataset,
    std::span<const RegionTrajectory> inputs,
    std::span<const FullRelease> releases,
    const trajldp::core::PerturbedNgramSet* z0) {
  using Releases = std::vector<FullRelease>;
  const size_t n = std::min<size_t>(8, releases.size());
  if (n == 0) return "no releases for the negative controls";
  const Releases prefix(releases.begin(), releases.begin() + n);
  const auto inputs_prefix = inputs.subspan(0, n);
  const auto& time = dataset.time;
  const auto& db = dataset.db;
  const double speed = dataset.reachability.speed_kmh;
  // A POI outside region `r`.
  auto poi_outside = [&](RegionId r) {
    const auto& members = mech.decomposition().region(r).pois;
    trajldp::model::PoiId poi = 0;
    while (std::binary_search(members.begin(), members.end(), poi)) ++poi;
    return poi;
  };
  std::string err;
  auto first_error = [&err](std::string e) {
    if (err.empty()) err = std::move(e);
  };

  first_error(NegativeControl(
      "release length", prefix,
      [](Releases& rs) {
        auto points = rs[0].trajectory.points();
        points.pop_back();
        rs[0].trajectory = trajldp::model::Trajectory(points);
      },
      [&](const Releases& rs) { return ReleaseLengths(inputs_prefix, rs); }));
  first_error(NegativeControl(
      "POI in region", prefix,
      [&](Releases& rs) {
        rs[0].trajectory.point(0).poi = poi_outside(rs[0].regions[0]);
      },
      [&](const Releases& rs) { return PoisInRegions(mech, time, rs); }));
  first_error(NegativeControl(
      "time order", prefix,
      [](Releases& rs) {
        for (auto& r : rs) {
          if (r.trajectory.size() >= 2) {
            r.trajectory.point(1).t = r.trajectory.point(0).t;
            return;
          }
        }
        rs[0].trajectory.Append(rs[0].trajectory.point(0).poi,
                                rs[0].trajectory.point(0).t);
      },
      [](const Releases& rs) { return TimesIncrease(rs); }));
  first_error(NegativeControl(
      "reachability", Releases(1),
      [&](Releases& rs) {
        // POI 0, then the POI farthest from it one timestep later.
        const auto& origin = db.poi(0).location;
        trajldp::model::PoiId far = 0;
        double far_km = -1.0;
        for (trajldp::model::PoiId p = 0; p < db.size(); ++p) {
          const auto& at = db.poi(p).location;
          const double km =
              GreatCircleKm(origin.lat, origin.lon, at.lat, at.lon);
          if (km > far_km) {
            far_km = km;
            far = p;
          }
        }
        rs[0].trajectory.Append(0, 0);
        rs[0].trajectory.Append(far, 1);
      },
      [&](const Releases& rs) { return Reachable(db, time, speed, rs); }));
  if (z0 != nullptr) {
    first_error(NegativeControl(
        "optimal region cost", prefix[0].regions,
        [&](RegionTrajectory& regions) {
          // The first region moved to the next one that makes the
          // sequence infeasible or costlier: a region of equal cost would
          // give another optimum, not a wrong output.
          const RegionTrajectory released = regions;
          const std::optional<double> cost = SequenceCost(mech, *z0, released);
          const size_t num_regions = mech.decomposition().num_regions();
          for (size_t k = 1; k < num_regions; ++k) {
            regions[0] =
                static_cast<RegionId>((released[0] + k) % num_regions);
            const auto moved = SequenceCost(mech, *z0, regions);
            if (!cost || !moved || (*moved > *cost && !Close(*moved, *cost))) {
              return;
            }
          }
        },
        [&](const RegionTrajectory& regions) {
          return RegionCostOptimal(mech, *z0, regions);
        }));
  }
  first_error(NegativeControl(
      "bit-identical", prefix,
      [&](Releases& rs) {
        rs[0].trajectory.point(0).poi = poi_outside(rs[0].regions[0]);
      },
      [&](const Releases& rs) { return SameReleases(prefix, rs); }));
  return err;
}

}  // namespace perfbench::checks
