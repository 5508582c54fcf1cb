#ifndef TRAJLDP_TESTS_RECONSTRUCTION_ORACLES_H_
#define TRAJLDP_TESTS_RECONSTRUCTION_ORACLES_H_

// Reference implementations kept only as test oracles for the production
// reconstruction path:
//  * UngroupedAdjacency — RegionGraph::Build's spatial test run per
//    region pair, with no POI-set memoisation;
//  * PullCsrViterbi — the Viterbi kernel that builds a candidate-restricted
//    in-adjacency CSR per problem and relaxes every candidate edge per
//    layer.
// Both are written for clarity, not speed.

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/status_or.h"
#include "core/reconstruction.h"
#include "geo/latlon.h"
#include "model/reachability.h"
#include "region/decomposition.h"

namespace trajldp::testing {

// Out-adjacency of the region graph, ascending per source, decided pair
// by pair exactly as the paper's two rules state (time order, then a POI
// pair within θ, pruned by the bounding boxes).
inline std::vector<std::vector<region::RegionId>> UngroupedAdjacency(
    const region::StcDecomposition& decomp,
    const model::ReachabilityConfig& reach) {
  const size_t n = decomp.num_regions();
  const int g_t = decomp.time().granularity_minutes();
  const double theta = reach.ReferenceThetaKm();
  auto any_poi_pair_within = [&](const region::StcRegion& a,
                                 const region::StcRegion& b) {
    const region::StcRegion& small = a.pois.size() <= b.pois.size() ? a : b;
    const region::StcRegion& large = a.pois.size() <= b.pois.size() ? b : a;
    for (model::PoiId p : small.pois) {
      const geo::LatLon& loc = decomp.db().poi(p).location;
      if (large.bounds.DistanceKm(loc) > theta) continue;
      for (model::PoiId q : large.pois) {
        if (geo::HaversineKm(loc, decomp.db().poi(q).location) <= theta) {
          return true;
        }
      }
    }
    return false;
  };
  std::vector<std::vector<region::RegionId>> adj(n);
  for (region::RegionId a = 0; a < n; ++a) {
    const region::StcRegion& ra = decomp.region(a);
    for (region::RegionId b = 0; b < n; ++b) {
      const region::StcRegion& rb = decomp.region(b);
      if (!(rb.time.end > ra.time.begin + g_t)) continue;
      if (!reach.unconstrained() && a != b) {
        if (ra.bounds.MinDistanceKm(rb.bounds) > theta) continue;
        if (ra.bounds.MaxDistanceKm(rb.bounds) > theta &&
            !any_poi_pair_within(ra, rb)) {
          continue;
        }
      }
      adj[a].push_back(b);
    }
  }
  return adj;
}

// Viterbi by pull relaxation over a per-problem candidate in-adjacency:
// for each target, the argmin of dp over its candidate in-neighbours in
// ascending candidate order, strict compare (lowest index wins ties).
inline StatusOr<region::RegionTrajectory> PullCsrViterbi(
    const core::ReconstructionProblem& problem) {
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (len == 1) {
    size_t best = 0;
    for (size_t c = 1; c < num_cand; ++c) {
      if (problem.NodeError(0, c) < problem.NodeError(0, best)) best = c;
    }
    return region::RegionTrajectory{candidates[best]};
  }
  std::vector<int32_t> cand_index(problem.graph().num_regions(), -1);
  for (size_t c = 0; c < num_cand; ++c) {
    cand_index[candidates[c]] = static_cast<int32_t>(c);
  }
  std::vector<std::vector<int32_t>> in_adj(num_cand);
  for (size_t u = 0; u < num_cand; ++u) {
    for (region::RegionId nb : problem.graph().Neighbors(candidates[u])) {
      const int32_t c = cand_index[nb];
      if (c >= 0) {
        in_adj[static_cast<size_t>(c)].push_back(static_cast<int32_t>(u));
      }
    }
  }
  std::vector<double> dp(num_cand), next(num_cand);
  std::vector<std::vector<int32_t>> parent(len,
                                           std::vector<int32_t>(num_cand, -1));
  for (size_t c = 0; c < num_cand; ++c) {
    dp[c] = problem.Multiplicity(0) * problem.NodeError(0, c);
  }
  for (size_t i = 1; i < len; ++i) {
    const double mult = problem.Multiplicity(i);
    for (size_t c = 0; c < num_cand; ++c) {
      double best = kInf;
      int32_t arg = -1;
      for (int32_t u : in_adj[c]) {
        if (dp[static_cast<size_t>(u)] < best) {
          best = dp[static_cast<size_t>(u)];
          arg = u;
        }
      }
      next[c] = arg < 0 ? kInf : best + mult * problem.NodeError(i, c);
      parent[i][c] = arg;
    }
    std::swap(dp, next);
  }
  size_t best = num_cand;
  double best_cost = kInf;
  for (size_t c = 0; c < num_cand; ++c) {
    if (dp[c] < best_cost) {
      best_cost = dp[c];
      best = c;
    }
  }
  if (best == num_cand) {
    return Status::FailedPrecondition(
        "no feasible region sequence exists over the candidate set");
  }
  region::RegionTrajectory out(len);
  size_t cur = best;
  for (size_t i = len; i-- > 0;) {
    out[i] = candidates[cur];
    if (i > 0) cur = static_cast<size_t>(parent[i][cur]);
  }
  return out;
}

}  // namespace trajldp::testing

#endif  // TRAJLDP_TESTS_RECONSTRUCTION_ORACLES_H_
