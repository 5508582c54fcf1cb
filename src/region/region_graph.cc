#include "region/region_graph.h"

#include <algorithm>
#include <numeric>

namespace trajldp::region {

namespace {

// Exact test: does any POI pair (p ∈ a, q ∈ b) lie within theta_km?
// Scans the smaller region's POIs against the larger one's, early-exiting
// on the first hit. Only runs for pairs the bounding boxes cannot decide.
bool AnyPoiPairWithin(const model::PoiDatabase& db, const StcRegion& a,
                      const StcRegion& b, double theta_km) {
  const StcRegion& small = a.pois.size() <= b.pois.size() ? a : b;
  const StcRegion& large = a.pois.size() <= b.pois.size() ? b : a;
  for (model::PoiId p : small.pois) {
    const geo::LatLon& loc = db.poi(p).location;
    if (large.bounds.DistanceKm(loc) > theta_km) continue;
    for (model::PoiId q : large.pois) {
      if (geo::HaversineKm(loc, db.poi(q).location) <= theta_km) {
        return true;
      }
    }
  }
  return false;
}

// Spatial reachability of two distinct regions: some POI pair lies
// within theta_km. Reads only the POI sets and their bounding boxes.
bool SpatiallyReachable(const model::PoiDatabase& db, const StcRegion& a,
                        const StcRegion& b, double theta_km) {
  if (a.bounds.MinDistanceKm(b.bounds) > theta_km) return false;
  return !(a.bounds.MaxDistanceKm(b.bounds) > theta_km) ||
         AnyPoiPairWithin(db, a, b, theta_km);
}

// Time order: can a visit in `a` precede a visit in `b` by at least one
// timestep? Interval boundaries are multiples of g_t by construction.
bool TimeOrderFeasible(const StcRegion& a, const StcRegion& b,
                       int granularity_minutes) {
  return b.time.end > a.time.begin + granularity_minutes;
}

// Numbers the distinct POI sets of `decomp`: set_of[r] is region r's set
// id, and representative[s] the lowest region holding set s. Equal sets
// have bit-identical bounding boxes (both are built from the same sorted
// POI list), so any region of a set stands in for all of them.
void InternPoiSets(const StcDecomposition& decomp,
                   std::vector<uint32_t>& set_of,
                   std::vector<RegionId>& representative) {
  const size_t n = decomp.num_regions();
  std::vector<RegionId> order(n);
  std::iota(order.begin(), order.end(), RegionId{0});
  std::stable_sort(order.begin(), order.end(), [&](RegionId x, RegionId y) {
    return decomp.region(x).pois < decomp.region(y).pois;
  });
  set_of.assign(n, 0);
  representative.clear();
  for (size_t k = 0; k < n; ++k) {
    const RegionId r = order[k];
    if (k == 0 || decomp.region(r).pois != decomp.region(order[k - 1]).pois) {
      representative.push_back(r);
    }
    set_of[r] = static_cast<uint32_t>(representative.size() - 1);
  }
}

}  // namespace

RegionGraph RegionGraph::Build(const StcDecomposition& decomp,
                               const model::ReachabilityConfig& reach) {
  RegionGraph graph(&decomp, reach);
  const size_t n = decomp.num_regions();
  const int g_t = decomp.time().granularity_minutes();
  const double theta = reach.ReferenceThetaKm();
  const bool unconstrained = reach.unconstrained();

  std::vector<uint32_t> set_of;
  std::vector<RegionId> representative;
  InternPoiSets(decomp, set_of, representative);
  const size_t num_sets = representative.size();
  // spatial[sa * num_sets + sb]: −1 undecided, else the memoised decision
  // for regions with POI sets sa → sb (a ≠ b).
  std::vector<int8_t> spatial(unconstrained ? 0 : num_sets * num_sets, -1);
  auto spatially_reachable = [&](RegionId a, RegionId b) {
    int8_t& decided = spatial[set_of[a] * num_sets + set_of[b]];
    if (decided < 0) {
      decided = SpatiallyReachable(decomp.db(),
                                   decomp.region(representative[set_of[a]]),
                                   decomp.region(representative[set_of[b]]),
                                   theta)
                    ? 1
                    : 0;
    }
    return decided == 1;
  };

  graph.words_per_row_ = (n + 63) / 64;
  graph.pred_bits_.assign(n * graph.words_per_row_, 0);
  graph.in_degree_.assign(n, 0);
  graph.offsets_.assign(n + 1, 0);
  for (RegionId a = 0; a < n; ++a) {
    graph.offsets_[a] = graph.targets_.size();
    const StcRegion& ra = decomp.region(a);
    for (RegionId b = 0; b < n; ++b) {
      if (!TimeOrderFeasible(ra, decomp.region(b), g_t)) continue;
      // a == b: the zero self-distance always satisfies θ.
      if (!unconstrained && a != b && !spatially_reachable(a, b)) continue;
      graph.targets_.push_back(b);
      graph.pred_bits_[b * graph.words_per_row_ + (a >> 6)] |=
          uint64_t{1} << (a & 63);
      ++graph.in_degree_[b];
    }
  }
  graph.offsets_[n] = graph.targets_.size();

  // Predecessor lists of the low-in-degree targets. Sources are visited
  // in ascending order, so every list comes out ascending.
  graph.pred_offsets_.assign(n + 1, 0);
  for (RegionId b = 0; b < n; ++b) {
    graph.pred_offsets_[b + 1] =
        graph.pred_offsets_[b] +
        (graph.HasPredecessorList(b) ? graph.in_degree_[b] : 0);
  }
  graph.pred_sources_.resize(graph.pred_offsets_[n]);
  std::vector<size_t> cursor(graph.pred_offsets_.begin(),
                             graph.pred_offsets_.end() - 1);
  for (RegionId a = 0; a < n; ++a) {
    for (RegionId b : graph.Neighbors(a)) {
      if (graph.HasPredecessorList(b)) graph.pred_sources_[cursor[b]++] = a;
    }
  }
  return graph;
}

double RegionGraph::CountNgrams(int n) const {
  const size_t regions = num_regions();
  if (n <= 0 || regions == 0) return 0.0;
  // paths[r] = number of feasible suffixes of length k starting at r.
  std::vector<double> paths(regions, 1.0);
  for (int step = 1; step < n; ++step) {
    std::vector<double> next(regions, 0.0);
    for (RegionId r = 0; r < regions; ++r) {
      double total = 0.0;
      for (RegionId nb : Neighbors(r)) total += paths[nb];
      next[r] = total;
    }
    paths = std::move(next);
  }
  double total = 0.0;
  for (double p : paths) total += p;
  return total;
}

}  // namespace trajldp::region
