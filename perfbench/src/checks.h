#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checkers. Each returns an empty string when the outputs hold
// the property and a description of the first violation otherwise. The
// properties come from the method (lengths, region membership, time
// order, reachability, ε split, report shape) or from computations the
// benchmark makes apart from the program (its own haversine distances,
// its own shortest-path optimum, its own visitor counts).
//
// Every checker has a negative control (NegativeControl below): the
// workloads corrupt a copy of their real outputs and require the checker
// to reject it, so a checker that cannot fail shows up as a failed run.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analytics/stream_analytics.h"
#include "core/mechanism.h"
#include "eval/dataset.h"
#include "io/wire.h"

namespace perfbench::checks {

using trajldp::core::FullRelease;
using trajldp::region::RegionTrajectory;

/// Every release has its input's length, at region and POI level.
std::string ReleaseLengths(std::span<const RegionTrajectory> inputs,
                           std::span<const FullRelease> releases);

/// Every released POI is a member of its released region and, unless the
/// time-smoothing fallback produced the release, its visit time lies in
/// the region's time interval.
std::string PoisInRegions(const trajldp::core::NGramMechanism& mech,
                          const trajldp::model::TimeDomain& time,
                          std::span<const FullRelease> releases);

/// Visit times strictly increase within every release.
std::string TimesIncrease(std::span<const FullRelease> releases);

/// Consecutive visits are reachable: great-circle distance computed here
/// from the POI coordinates is at most speed × gap.
std::string Reachable(const trajldp::model::PoiDatabase& db,
                      const trajldp::model::TimeDomain& time, double speed_kmh,
                      std::span<const FullRelease> releases);

/// The released region sequence is a feasible minimum-cost sequence for
/// report `z`: its cost equals the optimum of an exact shortest-path
/// search written here over the pipeline's candidate set, and the
/// optimum of LpReconstructor over a small candidate subset that
/// contains the released sequence (an optimum over all candidates is an
/// optimum over every subset holding it).
std::string RegionCostOptimal(const trajldp::core::NGramMechanism& mech,
                              const trajldp::core::PerturbedNgramSet& z,
                              const RegionTrajectory& released);

/// Bit-identical releases (regions, POIs, times, sampling diagnostics).
std::string SameReleases(std::span<const FullRelease> expected,
                         std::span<const FullRelease> actual);

/// Device reports: L + n − 1 n-grams with consistent bounds, region ids
/// below R, and per-draw budgets ε′ that sum to ε.
std::string ReportShape(const trajldp::core::NgramPerturber& perturber,
                        size_t num_regions, double epsilon,
                        std::span<const RegionTrajectory> users,
                        const trajldp::io::ReportBatch& reports);

/// `frame` decodes back to exactly `reports`.
std::string WireRoundTrip(const std::string& frame,
                          const trajldp::io::ReportBatch& reports);

/// Every user id in [0, count) was released exactly once and no other id
/// was released.
std::string ExactlyOnce(std::span<const uint64_t> released_ids,
                        uint64_t count);

/// The analytics bundle's per-window POI visitor counts (top-k over all
/// POIs) and hotspots equal the counts taken here from the releases.
std::string VisitorCounts(const trajldp::analytics::StreamAnalytics& analytics,
                          const trajldp::model::TimeDomain& time,
                          const trajldp::eval::HotspotSpec& hotspot_spec,
                          std::span<const FullRelease> releases);

/// Runs the negative controls of the release checkers (lengths, region
/// membership, time order, reachability, optimality when `z0`, the report
/// of releases[0], is given, and bit-identity) on corrupted copies of the
/// first releases. Returns the first control whose corrupted output
/// passed, or an empty string.
std::string ReleaseNegativeControls(
    const trajldp::core::NGramMechanism& mech,
    const trajldp::eval::Dataset& dataset,
    std::span<const RegionTrajectory> inputs,
    std::span<const FullRelease> releases,
    const trajldp::core::PerturbedNgramSet* z0);

/// Corrupts a copy of `outputs` and requires `check` to reject it.
/// Returns an error when the corrupted output passes.
template <typename T, typename Corrupt, typename CheckFn>
std::string NegativeControl(const std::string& name, T outputs,
                            Corrupt corrupt, CheckFn check) {
  corrupt(outputs);
  if (check(outputs).empty()) {
    return "negative control '" + name + "': corrupted output passed";
  }
  return "";
}

}  // namespace perfbench::checks

#endif  // PERFBENCH_CHECKS_H_
