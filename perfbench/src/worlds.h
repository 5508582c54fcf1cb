#ifndef PERFBENCH_WORLDS_H_
#define PERFBENCH_WORLDS_H_

// The two worlds the workloads run on, built through the program's own
// dataset generators. The world (POIs, time domain, reachability) is
// fixed public knowledge; only the users drawn on it depend on the
// workload seed, so per-user cost is comparable across seeds.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status_or.h"
#include "core/mechanism.h"
#include "eval/dataset.h"
#include "model/trajectory.h"
#include "region/decomposition.h"

namespace perfbench {

enum class WorldKind { kCity, kCampus };

/// A dataset's world plus the mechanism built on it. Heap-held so the
/// mechanism's pointer into the POI database stays valid.
struct World {
  trajldp::eval::Dataset dataset;
  std::optional<trajldp::core::NGramMechanism> mechanism;

  const trajldp::core::NGramMechanism& mech() const { return *mechanism; }
  const trajldp::model::PoiDatabase& db() const { return dataset.db; }
};

/// Generates the world's dataset (POIs, time domain, reachability)
/// through the program's eval generators, at a fixed world seed.
trajldp::StatusOr<trajldp::eval::Dataset> MakeDataset(WorldKind kind);

/// Generates the world and builds the mechanism with the program's
/// default NGramConfig, the dataset's reachability and, when given, an
/// explicit POI policy.
trajldp::StatusOr<std::unique_ptr<World>> MakeWorld(
    WorldKind kind, std::optional<trajldp::core::PoiPolicy> policy);

/// Draws exactly `count` users (feasible POI-level trajectories) from the
/// world's trajectory generator under `seed`, cycling through the
/// generator's trajectory lengths (user i has the (i mod 6)-th length).
/// Depends only on the dataset, so users drawn on one copy of a world are
/// valid on another.
trajldp::StatusOr<trajldp::model::TrajectorySet> MakeUsers(
    const trajldp::eval::Dataset& dataset, WorldKind kind, uint64_t seed,
    size_t count);

/// Region-level conversion of `users` on `world`'s decomposition.
trajldp::StatusOr<std::vector<trajldp::region::RegionTrajectory>> ToRegions(
    const World& world, const trajldp::model::TrajectorySet& users);

}  // namespace perfbench

#endif  // PERFBENCH_WORLDS_H_
