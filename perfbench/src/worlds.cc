#include "worlds.h"

#include <utility>

#include "synth/campus.h"
#include "synth/safegraph.h"

namespace perfbench {

using trajldp::Status;
using trajldp::StatusOr;

namespace {

// The dataset generators' default world seed: the city and campus every
// workload runs on, whatever its own seed.
constexpr uint64_t kWorldSeed = 7;

}  // namespace

StatusOr<trajldp::eval::Dataset> MakeDataset(WorldKind kind) {
  trajldp::eval::DatasetOptions options;
  options.seed = kWorldSeed;
  // Users are drawn separately (MakeUsers); the generator's own
  // trajectory set is not used.
  options.num_trajectories = 1;
  return kind == WorldKind::kCity
             ? trajldp::eval::MakeSafegraphDataset(options)
             : trajldp::eval::MakeCampusDataset(options);
}

StatusOr<std::unique_ptr<World>> MakeWorld(
    WorldKind kind, std::optional<trajldp::core::PoiPolicy> policy) {
  auto dataset = MakeDataset(kind);
  if (!dataset.ok()) return dataset.status();
  std::unique_ptr<World> world(new World{std::move(*dataset), {}});

  trajldp::core::NGramConfig config;
  config.reachability = world->dataset.reachability;
  if (policy.has_value()) config.poi.policy = *policy;
  auto mech = trajldp::core::NGramMechanism::Build(
      &world->dataset.db, world->dataset.time, config);
  if (!mech.ok()) return mech.status();
  world->mechanism.emplace(std::move(*mech));
  return world;
}

StatusOr<trajldp::model::TrajectorySet> MakeUsers(
    const trajldp::eval::Dataset& dataset, WorldKind kind, uint64_t seed,
    size_t count) {
  // Generate with headroom for the feasibility filter and the length
  // strata below; when a seed leaves a stratum short, generate twice as
  // many and try again.
  for (size_t generate = 2 * count + 64;; generate *= 2) {
    StatusOr<trajldp::model::TrajectorySet> generated =
        trajldp::model::TrajectorySet{};
    int min_len = 0;
    int max_len = 0;
    if (kind == WorldKind::kCity) {
      trajldp::synth::SafegraphConfig config;
      config.num_trajectories = generate;
      config.speed_kmh = dataset.reachability.speed_kmh;
      config.seed = seed;
      min_len = config.min_len;
      max_len = config.max_len;
      generated = trajldp::synth::GenerateSafegraphTrajectories(
          dataset.db, dataset.time, config);
    } else {
      trajldp::synth::CampusConfig config;
      config.num_trajectories = generate;
      config.speed_kmh = dataset.reachability.speed_kmh;
      config.seed = seed;
      min_len = config.min_len;
      max_len = config.max_len;
      // The 1:2:4 induced-event structure, scaled as
      // eval::MakeCampusDataset scales it.
      config.event_residence_count = generate / 10;
      config.event_stadium_count = generate / 5;
      config.event_academic_count = (generate * 2) / 5;
      generated = trajldp::synth::GenerateCampusTrajectories(
          dataset.db, dataset.time, config);
    }
    if (!generated.ok()) return generated.status();
    trajldp::eval::FilterFeasible(dataset.db, dataset.time,
                                  dataset.reachability, &*generated);

    // Per-user cost grows with trajectory length, so the users are taken
    // round-robin over the generator's length range: every run, and every
    // run of consecutive users, holds the same mix of lengths whatever the
    // seed, and seed-to-seed spread measures the program, not the mix.
    std::vector<std::vector<size_t>> by_length(max_len - min_len + 1);
    for (size_t i = 0; i < generated->size(); ++i) {
      const int len = static_cast<int>((*generated)[i].size());
      if (len >= min_len && len <= max_len) {
        by_length[len - min_len].push_back(i);
      }
    }
    trajldp::model::TrajectorySet users;
    std::vector<size_t> taken(by_length.size(), 0);
    while (users.size() < count) {
      const size_t stratum = users.size() % by_length.size();
      if (taken[stratum] == by_length[stratum].size()) break;
      users.push_back((*generated)[by_length[stratum][taken[stratum]++]]);
    }
    if (users.size() == count) return users;
    if (generate > 64 * count + 4096) {
      return Status::Internal("generator yields too few feasible users of "
                              "some length for seed " +
                              std::to_string(seed));
    }
  }
}

StatusOr<std::vector<trajldp::region::RegionTrajectory>> ToRegions(
    const World& world, const trajldp::model::TrajectorySet& users) {
  std::vector<trajldp::region::RegionTrajectory> out;
  out.reserve(users.size());
  for (const auto& trajectory : users) {
    auto regions = world.mech().decomposition().ToRegionTrajectory(trajectory);
    if (!regions.ok()) return regions.status();
    out.push_back(std::move(*regions));
  }
  return out;
}

}  // namespace perfbench
