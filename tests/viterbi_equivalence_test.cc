// Equivalence of the production reconstruction path with the oracles in
// reconstruction_oracles.h:
//  * RegionGraph::Build (spatial test memoised per POI-set pair) against
//    the pair-by-pair loop, on test worlds, the campus and the city,
//    constrained and unconstrained — adjacency, bit matrix, in-degrees
//    and predecessor lists;
//  * ViterbiReconstructor (sorted scan over the graph's feasibility
//    tables) against the per-problem pull-CSR kernel, bit for bit, on
//    random problems with forced dp ties, infeasible candidate sets,
//    L = 1 and all-regions candidate sets, and on real perturbed reports
//    through the MBR → all-regions retry.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/collector_pipeline.h"
#include "core/mechanism.h"
#include "core/reconstruction.h"
#include "core/viterbi_reconstructor.h"
#include "eval/dataset.h"
#include "reconstruction_oracles.h"
#include "region/region_index.h"
#include "test_world.h"

namespace trajldp::core {
namespace {

using region::RegionId;
using trajldp::testing::GridWorldOptions;
using trajldp::testing::MakeGridWorld;
using trajldp::testing::PullCsrViterbi;
using trajldp::testing::UngroupedAdjacency;

// A decomposition with its distance table and feasibility graph.
struct World {
  std::unique_ptr<model::PoiDatabase> db;
  model::TimeDomain time;
  std::unique_ptr<region::StcDecomposition> decomp;
  std::unique_ptr<region::RegionDistance> distance;
  std::unique_ptr<region::RegionGraph> graph;
};

std::unique_ptr<World> MakeWorld(const GridWorldOptions& grid,
                                 int granularity_minutes,
                                 const region::DecompositionConfig& config,
                                 const model::ReachabilityConfig& reach) {
  auto world = std::make_unique<World>();
  auto db = MakeGridWorld(grid);
  EXPECT_TRUE(db.ok());
  world->db = std::make_unique<model::PoiDatabase>(std::move(*db));
  world->time = *model::TimeDomain::Create(granularity_minutes);
  auto decomp =
      region::StcDecomposition::Build(world->db.get(), world->time, config);
  EXPECT_TRUE(decomp.ok()) << decomp.status();
  world->decomp =
      std::make_unique<region::StcDecomposition>(std::move(*decomp));
  world->distance =
      std::make_unique<region::RegionDistance>(world->decomp.get());
  world->graph = std::make_unique<region::RegionGraph>(
      region::RegionGraph::Build(*world->decomp, reach));
  return world;
}

region::DecompositionConfig SmallConfig(uint32_t grid_size,
                                        int base_interval_minutes) {
  region::DecompositionConfig config;
  config.grid_size = grid_size;
  config.coarse_grids.clear();
  if (grid_size > 1) config.coarse_grids = {1};
  config.base_interval_minutes = base_interval_minutes;
  config.merge.kappa = 1;
  return config;
}

model::ReachabilityConfig Reach(double speed_kmh) {
  model::ReachabilityConfig reach;
  reach.speed_kmh = speed_kmh;
  reach.reference_gap_minutes = 60;
  return reach;
}

// A dataset world (campus or city) with its mechanism, built once per
// process: the city takes about a second.
struct DatasetWorld {
  eval::Dataset dataset;
  std::unique_ptr<NGramMechanism> mech;
};

const DatasetWorld& Dataset(bool city) {
  static std::unique_ptr<DatasetWorld> worlds[2];
  std::unique_ptr<DatasetWorld>& world = worlds[city ? 1 : 0];
  if (world == nullptr) {
    eval::DatasetOptions options;
    options.seed = 7;
    options.num_trajectories = 200;
    auto dataset = city ? eval::MakeSafegraphDataset(options)
                        : eval::MakeCampusDataset(options);
    EXPECT_TRUE(dataset.ok()) << dataset.status();
    world = std::make_unique<DatasetWorld>(
        DatasetWorld{std::move(*dataset), nullptr});
    NGramConfig config;
    config.reachability = world->dataset.reachability;
    auto mech = NGramMechanism::Build(&world->dataset.db,
                                      world->dataset.time, config);
    EXPECT_TRUE(mech.ok()) << mech.status();
    world->mech = std::make_unique<NGramMechanism>(std::move(*mech));
  }
  return *world;
}

// Every table RegionGraph::Build fills, against the ungrouped oracle:
// adjacency, bit matrix, which targets keep lists, and the lists.
void ExpectGraphMatchesOracle(const region::StcDecomposition& decomp,
                              const model::ReachabilityConfig& reach,
                              const region::RegionGraph& graph) {
  const auto adj = UngroupedAdjacency(decomp, reach);
  const size_t n = decomp.num_regions();
  ASSERT_EQ(graph.num_regions(), n);
  std::vector<std::vector<RegionId>> preds(n);
  size_t rows_differing = 0;
  for (RegionId a = 0; a < n; ++a) {
    const auto nb = graph.Neighbors(a);
    if (!std::equal(nb.begin(), nb.end(), adj[a].begin(), adj[a].end())) {
      ++rows_differing;
    }
    for (RegionId b : adj[a]) preds[b].push_back(a);
  }
  EXPECT_EQ(rows_differing, 0u);
  size_t bits_differing = 0;
  for (RegionId a = 0; a < n; ++a) {
    for (RegionId b = 0; b < n; ++b) {
      const bool expected =
          std::binary_search(adj[a].begin(), adj[a].end(), b);
      if (graph.HasEdge(a, b) != expected) ++bits_differing;
    }
  }
  EXPECT_EQ(bits_differing, 0u);
  for (RegionId b = 0; b < n; ++b) {
    EXPECT_EQ(graph.HasPredecessorList(b), 4 * preds[b].size() < n)
        << "region " << b;
    const auto list = graph.Predecessors(b);
    if (graph.HasPredecessorList(b)) {
      EXPECT_TRUE(std::equal(list.begin(), list.end(), preds[b].begin(),
                             preds[b].end()))
          << "region " << b;
    } else {
      EXPECT_TRUE(list.empty()) << "region " << b;
    }
  }
}

TEST(RegionGraphGroupingTest, TestWorldsMatchUngroupedOracle) {
  GridWorldOptions hours;
  hours.restrict_odd_hours = true;
  GridWorldOptions wide;
  wide.rows = 7;
  wide.cols = 6;
  wide.spacing_km = 0.7;
  // Speeds from "nothing reachable across cells" to "everything", so the
  // box accept, box reject and exact POI scan all decide some set pairs.
  for (const GridWorldOptions& grid : {GridWorldOptions{}, hours, wide}) {
    for (uint32_t grid_size : {1u, 2u, 4u}) {
      for (double speed : {0.5, 1.2, 3.0, 8.0}) {
        SCOPED_TRACE(::testing::Message() << "grid " << grid_size << " speed "
                                        << speed << " rows " << grid.rows);
        auto world = MakeWorld(grid, 10, SmallConfig(grid_size, 360),
                               Reach(speed));
        ExpectGraphMatchesOracle(*world->decomp, Reach(speed),
                                 *world->graph);
      }
      auto world = MakeWorld(grid, 10, SmallConfig(grid_size, 360),
                             model::ReachabilityConfig::Unconstrained());
      ExpectGraphMatchesOracle(*world->decomp,
                               model::ReachabilityConfig::Unconstrained(),
                               *world->graph);
    }
  }
}

TEST(RegionGraphGroupingTest, CampusAndCityMatchUngroupedOracle) {
  for (bool city : {false, true}) {
    SCOPED_TRACE(city ? "city" : "campus");
    const DatasetWorld& world = Dataset(city);
    const auto& decomp = world.mech->decomposition();
    ExpectGraphMatchesOracle(decomp, world.dataset.reachability,
                             world.mech->graph());
    const auto unconstrained = model::ReachabilityConfig::Unconstrained();
    ExpectGraphMatchesOracle(decomp, unconstrained,
                             region::RegionGraph::Build(decomp, unconstrained));
    // Both scan paths of the Viterbi kernel have targets here.
    size_t listed = 0;
    for (RegionId r = 0; r < decomp.num_regions(); ++r) {
      listed += world.mech->graph().HasPredecessorList(r) ? 1 : 0;
    }
    EXPECT_GT(listed, 0u);
    EXPECT_LT(listed, decomp.num_regions());
  }
}

// One random reconstruction problem. z leaves positions uncovered at
// random (their node errors are all zero, so every dp entry of such a
// layer ties), or is empty altogether.
struct RandomProblemStats {
  size_t trials = 0;
  size_t infeasible = 0;
  size_t single_point = 0;
  size_t all_regions = 0;
  size_t all_ties = 0;
};

void CheckRandomProblems(const region::StcDecomposition& decomp,
                         const region::RegionDistance& distance,
                         const region::RegionGraph& graph, uint64_t seed,
                         size_t trials, RandomProblemStats* stats) {
  const size_t n = decomp.num_regions();
  ViterbiReconstructor viterbi;
  auto ws = viterbi.NewWorkspace();
  Rng rng(seed);
  for (size_t trial = 0; trial < trials; ++trial) {
    const size_t len = 1 + static_cast<size_t>(rng.UniformUint64(7));
    std::vector<RegionId> candidates;
    switch (rng.UniformUint64(3)) {
      case 0:  // every region
        for (RegionId r = 0; r < n; ++r) candidates.push_back(r);
        break;
      case 1: {  // a random fraction
        const double keep = rng.UniformDouble(0.05, 0.8);
        for (RegionId r = 0; r < n; ++r) {
          if (rng.Bernoulli(keep)) candidates.push_back(r);
        }
        break;
      }
      default:  // one to three regions: often infeasible
        for (size_t k = 1 + rng.UniformUint64(3); k > 0; --k) {
          candidates.push_back(static_cast<RegionId>(rng.UniformUint64(n)));
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
        break;
    }
    if (candidates.empty()) candidates.push_back(0);

    PerturbedNgramSet z;
    const bool empty_z = rng.Bernoulli(0.2);
    if (!empty_z) {
      for (size_t g = rng.UniformUint64(len + 1); g > 0; --g) {
        PerturbedNgram gram;
        gram.a = 1 + static_cast<size_t>(rng.UniformUint64(len));
        gram.b = std::min(len, gram.a + rng.UniformUint64(2));
        for (size_t i = gram.a; i <= gram.b; ++i) {
          gram.regions.push_back(static_cast<RegionId>(rng.UniformUint64(n)));
        }
        z.push_back(std::move(gram));
      }
    }
    auto problem = ReconstructionProblem::Create(&distance, &graph, len, z,
                                                 candidates);
    ASSERT_TRUE(problem.ok()) << problem.status();

    region::RegionTrajectory got;
    const Status status = viterbi.ReconstructInto(*problem, *ws, got);
    const auto expected = PullCsrViterbi(*problem);
    ASSERT_EQ(status.code(), expected.status().code())
        << "trial " << trial << ": " << status;
    if (expected.ok()) {
      ASSERT_EQ(got, *expected) << "trial " << trial;
    } else {
      ++stats->infeasible;
    }
    ++stats->trials;
    stats->single_point += len == 1 ? 1 : 0;
    stats->all_regions += candidates.size() == n ? 1 : 0;
    stats->all_ties += z.empty() && len > 1 ? 1 : 0;
  }
}

TEST(ViterbiEquivalenceTest, RandomProblemsMatchPullCsrOracle) {
  RandomProblemStats stats;
  // Constrained grid worlds: a mix of low-in-degree (listed) and dense
  // targets.
  for (double speed : {1.2, 3.0}) {
    auto world = MakeWorld(GridWorldOptions{}, 10, SmallConfig(2, 360),
                           Reach(speed));
    CheckRandomProblems(*world->decomp, *world->distance, *world->graph,
                        11 + static_cast<uint64_t>(speed), 400, &stats);
  }
  {
    GridWorldOptions hours;
    hours.restrict_odd_hours = true;
    auto world = MakeWorld(hours, 30, SmallConfig(4, 120), Reach(2.0));
    CheckRandomProblems(*world->decomp, *world->distance, *world->graph, 23,
                        400, &stats);
  }
  // One-timestep intervals: no region has a self-loop, so small
  // candidate sets are often infeasible.
  {
    auto world = MakeWorld(GridWorldOptions{}, 60, SmallConfig(2, 60),
                           Reach(2.0));
    CheckRandomProblems(*world->decomp, *world->distance, *world->graph, 29,
                        400, &stats);
  }
  // The campus, whose dense graph puts most targets on the sorted scan.
  {
    const NGramMechanism& campus = *Dataset(/*city=*/false).mech;
    CheckRandomProblems(campus.decomposition(), campus.distance(),
                        campus.graph(), 31, 200, &stats);
  }
  // Every regime the suite is meant to cover actually occurred.
  EXPECT_GT(stats.infeasible, 20u);
  EXPECT_GT(stats.single_point, 20u);
  EXPECT_GT(stats.all_regions, 50u);
  EXPECT_GT(stats.all_ties, 50u);
  EXPECT_LT(stats.infeasible, stats.trials / 2);
}

// Real perturbed reports through the production collector pipeline, MBR
// candidates with the all-regions retry, against the oracle run over the
// same candidate sets.
TEST(ViterbiEquivalenceTest, PipelineMatchesOracleOnCampusAndCityReports) {
  for (bool city : {false, true}) {
    SCOPED_TRACE(city ? "city" : "campus");
    const DatasetWorld& world = Dataset(city);
    const NGramMechanism& mech = *world.mech;
    const CollectorPipeline pipeline = mech.pipeline();
    PipelineWorkspace ws;
    const size_t users = city ? 20 : 150;
    size_t checked = 0;
    for (const model::Trajectory& trajectory : world.dataset.trajectories) {
      if (checked == users) break;
      auto tau = mech.decomposition().ToRegionTrajectory(trajectory);
      ASSERT_TRUE(tau.ok());
      Rng rng = CollectorPipeline::UserRng(5, checked);
      PerturbedNgramSet z;
      ASSERT_TRUE(pipeline.PerturbInto(*tau, rng, ws.sampler, z).ok());
      region::RegionTrajectory got;
      ASSERT_TRUE(
          pipeline.ReconstructRegionsInto(tau->size(), z, ws, got).ok());

      std::vector<RegionId> observed;
      for (const PerturbedNgram& gram : z) {
        observed.insert(observed.end(), gram.regions.begin(),
                        gram.regions.end());
      }
      std::sort(observed.begin(), observed.end());
      observed.erase(std::unique(observed.begin(), observed.end()),
                     observed.end());
      auto problem = ReconstructionProblem::Create(
          &mech.distance(), &mech.graph(), tau->size(), z,
          region::MbrCandidateRegions(mech.decomposition(), observed));
      ASSERT_TRUE(problem.ok());
      auto expected = PullCsrViterbi(*problem);
      if (expected.status().code() == StatusCode::kFailedPrecondition) {
        std::vector<RegionId> all(mech.decomposition().num_regions());
        for (size_t r = 0; r < all.size(); ++r) {
          all[r] = static_cast<RegionId>(r);
        }
        problem = ReconstructionProblem::Create(
            &mech.distance(), &mech.graph(), tau->size(), z, all);
        ASSERT_TRUE(problem.ok());
        expected = PullCsrViterbi(*problem);
      }
      ASSERT_TRUE(expected.ok()) << expected.status();
      EXPECT_EQ(got, *expected) << "user " << checked;
      ++checked;
    }
    EXPECT_EQ(checked, users);
  }
}

}  // namespace
}  // namespace trajldp::core
