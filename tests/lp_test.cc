#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "core/lp_reconstructor.h"
#include "core/reconstruction.h"
#include "lp/dense_matrix.h"
#include "lp/lp_problem.h"
#include "lp/simplex.h"
#include "region/decomposition.h"
#include "region/region_distance.h"
#include "region/region_graph.h"
#include "test_world.h"

namespace trajldp::lp {
namespace {

// ---------- DenseMatrix ----------

TEST(DenseMatrixTest, BasicOps) {
  DenseMatrix m(2, 3, 1.0);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(0, 1) = 5.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 5.0);
  m.ScaleRow(0, 2.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 10.0);
  m.AddRowMultiple(1, 0, -0.5);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), -4.0);
}

// ---------- LpProblem ----------

TEST(LpProblemTest, ValidateCatchesBadIndices) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 1.0};
  lp.AddConstraint({{0, 1.0}, {5, 1.0}}, LpProblem::Relation::kEq, 1.0);
  EXPECT_FALSE(lp.Validate().ok());
}

TEST(LpProblemTest, ValidateCatchesObjectiveSizeMismatch) {
  LpProblem lp;
  lp.num_vars = 3;
  lp.objective = {1.0};
  EXPECT_FALSE(lp.Validate().ok());
}

// ---------- SimplexSolver ----------

// Classic textbook LP:
//   max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
//   → optimum (2, 6), objective 36. As minimisation: min −3x − 5y = −36.
TEST(SimplexTest, TextbookMaximisation) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-3.0, -5.0};
  lp.AddConstraint({{0, 1.0}}, LpProblem::Relation::kLe, 4.0);
  lp.AddConstraint({{1, 2.0}}, LpProblem::Relation::kLe, 12.0);
  lp.AddConstraint({{0, 3.0}, {1, 2.0}}, LpProblem::Relation::kLe, 18.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_NEAR(solution->objective, -36.0, 1e-9);
  EXPECT_NEAR(solution->x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution->x[1], 6.0, 1e-9);
}

TEST(SimplexTest, EqualityConstraints) {
  // min x + 2y s.t. x + y = 3, x − y = 1 → x = 2, y = 1, objective 4.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 2.0};
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpProblem::Relation::kEq, 3.0);
  lp.AddConstraint({{0, 1.0}, {1, -1.0}}, LpProblem::Relation::kEq, 1.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_NEAR(solution->x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution->x[1], 1.0, 1e-9);
  EXPECT_NEAR(solution->objective, 4.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualConstraints) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1 → (4, 0)? x=4,y=0: obj 8.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {2.0, 3.0};
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpProblem::Relation::kGe, 4.0);
  lp.AddConstraint({{0, 1.0}}, LpProblem::Relation::kGe, 1.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_NEAR(solution->objective, 8.0, 1e-9);
  EXPECT_NEAR(solution->x[0], 4.0, 1e-9);
}

TEST(SimplexTest, DetectsInfeasibility) {
  // x >= 0 with x <= -1 is infeasible.
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.AddConstraint({{0, 1.0}}, LpProblem::Relation::kLe, -1.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  EXPECT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SimplexTest, DetectsUnboundedness) {
  // min −x with only x >= 1: unbounded below.
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {-1.0};
  lp.AddConstraint({{0, 1.0}}, LpProblem::Relation::kGe, 1.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  EXPECT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kOutOfRange);
}

TEST(SimplexTest, NegativeRhsIsNormalised) {
  // x − y <= −2 with min x + y → y >= x + 2, optimum (0, 2).
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 1.0};
  lp.AddConstraint({{0, 1.0}, {1, -1.0}}, LpProblem::Relation::kLe, -2.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_NEAR(solution->objective, 2.0, 1e-9);
  EXPECT_NEAR(solution->x[1], 2.0, 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Redundant constraints (degenerate vertices) must not cycle.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-1.0, -1.0};
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpProblem::Relation::kLe, 1.0);
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpProblem::Relation::kLe, 1.0);
  lp.AddConstraint({{0, 2.0}, {1, 2.0}}, LpProblem::Relation::kLe, 2.0);
  lp.AddConstraint({{0, 1.0}}, LpProblem::Relation::kLe, 1.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_NEAR(solution->objective, -1.0, 1e-9);
}

TEST(SimplexTest, RedundantEqualityRows) {
  // Same equality twice: phase 1 leaves an artificial basic at zero in a
  // redundant row; phase 2 must still solve correctly.
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {1.0, 1.0};
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpProblem::Relation::kEq, 2.0);
  lp.AddConstraint({{0, 2.0}, {1, 2.0}}, LpProblem::Relation::kEq, 4.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_NEAR(solution->objective, 2.0, 1e-9);
}

// Shortest path as an LP: the flow polytope has integral vertices, so the
// simplex solution must be 0/1 and match the obvious shortest path.
TEST(SimplexTest, ShortestPathFlowIsIntegral) {
  // Graph: s→a (1), s→b (4), a→b (1), a→t (5), b→t (1).
  // Shortest s→t = s→a→b→t with cost 3.
  // Vars: x_sa, x_sb, x_ab, x_at, x_bt.
  LpProblem lp;
  lp.num_vars = 5;
  lp.objective = {1.0, 4.0, 1.0, 5.0, 1.0};
  // Flow out of s = 1.
  lp.AddConstraint({{0, 1.0}, {1, 1.0}}, LpProblem::Relation::kEq, 1.0);
  // Conservation at a: x_sa = x_ab + x_at.
  lp.AddConstraint({{0, 1.0}, {2, -1.0}, {3, -1.0}},
                   LpProblem::Relation::kEq, 0.0);
  // Conservation at b: x_sb + x_ab = x_bt.
  lp.AddConstraint({{1, 1.0}, {2, 1.0}, {4, -1.0}},
                   LpProblem::Relation::kEq, 0.0);

  SimplexSolver solver;
  auto solution = solver.Solve(lp);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_NEAR(solution->objective, 3.0, 1e-9);
  for (double x : solution->x) {
    EXPECT_TRUE(std::abs(x) < 1e-9 || std::abs(x - 1.0) < 1e-9)
        << "fractional flow " << x;
  }
  EXPECT_NEAR(solution->x[0], 1.0, 1e-9);  // s→a
  EXPECT_NEAR(solution->x[2], 1.0, 1e-9);  // a→b
  EXPECT_NEAR(solution->x[4], 1.0, 1e-9);  // b→t
}

TEST(SimplexTest, ReportsIterationCap) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.objective = {-3.0, -5.0};
  lp.AddConstraint({{0, 1.0}}, LpProblem::Relation::kLe, 4.0);
  lp.AddConstraint({{1, 2.0}}, LpProblem::Relation::kLe, 12.0);

  SimplexSolver::Options options;
  options.max_iterations = 1;
  SimplexSolver solver(options);
  auto solution = solver.Solve(lp);
  EXPECT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
}

TEST(SimplexTest, RefusesOversizedTableauBeforeAllocating) {
  // 9000 one-term equality rows over one variable: a (9001 × 9002)-cell
  // tableau, over kMaxTableauCells, though the problem itself is tiny.
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  for (int i = 0; i < 9000; ++i) {
    lp.AddConstraint({{0, 1.0}}, LpProblem::Relation::kEq, 1.0);
  }
  ASSERT_GT(size_t{9001} * 9002, SimplexSolver::kMaxTableauCells);

  SimplexSolver solver;
  SimplexWorkspace ws;
  LpSolution solution;
  const Status status = solver.Solve(lp, ws, solution);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  EXPECT_EQ(ws.tableau.rows(), 0u);
  EXPECT_EQ(ws.tableau.cols(), 0u);
}

}  // namespace
}  // namespace trajldp::lp

namespace trajldp::core {
namespace {

TEST(LpReconstructorTest, RefusesCitySizedCandidateSetBeforeBuildingTheLp) {
  // A 20 × 20 lattice cut into 16 cells × 4 categories × 24 hours, with
  // no speed limit: over a thousand regions and a dense feasibility
  // graph, the size of the city's MBR candidate sets. Its flow LP would
  // need millions of variables.
  trajldp::testing::GridWorldOptions grid;
  grid.rows = 20;
  grid.cols = 20;
  grid.spacing_km = 0.5;
  auto db = trajldp::testing::MakeGridWorld(grid);
  ASSERT_TRUE(db.ok());
  const model::TimeDomain time = *model::TimeDomain::Create(10);
  region::DecompositionConfig config;
  config.grid_size = 4;
  config.coarse_grids = {1};
  config.base_interval_minutes = 60;
  config.merge.kappa = 1;
  auto decomp = region::StcDecomposition::Build(&*db, time, config);
  ASSERT_TRUE(decomp.ok()) << decomp.status();
  ASSERT_GT(decomp->num_regions(), 1000u);
  const region::RegionDistance distance(&*decomp);
  const auto graph = region::RegionGraph::Build(
      *decomp, model::ReachabilityConfig::Unconstrained());
  std::vector<region::RegionId> all(decomp->num_regions());
  for (size_t r = 0; r < all.size(); ++r) {
    all[r] = static_cast<region::RegionId>(r);
  }
  const PerturbedNgramSet z = {PerturbedNgram{1, 2, {all[0], all[1]}},
                               PerturbedNgram{2, 3, {all[1], all[2]}}};
  auto problem = ReconstructionProblem::Create(&distance, &graph, 3, z, all);
  ASSERT_TRUE(problem.ok()) << problem.status();

  LpReconstructor lp;
  auto ws = lp.NewWorkspace();
  region::RegionTrajectory out;
  const Status status = lp.ReconstructInto(*problem, *ws, out);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  // Refused from the counts alone: no bigram list, variable, objective
  // coefficient, constraint or tableau was built.
  const auto& w = dynamic_cast<const LpReconstructorWorkspace&>(*ws);
  EXPECT_TRUE(w.bigrams.empty());
  EXPECT_EQ(w.lp.num_vars, 0u);
  EXPECT_TRUE(w.lp.objective.empty());
  EXPECT_TRUE(w.lp.constraints.empty());
  EXPECT_EQ(w.simplex.tableau.rows(), 0u);
}

TEST(LpReconstructorTest, TableauSizeCheckMatchesTheSolversOwn) {
  // 9001 × 9002 cells is over the cap; 8000 × 8001 is under it.
  EXPECT_EQ(lp::SimplexSolver::CheckTableauSize(1, 0, 9000).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(lp::SimplexSolver::CheckTableauSize(1, 0, 7999).ok());
}

}  // namespace
}  // namespace trajldp::core
