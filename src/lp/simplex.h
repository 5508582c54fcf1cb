#ifndef TRAJLDP_LP_SIMPLEX_H_
#define TRAJLDP_LP_SIMPLEX_H_

#include <vector>

#include "common/status_or.h"
#include "lp/dense_matrix.h"
#include "lp/lp_problem.h"

namespace trajldp::lp {

/// \brief Reusable tableau storage for SimplexSolver. One per thread.
///
/// A reconstruction LP allocates a dense (m+1) × (cols+1) tableau; across
/// a batch of same-shaped users that allocation dominates solver set-up.
/// Keeping the tableau (and the basis / artificial bookkeeping) in a
/// workspace makes repeated solves allocation-free once the buffers reach
/// steady state. Not thread-safe — each worker owns its own workspace.
struct SimplexWorkspace {
  DenseMatrix tableau;
  std::vector<size_t> basis;
  std::vector<char> has_artificial;
};

/// \brief Two-phase dense tableau simplex solver.
///
/// Stands in for the off-the-shelf LP solver the paper uses for the
/// optimal region-level reconstruction (§5.5, §5.8). Phase 1 finds a basic
/// feasible solution via artificial variables; phase 2 optimises the true
/// objective. Bland's rule guarantees termination (no cycling).
///
/// The reconstruction LP is a shortest-path/flow LP, whose basic optimal
/// solutions are integral — so solving the relaxation solves the paper's
/// ILP exactly (verified against the DP reconstructor in tests).
class SimplexSolver {
 public:
  struct Options {
    /// Hard iteration cap across both phases.
    size_t max_iterations = 200000;
    /// Numerical tolerance for reduced costs / pivots / feasibility.
    double tolerance = 1e-9;
  };

  /// Largest dense tableau Solve will allocate, in cells ((m + 1) ×
  /// (columns + 1) doubles): 2^26 cells, 512 MiB. The reconstruction
  /// ablation's instances stay near 2^23; a city-sized candidate set
  /// (~1600 regions) would ask for tens of GiB.
  static constexpr size_t kMaxTableauCells = size_t{1} << 26;

  /// ResourceExhausted when a problem of `num_vars` structural variables,
  /// `num_slack` slack/surplus columns and `num_constraints` rows would
  /// need a tableau over kMaxTableauCells; Ok otherwise. Solve runs this
  /// check first; callers that assemble large LPs run it before paying
  /// for the assembly.
  static Status CheckTableauSize(size_t num_vars, size_t num_slack,
                                 size_t num_constraints);

  SimplexSolver() : options_() {}
  explicit SimplexSolver(Options options) : options_(options) {}

  /// Solves `problem`. Fails with:
  ///  * InvalidArgument   — malformed problem,
  ///  * FailedPrecondition — infeasible,
  ///  * OutOfRange        — unbounded,
  ///  * ResourceExhausted — iteration cap hit, or the dense tableau
  ///    would exceed kMaxTableauCells (checked before allocating).
  StatusOr<LpSolution> Solve(const LpProblem& problem) const;

  /// Workspace variant: all tableau scratch lives in `ws` and the result
  /// is written into `solution` (its vector is reused). Bit-identical to
  /// the workspace-free overload.
  Status Solve(const LpProblem& problem, SimplexWorkspace& ws,
               LpSolution& solution) const;

 private:
  Options options_;
};

}  // namespace trajldp::lp

#endif  // TRAJLDP_LP_SIMPLEX_H_
