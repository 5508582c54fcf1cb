#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "lp/dense_matrix.h"

namespace trajldp::lp {

namespace {

// Internal tableau view: m constraint rows, one cost row; columns are
// [structural | slack/surplus | artificial | rhs]. Storage is borrowed
// from a SimplexWorkspace so repeated solves reuse the allocation.
struct Tableau {
  DenseMatrix& t;             // (m + 1) x (total_cols + 1)
  std::vector<size_t>& basis;  // basis[i] = column basic in row i
  size_t m = 0;
  size_t total_cols = 0;   // excludes rhs column
  size_t artificial_begin = 0;

  double& at(size_t r, size_t c) { return t(r, c); }
  double rhs(size_t r) const { return t(r, total_cols); }
  size_t cost_row() const { return m; }
};

// Runs simplex iterations on the tableau's cost row until optimal,
// unbounded (returns OutOfRange), or the iteration cap (ResourceExhausted).
// `allow_col` filters candidate entering columns.
Status Iterate(Tableau& tab, const SimplexSolver::Options& options,
               size_t* iterations,
               const std::function<bool(size_t)>& allow_col) {
  const size_t cost = tab.cost_row();
  while (true) {
    if (++*iterations > options.max_iterations) {
      return Status::ResourceExhausted("simplex iteration cap exceeded");
    }
    // Bland's rule: entering column = smallest index with negative
    // reduced cost.
    size_t entering = tab.total_cols;
    for (size_t c = 0; c < tab.total_cols; ++c) {
      if (!allow_col(c)) continue;
      if (tab.at(cost, c) < -options.tolerance) {
        entering = c;
        break;
      }
    }
    if (entering == tab.total_cols) return Status::Ok();  // optimal

    // Ratio test, Bland tie-break on smallest basis variable.
    size_t leaving = tab.m;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < tab.m; ++r) {
      const double a = tab.at(r, entering);
      if (a <= options.tolerance) continue;
      const double ratio = tab.rhs(r) / a;
      if (ratio < best_ratio - options.tolerance ||
          (std::abs(ratio - best_ratio) <= options.tolerance &&
           (leaving == tab.m || tab.basis[r] < tab.basis[leaving]))) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == tab.m) {
      return Status::OutOfRange("LP is unbounded");
    }

    // Pivot on (leaving, entering).
    const double pivot = tab.at(leaving, entering);
    tab.t.ScaleRow(leaving, 1.0 / pivot);
    for (size_t r = 0; r <= tab.m; ++r) {
      if (r == leaving) continue;
      const double factor = tab.at(r, entering);
      if (factor != 0.0) tab.t.AddRowMultiple(r, leaving, -factor);
    }
    tab.basis[leaving] = entering;
  }
}

}  // namespace

Status SimplexSolver::CheckTableauSize(size_t num_vars, size_t num_slack,
                                       size_t num_constraints) {
  // The variable and row counts are each checked against the cap first,
  // so the column sum cannot overflow and the product is tested by
  // division. num_slack never exceeds the row count.
  constexpr size_t kCap = kMaxTableauCells;
  const size_t n = num_vars;
  const size_t m = num_constraints;
  if (n >= kCap || m >= kCap || num_slack > m ||
      n + num_slack + m + 1 > kCap / (m + 1)) {
    return Status::ResourceExhausted(
        "simplex tableau for " + std::to_string(n) + " variables and " +
        std::to_string(m) + " constraints exceeds " + std::to_string(kCap) +
        " cells");
  }
  return Status::Ok();
}

StatusOr<LpSolution> SimplexSolver::Solve(const LpProblem& problem) const {
  SimplexWorkspace ws;
  LpSolution solution;
  TRAJLDP_RETURN_NOT_OK(Solve(problem, ws, solution));
  return solution;
}

Status SimplexSolver::Solve(const LpProblem& problem, SimplexWorkspace& ws,
                            LpSolution& solution) const {
  TRAJLDP_RETURN_NOT_OK(problem.Validate());
  const size_t n = problem.num_vars;
  const size_t m = problem.constraints.size();

  // Count slack/surplus columns.
  size_t num_slack = 0;
  for (const auto& con : problem.constraints) {
    if (con.relation != LpProblem::Relation::kEq) ++num_slack;
  }
  // Refuse an oversized tableau before allocating it.
  TRAJLDP_RETURN_NOT_OK(CheckTableauSize(n, num_slack, m));
  // One artificial per row keeps the construction simple; unnecessary ones
  // (rows where a slack can serve as the initial basis) are skipped below.
  Tableau tab{ws.tableau, ws.basis};
  tab.m = m;
  tab.artificial_begin = n + num_slack;
  tab.total_cols = n + num_slack + m;
  tab.t.Reset(m + 1, tab.total_cols + 1, 0.0);
  tab.basis.assign(m, 0);

  size_t slack_cursor = n;
  ws.has_artificial.assign(m, 0);
  std::vector<char>& has_artificial = ws.has_artificial;
  for (size_t r = 0; r < m; ++r) {
    const auto& con = problem.constraints[r];
    // Write the row; flip signs so rhs >= 0.
    const double sign = con.rhs < 0.0 ? -1.0 : 1.0;
    for (const auto& term : con.terms) {
      tab.at(r, term.var) += sign * term.coeff;
    }
    tab.at(r, tab.total_cols) = sign * con.rhs;

    LpProblem::Relation rel = con.relation;
    if (sign < 0.0) {
      if (rel == LpProblem::Relation::kLe) {
        rel = LpProblem::Relation::kGe;
      } else if (rel == LpProblem::Relation::kGe) {
        rel = LpProblem::Relation::kLe;
      }
    }
    if (rel == LpProblem::Relation::kLe) {
      tab.at(r, slack_cursor) = 1.0;  // slack enters the basis directly
      tab.basis[r] = slack_cursor;
      ++slack_cursor;
    } else if (rel == LpProblem::Relation::kGe) {
      tab.at(r, slack_cursor) = -1.0;  // surplus
      ++slack_cursor;
      tab.at(r, tab.artificial_begin + r) = 1.0;
      tab.basis[r] = tab.artificial_begin + r;
      has_artificial[r] = true;
    } else {
      tab.at(r, tab.artificial_begin + r) = 1.0;
      tab.basis[r] = tab.artificial_begin + r;
      has_artificial[r] = true;
    }
  }

  size_t iterations = 0;

  // ---- Phase 1: minimise the sum of artificials. ----
  bool any_artificial = false;
  for (size_t r = 0; r < m; ++r) any_artificial |= has_artificial[r];
  if (any_artificial) {
    // Cost row: +1 per artificial column, then priced out against the
    // initial (artificial) basis so basic columns have zero reduced cost.
    for (size_t r = 0; r < m; ++r) {
      if (has_artificial[r]) {
        tab.at(tab.cost_row(), tab.artificial_begin + r) = 1.0;
      }
    }
    for (size_t r = 0; r < m; ++r) {
      if (has_artificial[r]) {
        tab.t.AddRowMultiple(tab.cost_row(), r, -1.0);
      }
    }
    auto allow_all = [](size_t) { return true; };
    Status st = Iterate(tab, options_, &iterations, allow_all);
    if (!st.ok()) return st;
    const double phase1 = -tab.rhs(tab.cost_row());
    if (phase1 > 1e-7) {
      return Status::FailedPrecondition("LP is infeasible");
    }
    // Drive any artificial still in the basis out (degenerate zero rows).
    for (size_t r = 0; r < m; ++r) {
      if (tab.basis[r] < tab.artificial_begin) continue;
      size_t entering = tab.total_cols;
      for (size_t c = 0; c < tab.artificial_begin; ++c) {
        if (std::abs(tab.at(r, c)) > options_.tolerance) {
          entering = c;
          break;
        }
      }
      if (entering == tab.total_cols) {
        // Redundant row: leave the artificial basic at value zero; it can
        // never re-enter with positive value because its rhs is zero and
        // phase 2 bars artificial columns from entering.
        continue;
      }
      const double pivot = tab.at(r, entering);
      tab.t.ScaleRow(r, 1.0 / pivot);
      for (size_t rr = 0; rr <= tab.m; ++rr) {
        if (rr == r) continue;
        const double factor = tab.at(rr, entering);
        if (factor != 0.0) tab.t.AddRowMultiple(rr, r, -factor);
      }
      tab.basis[r] = entering;
    }
  }

  // ---- Phase 2: minimise the true objective. ----
  // Reset the cost row to the real costs, priced out against the basis.
  for (size_t c = 0; c <= tab.total_cols; ++c) {
    tab.at(tab.cost_row(), c) = 0.0;
  }
  for (size_t c = 0; c < n; ++c) {
    tab.at(tab.cost_row(), c) = problem.objective[c];
  }
  for (size_t r = 0; r < m; ++r) {
    const double cost = tab.basis[r] < n ? problem.objective[tab.basis[r]]
                                         : 0.0;
    if (cost != 0.0) tab.t.AddRowMultiple(tab.cost_row(), r, -cost);
  }
  const size_t artificial_begin = tab.artificial_begin;
  auto structural_only = [artificial_begin](size_t c) {
    return c < artificial_begin;
  };
  Status st = Iterate(tab, options_, &iterations, structural_only);
  if (!st.ok()) return st;

  solution.x.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (tab.basis[r] < n) solution.x[tab.basis[r]] = tab.rhs(r);
  }
  solution.objective = 0.0;
  for (size_t c = 0; c < n; ++c) {
    solution.objective += problem.objective[c] * solution.x[c];
  }
  solution.iterations = iterations;
  return Status::Ok();
}

}  // namespace trajldp::lp
