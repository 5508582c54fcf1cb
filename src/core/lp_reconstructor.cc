#include "core/lp_reconstructor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "lp/lp_problem.h"

namespace trajldp::core {

std::unique_ptr<Reconstructor::Workspace> LpReconstructor::NewWorkspace()
    const {
  return std::make_unique<LpReconstructorWorkspace>();
}

Status LpReconstructor::ReconstructInto(const ReconstructionProblem& problem,
                                        Workspace& ws,
                                        region::RegionTrajectory& out) const {
  auto* w = dynamic_cast<LpReconstructorWorkspace*>(&ws);
  if (w == nullptr) {
    return Status::InvalidArgument(
        "workspace was not created by LpReconstructor::NewWorkspace");
  }
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();

  if (len == 1) {
    size_t best = 0;
    for (size_t c = 1; c < num_cand; ++c) {
      if (problem.NodeError(0, c) < problem.NodeError(0, best)) best = c;
    }
    out.assign(1, candidates[best]);
    return Status::Ok();
  }

  // Count the feasible candidate bigrams (the W² restriction of x_i^w)
  // and the candidates they touch, which fixes the LP's size before any
  // of it is built: one variable per (layer, bigram), one supply row,
  // and one conservation row per touched candidate between consecutive
  // layers, all equalities.
  size_t num_bigrams = 0;
  size_t touched = 0;
  {
    std::vector<char> touches(num_cand, 0);
    for (size_t c1 = 0; c1 < num_cand; ++c1) {
      for (size_t c2 = 0; c2 < num_cand; ++c2) {
        if (problem.Feasible(c1, c2)) {
          ++num_bigrams;
          touches[c1] = 1;
          touches[c2] = 1;
        }
      }
    }
    touched =
        static_cast<size_t>(std::count(touches.begin(), touches.end(), 1));
  }
  if (num_bigrams == 0) {
    return Status::FailedPrecondition(
        "no feasible candidate bigram exists for the LP reconstruction");
  }
  const size_t layers = len - 1;
  TRAJLDP_RETURN_NOT_OK(lp::SimplexSolver::CheckTableauSize(
      layers * num_bigrams, 0, 1 + (layers - 1) * touched));

  std::vector<std::pair<size_t, size_t>>& bigrams = w->bigrams;
  bigrams.clear();
  bigrams.reserve(num_bigrams);
  for (size_t c1 = 0; c1 < num_cand; ++c1) {
    for (size_t c2 = 0; c2 < num_cand; ++c2) {
      if (problem.Feasible(c1, c2)) bigrams.emplace_back(c1, c2);
    }
  }

  lp::LpProblem& lp = w->lp;
  lp.constraints.clear();
  lp.num_vars = layers * num_bigrams;
  lp.objective.resize(lp.num_vars);
  auto var = [&](size_t layer, size_t k) { return layer * num_bigrams + k; };
  for (size_t i = 0; i < layers; ++i) {
    for (size_t k = 0; k < num_bigrams; ++k) {
      lp.objective[var(i, k)] =
          problem.BigramError(i, bigrams[k].first, bigrams[k].second);
    }
  }

  // Capacity (13)/(14): exactly one bigram in the first layer. Combined
  // with conservation this forces one bigram per layer.
  {
    std::vector<lp::LpProblem::Term> terms;
    terms.reserve(num_bigrams);
    for (size_t k = 0; k < num_bigrams; ++k) {
      terms.push_back({var(0, k), 1.0});
    }
    lp.AddConstraint(std::move(terms), lp::LpProblem::Relation::kEq, 1.0);
  }
  // Continuity (11)/(12) as per-region flow conservation between layers:
  // flow into region c at layer i equals flow out at layer i+1.
  for (size_t i = 0; i + 1 < layers; ++i) {
    for (size_t c = 0; c < num_cand; ++c) {
      std::vector<lp::LpProblem::Term> terms;
      for (size_t k = 0; k < num_bigrams; ++k) {
        if (bigrams[k].second == c) terms.push_back({var(i, k), 1.0});
        if (bigrams[k].first == c) terms.push_back({var(i + 1, k), -1.0});
      }
      if (terms.empty()) continue;
      lp.AddConstraint(std::move(terms), lp::LpProblem::Relation::kEq, 0.0);
    }
  }

  const Status solved = solver_.Solve(lp, w->simplex, w->solution);
  if (!solved.ok()) {
    if (solved.code() == StatusCode::kFailedPrecondition) {
      return Status::FailedPrecondition(
          "no feasible region sequence exists over the candidate set (LP "
          "infeasible)");
    }
    return solved;
  }
  const lp::LpSolution& solution = w->solution;

  // Extract the path. Shortest-path LPs have integral vertex optima, so
  // the per-layer maximiser traces the chosen path; following the region
  // chain keeps the result consistent even under degenerate ties.
  out.resize(len);
  size_t current = num_cand;  // unset
  for (size_t i = 0; i < layers; ++i) {
    size_t best_k = num_bigrams;
    double best_x = 0.25;  // anything clearly fractional-positive
    for (size_t k = 0; k < num_bigrams; ++k) {
      if (current != num_cand && bigrams[k].first != current) continue;
      const double x = solution.x[var(i, k)];
      if (x > best_x) {
        best_x = x;
        best_k = k;
      }
    }
    if (best_k == num_bigrams) {
      return Status::Internal("LP solution does not trace a path");
    }
    out[i] = candidates[bigrams[best_k].first];
    out[i + 1] = candidates[bigrams[best_k].second];
    current = bigrams[best_k].second;
  }
  return Status::Ok();
}

}  // namespace trajldp::core
