#include "core/viterbi_reconstructor.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace trajldp::core {

using region::RegionId;

namespace {

// One finite dp entry of the current layer, as the sorted scan ranks it.
struct RankedEntry {
  double cost;
  int32_t index;   // candidate index
  RegionId region;  // candidates[index], for the predecessor-bit test
};

}  // namespace

std::unique_ptr<Reconstructor::Workspace> ViterbiReconstructor::NewWorkspace()
    const {
  return std::make_unique<ViterbiWorkspace>();
}

Status ViterbiReconstructor::ReconstructInto(
    const ReconstructionProblem& problem, Workspace& ws,
    region::RegionTrajectory& out) const {
  auto* w = dynamic_cast<ViterbiWorkspace*>(&ws);
  if (w == nullptr) {
    return Status::InvalidArgument(
        "workspace was not created by ViterbiReconstructor::NewWorkspace");
  }
  const size_t len = problem.traj_len();
  const auto& candidates = problem.candidates();
  const size_t num_cand = candidates.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (len == 1) {
    // Single point: pick the candidate with the smallest region error.
    const double* err = problem.NodeErrorRow(0);
    size_t best = 0;
    for (size_t c = 1; c < num_cand; ++c) {
      if (err[c] < err[best]) best = c;
    }
    out.assign(1, candidates[best]);
    return Status::Ok();
  }

  // SoA scratch, one line-aligned arena carve per array.
  const region::RegionGraph& graph = problem.graph();
  const size_t num_regions = graph.num_regions();
  w->arena.Reset(AlignedArena::BytesFor<int32_t>(num_regions) +
                 2 * AlignedArena::BytesFor<double>(num_cand) +
                 AlignedArena::BytesFor<int32_t>(len * num_cand) +
                 AlignedArena::BytesFor<RankedEntry>(num_cand));
  // cand_index[region] = candidate index, or −1 when not a candidate.
  int32_t* cand_index = w->arena.Carve<int32_t>(num_regions);
  // dp[c] / next[c]: cheapest feasible prefix cost ending at candidate c.
  double* dp = w->arena.Carve<double>(num_cand);
  double* next = w->arena.Carve<double>(num_cand);
  // Flattened [traj_len][candidates] back-pointers. No fill: every entry
  // the backtrack can read (rows 1..len−1) is written unconditionally in
  // the layer loop below.
  int32_t* parent = w->arena.Carve<int32_t>(len * num_cand);
  RankedEntry* ranked = w->arena.Carve<RankedEntry>(num_cand);

  std::fill_n(cand_index, num_regions, int32_t{-1});
  for (size_t c = 0; c < num_cand; ++c) {
    cand_index[candidates[c]] = static_cast<int32_t>(c);
  }

  // dp[c] = cheapest cost of a feasible prefix ending at candidate c,
  // where each position i contributes Multiplicity(i) · NodeError(i, c).
  {
    const double mult = problem.Multiplicity(0);
    const double* err = problem.NodeErrorRow(0);
    for (size_t c = 0; c < num_cand; ++c) {
      dp[c] = mult * err[c];
    }
  }

  for (size_t i = 1; i < len; ++i) {
    int32_t* parent_row = parent + i * num_cand;
    const double mult = problem.Multiplicity(i);
    const double* err = problem.NodeErrorRow(i);
    // The node cost is a per-target constant, so the best predecessor of
    // a target is the argmin of dp over its feasible predecessors (the
    // W² constraint), lowest candidate index among equal costs. Ranking
    // the finite dp entries by (dp, index) once per layer turns that
    // argmin into "the first feasible entry in rank order".
    size_t num_ranked = 0;
    for (size_t u = 0; u < num_cand; ++u) {
      if (dp[u] < kInf) {
        ranked[num_ranked++] = {dp[u], static_cast<int32_t>(u),
                                candidates[u]};
      }
    }
    std::sort(ranked, ranked + num_ranked,
              [](const RankedEntry& a, const RankedEntry& b) {
                return a.cost < b.cost ||
                       (a.cost == b.cost && a.index < b.index);
              });
    for (size_t c = 0; c < num_cand; ++c) {
      const RegionId to = candidates[c];
      double best = kInf;
      int32_t arg = -1;
      if (graph.HasPredecessorList(to)) {
        // Few predecessors: scan them directly. The list ascends in
        // region id and candidates ascend in region id, so the strict
        // compare keeps the lowest candidate index among equal costs.
        for (RegionId from : graph.Predecessors(to)) {
          const int32_t u = cand_index[from];
          if (u >= 0 && dp[static_cast<size_t>(u)] < best) {
            best = dp[static_cast<size_t>(u)];
            arg = u;
          }
        }
      } else {
        const uint64_t* pred = graph.PredecessorBits(to);
        for (size_t k = 0; k < num_ranked; ++k) {
          const RegionId from = ranked[k].region;
          if ((pred[from >> 6] >> (from & 63)) & 1u) {
            best = ranked[k].cost;
            arg = ranked[k].index;
            break;
          }
        }
      }
      if (arg < 0) {
        next[c] = kInf;
        parent_row[c] = -1;
      } else {
        next[c] = best + mult * err[c];
        parent_row[c] = arg;
      }
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

  out.resize(len);
  size_t cur = best;
  for (size_t i = len; i-- > 0;) {
    out[i] = candidates[cur];
    if (i > 0) cur = static_cast<size_t>(parent[i * num_cand + cur]);
  }
  return Status::Ok();
}

}  // namespace trajldp::core
