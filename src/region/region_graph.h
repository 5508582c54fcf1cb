#ifndef TRAJLDP_REGION_REGION_GRAPH_H_
#define TRAJLDP_REGION_REGION_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "model/reachability.h"
#include "region/decomposition.h"

namespace trajldp::region {

/// \brief Directed region reachability graph underlying W_n (§5.3).
///
/// Edge (r_a → r_b) exists iff a region-level bigram {r_a, r_b} is
/// feasible:
///  1. time order — the intervals admit timesteps t_a < t_b; and
///  2. reachability — at least one POI pair (p ∈ r_a, q ∈ r_b) satisfies
///     d_s(p, q) ≤ θ, where θ = speed × reference gap (§4.1).
///
/// Feasible n-grams are exactly the length-(n−1) walks of this graph, so
/// the graph *is* W_n in factored form: |W_n| is obtained by path counting
/// and EM sampling over W_n by forward-backward DP (ngram_domain.h),
/// without materialising the n-gram set.
///
/// The spatial half of the test reads only the two regions' POI sets
/// (their bounding boxes are functions of those sets), so Build decides
/// it once per ordered pair of distinct POI sets and reuses the answer
/// for every region pair that shares them: the campus has 36 distinct
/// sets over 260 regions, the city 155 over 1610. A set pair is accepted
/// without POI checks when the boxes' max distance is within θ, rejected
/// when their min distance exceeds θ, and scanned exactly otherwise.
///
/// Besides the out-adjacency, Build fills two predecessor tables in the
/// same pass, for the Viterbi reconstructor:
///  * an R×R predecessor bit matrix (row `to`, bit `from`), which makes
///    HasEdge one bit test; and
///  * the ascending predecessor list of every low-in-degree target, one
///    whose in-degree d satisfies 4·d < R.
///
/// Memory: the bit matrix takes R²/8 bytes (327 KB on the 1610-region
/// city, 10 KB on the 260-region campus); the lists hold fewer than R/4
/// four-byte ids per target, under R² bytes in all. Every mechanism also
/// holds RegionDistance's 4·R²-byte float table, so the bit matrix is
/// 1/32 of a table that already exists: it never sets the memory bound
/// and needs no cap of its own.
class RegionGraph {
 public:
  /// Builds the graph. `decomp` must outlive the result.
  static RegionGraph Build(const StcDecomposition& decomp,
                           const model::ReachabilityConfig& reach);

  size_t num_regions() const { return offsets_.size() - 1; }
  size_t num_edges() const { return targets_.size(); }

  /// Regions reachable as the next step after `from`, ascending order.
  std::span<const RegionId> Neighbors(RegionId from) const {
    return {targets_.data() + offsets_[from],
            targets_.data() + offsets_[from + 1]};
  }

  /// True when the bigram {a, b} is feasible. One bit test.
  bool HasEdge(RegionId a, RegionId b) const {
    return (PredecessorBits(b)[a >> 6] >> (a & 63)) & 1u;
  }

  /// Row `to` of the predecessor bit matrix: bit `from` (word from / 64,
  /// bit from % 64) is set iff the edge from → to exists.
  const uint64_t* PredecessorBits(RegionId to) const {
    return pred_bits_.data() + static_cast<size_t>(to) * words_per_row_;
  }

  /// True when `to` is a low-in-degree target, one whose in-degree d
  /// satisfies 4·d < R: the targets whose predecessor lists Build keeps.
  bool HasPredecessorList(RegionId to) const {
    return 4 * in_degree_[to] < num_regions();
  }

  /// Every region with an edge into `to`, ascending order. Only
  /// available when HasPredecessorList(to); empty otherwise.
  std::span<const RegionId> Predecessors(RegionId to) const {
    return {pred_sources_.data() + pred_offsets_[to],
            pred_sources_.data() + pred_offsets_[to + 1]};
  }

  /// Number of feasible n-grams |W_n| = number of length-(n−1) walks,
  /// computed by DP in O(n·E). Returned as double (the count explodes
  /// combinatorially; the utility bound only needs ln|W_n|).
  double CountNgrams(int n) const;

  const StcDecomposition& decomposition() const { return *decomp_; }
  const model::ReachabilityConfig& reachability() const { return reach_; }

 private:
  RegionGraph(const StcDecomposition* decomp,
              const model::ReachabilityConfig& reach)
      : decomp_(decomp), reach_(reach) {}

  const StcDecomposition* decomp_;
  model::ReachabilityConfig reach_;
  // CSR adjacency.
  std::vector<size_t> offsets_;
  std::vector<RegionId> targets_;
  // Predecessor bit matrix, R rows of words_per_row_ words each.
  size_t words_per_row_ = 0;
  std::vector<uint64_t> pred_bits_;
  std::vector<size_t> in_degree_;
  // CSR predecessor lists; a target without a list has an empty range.
  std::vector<size_t> pred_offsets_;
  std::vector<RegionId> pred_sources_;
};

}  // namespace trajldp::region

#endif  // TRAJLDP_REGION_REGION_GRAPH_H_
