#ifndef TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_
#define TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_

#include <cstdint>
#include <vector>

#include "common/aligned_arena.h"
#include "core/reconstruction.h"

namespace trajldp::core {

/// \brief Per-thread scratch of ViterbiReconstructor, laid out as
/// structure-of-arrays in one cache-line-aligned arena: the
/// region→candidate index map, the two DP cost rows, the flattened
/// parent table and the per-layer ranking of finite costs. One arena
/// Reset per solve replaces a capacity check per array, and every array
/// starts on its own cache line. The arena grows to the largest
/// (traj_len, candidates, regions) seen and is then reused
/// allocation-free.
struct ViterbiWorkspace : Reconstructor::Workspace {
  AlignedArena arena;
};

/// \brief Exact dynamic-programming solver for the §5.5 reconstruction.
///
/// The ILP (10)–(14) selects one bigram per position with consecutive
/// bigrams sharing a region — i.e. a minimum-cost path through a layered
/// DAG whose layer-i nodes are candidate regions and whose edges are the
/// feasible bigrams. The objective decomposes into per-position node costs
/// with multiplicities {1, 2, ..., 2, 1} (see ReconstructionProblem), so a
/// Viterbi pass over the layers finds the global optimum.
///
/// Each layer is a sorted scan. The node cost is constant per target, so
/// a target's best predecessor is the feasible candidate of least dp,
/// lowest candidate index among equal costs. The finite dp entries are
/// sorted once by (dp, index); each target then takes the first entry in
/// that order whose predecessor bit is set in the graph's bit matrix
/// (RegionGraph::PredecessorBits). A low-in-degree target (4·d < R)
/// instead scans its ascending predecessor list through the
/// region→candidate map; candidates ascend in region id, so the strict
/// compare keeps the same tie-break. Both paths pick exactly the argmin
/// of a full relaxation over the candidate edges, so costs and parents
/// are bit-identical to it.
///
/// Cost: O(R + L·(C log C + S)) time for C candidates, where S is the
/// layer's scan steps: ranked entries visited before the first feasible
/// one, plus list entries of the low-in-degree targets. On the dense
/// city graph (density 0.54) S is a small multiple of C, against the
/// C²·density edges a relaxation reads. Memory: O(R + L·C) scratch; the
/// feasibility tables are built once per graph, not per solve.
///
/// This is the production default; LpReconstructor solves the same
/// problem through the paper's LP formulation and is verified to agree.
class ViterbiReconstructor : public Reconstructor {
 public:
  ViterbiReconstructor() = default;

  std::unique_ptr<Workspace> NewWorkspace() const override;

  Status ReconstructInto(const ReconstructionProblem& problem, Workspace& ws,
                         region::RegionTrajectory& out) const override;
};

}  // namespace trajldp::core

#endif  // TRAJLDP_CORE_VITERBI_RECONSTRUCTOR_H_
