// Analytical timing model for the collectives in mpi/collectives.hpp,
// evaluated over a net::Topology. This is the "cost backend": the real
// thread backend moves bytes, this predicts wall time at cluster scale
// (128 nodes x 4 ppn) without needing the cluster.
//
// Modeled after MVAPICH2's behaviour on the paper's systems: hierarchical
// (shared-memory + inter-node) allreduce for large payloads, recursive
// doubling for small ones, with automatic selection.
#pragma once

#include <vector>

#include "mpi/collectives.hpp"
#include "net/topology.hpp"

namespace dnnperf::mpi {

/// How one intra-node stage of a staged hierarchical allreduce is executed.
enum class StageAlgo {
  RingReduceScatter,  ///< ring reduce-scatter + allgather; shard shrinks by g
  Tree,               ///< segmented tree reduce + bcast; shard stays full
};

/// The per-level algorithm plan for a staged hierarchical allreduce of one
/// payload size: which algorithm each intra-node stage uses (Shi et al.'s
/// latency/bandwidth crossover, decided per level against the level's link)
/// and which algorithm the top-level inter-node allreduce runs.
struct HierarchyPlan {
  struct Level {
    int group_size = 1;
    StageAlgo algo = StageAlgo::RingReduceScatter;
    double stage_s = 0.0;  ///< both phases of this stage (down + up)
  };
  std::vector<Level> levels;  ///< innermost first; mirrors Topology::intra_hierarchy
  AllreduceAlgo top_algo = AllreduceAlgo::Ring;
  int top_ranks = 1;       ///< groups at the top level (== nodes)
  double top_bytes = 0.0;  ///< shard size reaching the inter-node allreduce
  double top_s = 0.0;
  double total_s = 0.0;
};

class CollectiveCostModel {
 public:
  explicit CollectiveCostModel(net::Topology topology);

  const net::Topology& topology() const { return topology_; }

  /// Predicted wall time of one allreduce of `bytes` bytes across all ranks.
  /// Auto picks the cheapest strategy (mirrors MPI tuning tables).
  double allreduce_time(double bytes, AllreduceAlgo algo = AllreduceAlgo::Auto) const;

  /// Individual strategies (exposed for ablation benches and tests).
  double ring_allreduce_time_flat(double bytes) const;
  double recursive_doubling_time(double bytes) const;
  double hierarchical_allreduce_time(double bytes) const;

  /// Staged hierarchical allreduce (mpi::allreduce_hierarchical_stages):
  /// reduce-scatter/tree down the topology's intra-node hierarchy, one
  /// inter-node allreduce of the surviving shard, then back up. The plan
  /// records the cheapest per-level algorithm choice for this payload.
  /// The stages are resolved once at construction and the search allocates
  /// nothing; only the plan's `levels` vector is built here, so the DES,
  /// which prices one staged allreduce per busy engine cycle, calls
  /// staged_allreduce_time for the total alone.
  HierarchyPlan plan_staged_allreduce(double bytes) const;
  double staged_allreduce_time(double bytes) const;

  double bcast_time(double bytes) const;
  double barrier_time() const;

 private:
  /// Tree reduce/bcast of a full payload within one node over shared memory.
  double local_tree_time(double bytes) const;

  net::Topology topology_;
  std::vector<net::HierarchyLevel> stages_;  ///< topology_.intra_hierarchy()
};

}  // namespace dnnperf::mpi
