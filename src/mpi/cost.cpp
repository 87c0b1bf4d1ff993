#include "mpi/cost.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace dnnperf::mpi {

namespace {

double ceil_log2(int n) { return n <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(n))); }

/// Intra-node stages a topology can have: intra-NUMA and intra-node.
constexpr std::size_t kMaxStages = 2;

/// One branch of the staged-plan search, held in place (no heap).
struct StagedChoice {
  std::array<HierarchyPlan::Level, kMaxStages> levels{};  ///< indexed like the stages
  AllreduceAlgo top_algo = AllreduceAlgo::Ring;
  double top_bytes = 0.0;
  double top_s = 0.0;
  double total_s = 0.0;
};

/// Cheapest plan for stages[k..] and the inter-node top level, given the
/// shard reaching stage k.
StagedChoice best_staged(const net::Topology& topology,
                         const std::vector<net::HierarchyLevel>& stages, std::size_t k,
                         double shard) {
  if (k == stages.size()) {
    // Inter-node allreduce of one shard: ring for bandwidth, RD for latency.
    StagedChoice top;
    top.top_bytes = shard;
    const int nodes = topology.nodes();
    if (nodes > 1) {
      const auto& link = topology.inter_node();
      const double ring = 2.0 * (nodes - 1) * link.transfer_time(shard / nodes);
      const double rd = ceil_log2(nodes) * link.transfer_time(shard);
      top.top_algo = ring <= rd ? AllreduceAlgo::Ring : AllreduceAlgo::RecursiveDoubling;
      top.top_s = std::min(ring, rd);
    }
    top.total_s = top.top_s;
    return top;
  }
  // Each stage either ring-reduce-scatters (one shard message per step, and
  // the shard reaching the levels above shrinks by the group size) or runs a
  // segmented tree (log-latency, shard stays full). The choice at one level
  // changes the payload every level above sees, so the plan is the min over
  // the whole choice tree — tiny, at most two levels deep. Totals add the
  // top level first, then the stages outward-in; ties go to the ring.
  const int g = stages[k].group_size;
  const auto& link = stages[k].link;

  const double ring_stage = 2.0 * (g - 1) * link.transfer_time(shard / g);
  StagedChoice ring = best_staged(topology, stages, k + 1, shard / g);
  ring.levels[k] = {g, StageAlgo::RingReduceScatter, ring_stage};
  ring.total_s += ring_stage;

  const double tree_stage =
      2.0 * (ceil_log2(g) * (link.latency_s + link.per_msg_overhead_s) +
             shard / (link.bandwidth_gbps * 1e9));
  StagedChoice tree = best_staged(topology, stages, k + 1, shard);
  tree.levels[k] = {g, StageAlgo::Tree, tree_stage};
  tree.total_s += tree_stage;

  return ring.total_s <= tree.total_s ? ring : tree;
}

}  // namespace

CollectiveCostModel::CollectiveCostModel(net::Topology topology)
    : topology_(std::move(topology)), stages_(topology_.intra_hierarchy()) {
  if (stages_.size() > kMaxStages)
    throw std::logic_error("CollectiveCostModel: more intra-node stages than planned for");
}

double CollectiveCostModel::local_tree_time(double bytes) const {
  const int ppn = topology_.ppn();
  if (ppn <= 1) return 0.0;
  // Pipelined/segmented tree: latency per level, but the payload streams
  // through shared memory only a constant number of times.
  const auto& link = topology_.intra_node();
  return ceil_log2(ppn) * (link.latency_s + link.per_msg_overhead_s) +
         bytes / (link.bandwidth_gbps * 1e9);
}

double CollectiveCostModel::ring_allreduce_time_flat(double bytes) const {
  const int p = topology_.world_size();
  if (p <= 1) return 0.0;
  // 2(p-1) synchronized steps of one chunk each; with block rank placement
  // the slowest link in every step is the inter-node hop (if any).
  const auto& link = topology_.nodes() > 1 ? topology_.inter_node() : topology_.intra_node();
  const double chunk = bytes / p;
  return 2.0 * (p - 1) * link.transfer_time(chunk);
}

double CollectiveCostModel::recursive_doubling_time(double bytes) const {
  const int p = topology_.world_size();
  if (p <= 1) return 0.0;
  const auto& link = topology_.nodes() > 1 ? topology_.inter_node() : topology_.intra_node();
  return ceil_log2(p) * link.transfer_time(bytes);
}

double CollectiveCostModel::hierarchical_allreduce_time(double bytes) const {
  const int nodes = topology_.nodes();
  // Phase 1: shared-memory reduce to the node leader.
  double t = local_tree_time(bytes);
  // Phase 2: inter-node allreduce among leaders; ring for bandwidth, RD for
  // latency — take the cheaper, as the MPI library would.
  if (nodes > 1) {
    const auto& link = topology_.inter_node();
    const double ring = 2.0 * (nodes - 1) * link.transfer_time(bytes / nodes);
    const double rd = ceil_log2(nodes) * link.transfer_time(bytes);
    t += std::min(ring, rd);
  }
  // Phase 3: shared-memory broadcast of the result.
  t += local_tree_time(bytes);
  return t;
}

HierarchyPlan CollectiveCostModel::plan_staged_allreduce(double bytes) const {
  if (bytes < 0) throw std::invalid_argument("plan_staged_allreduce: negative bytes");
  const StagedChoice best = best_staged(topology_, stages_, 0, bytes);
  HierarchyPlan plan;
  plan.levels.assign(best.levels.begin(), best.levels.begin() + stages_.size());
  plan.top_algo = best.top_algo;
  plan.top_ranks = topology_.nodes();
  plan.top_bytes = best.top_bytes;
  plan.top_s = best.top_s;
  plan.total_s = best.total_s;
  return plan;
}

double CollectiveCostModel::staged_allreduce_time(double bytes) const {
  if (bytes < 0) throw std::invalid_argument("staged_allreduce_time: negative bytes");
  return best_staged(topology_, stages_, 0, bytes).total_s;
}

double CollectiveCostModel::allreduce_time(double bytes, AllreduceAlgo algo) const {
  if (bytes < 0) throw std::invalid_argument("allreduce_time: negative bytes");
  switch (algo) {
    case AllreduceAlgo::Ring: return ring_allreduce_time_flat(bytes);
    case AllreduceAlgo::RecursiveDoubling: return recursive_doubling_time(bytes);
    case AllreduceAlgo::Rabenseifner:
    // Rabenseifner's cost is within a small factor of hierarchical+ring at
    // these scales; model both via the hierarchical path.
    case AllreduceAlgo::Auto:
      return std::min(hierarchical_allreduce_time(bytes), recursive_doubling_time(bytes));
  }
  throw std::logic_error("allreduce_time: bad algorithm");
}

double CollectiveCostModel::bcast_time(double bytes) const {
  double t = 0.0;
  if (topology_.nodes() > 1)
    t += ceil_log2(topology_.nodes()) * topology_.inter_node().transfer_time(bytes);
  t += local_tree_time(bytes);
  return t;
}

double CollectiveCostModel::barrier_time() const {
  const auto& link = topology_.nodes() > 1 ? topology_.inter_node() : topology_.intra_node();
  return ceil_log2(topology_.world_size()) * link.transfer_time(1.0);
}

}  // namespace dnnperf::mpi
