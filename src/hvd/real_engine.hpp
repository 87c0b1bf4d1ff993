// A working Horovod-style gradient-exchange engine over minimpi.
//
// Each rank submits gradient tensors as its backward pass produces them;
// process() runs one engine cycle: a coordination Sum-allreduce counts, per
// registered tensor, the ranks that have it ready, every tensor whose count
// reached the world size is packed into fusion buffers up to the fusion
// threshold, and each buffer goes through one data allreduce (sum, then
// divide by world size — Horovod averages gradients). count == size is the
// Min intersection of the per-rank ready bits that the protocol model
// checker (hvd/protocol.hpp) explores.
//
// The same counts tell synchronize() whether to cycle again: a tensor with
// 0 < count < size is still outstanding somewhere, and all-zero counts mean
// no rank has work. So each cycle issues exactly the one coordination
// collective the counters record, and an idle synchronize() issues one
// reduce and counts no wake-up.
//
// This is the mechanism whose timing the DES in hvd/timeline.cpp models;
// tests validate that fused exchange is numerically identical to per-tensor
// allreduce and that the profiling counters behave like the paper's.
//
// Collective contract: all ranks must register the same tensors in the same
// order and call process()/synchronize() collectively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hvd/policy.hpp"
#include "mpi/collectives.hpp"
#include "mpi/world.hpp"

namespace dnnperf::hvd {

class RealEngine {
 public:
  /// `ranks_per_node` > 0 enables hierarchical data exchange (reduce to the
  /// node leader, allreduce among leaders, broadcast back — what MVAPICH2
  /// does on multi-rank nodes); it must divide the communicator size.
  /// 0 = flat allreduce across all ranks.
  RealEngine(mpi::Comm& comm, FusionPolicy policy, int ranks_per_node = 0);

  /// Registers a tensor; must happen in the same order on all ranks, and
  /// before the first process()/synchronize() call — the coordination
  /// allreduce exchanges one ready count per registered tensor, so a rank
  /// registering late would desynchronize the vector length across ranks
  /// (silent corruption or a hang). Late registration throws
  /// std::logic_error instead.
  /// Returns the tensor id.
  int register_tensor(const std::string& name, std::size_t elements);

  /// Marks a registered tensor ready with this rank's gradient data. The
  /// span must stay valid until the tensor completes. Counts one framework
  /// request.
  void submit(int tensor_id, std::span<float> data);

  /// One engine cycle (collective). Returns tensors completed this cycle.
  int process();

  /// Collective: cycles until every submitted tensor on every rank
  /// completed.
  void synchronize();

  bool is_complete(int tensor_id) const;
  const CommStats& stats() const { return counters_.stats(); }
  int world_size() const { return comm_.size(); }

 private:
  struct Tensor {
    std::string name;
    std::size_t elements = 0;
    std::span<float> data;
    bool submitted = false;
    bool complete = false;
  };

  /// Sum-allreduce of the fusion buffer, flat or hierarchical.
  void exchange(std::span<float> buffer);

  /// The coordination reduce: counts_[t] = ranks with tensor t outstanding.
  void negotiate();

  /// One engine cycle: negotiate, count a wake-up, fire every tensor at
  /// count == size; returns the tensors completed. With `may_idle`, a
  /// negotiation that finds no outstanding tensor on any rank ends the
  /// cycle there (no wake-up counted, no engine.cycle span) and returns
  /// nullopt.
  std::optional<int> cycle(bool may_idle);

  mpi::Comm& comm_;
  FusionPolicy policy_;
  std::optional<mpi::Comm> node_comm_;    ///< hierarchical mode only
  std::optional<mpi::Comm> leader_comm_;  ///< hierarchical mode, node leaders
  std::vector<Tensor> tensors_;
  std::unordered_map<std::string, int> by_name_;
  std::vector<std::size_t> elements_;  ///< per tensor; fixed once registration closes
  std::vector<std::int32_t> counts_;   ///< last coordination reduce, per tensor
  std::vector<int> ready_ids_;         ///< tensors at count == size this cycle
  std::vector<float> fusion_buffer_;
  EngineCounters counters_;  ///< publishes CommStats + registry metrics together
  bool started_ = false;  ///< true once a cycle ran; registration is closed
};

}  // namespace dnnperf::hvd
