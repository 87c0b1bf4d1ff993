#include "hvd/real_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "hvd/protocol.hpp"

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace dnnperf::hvd {

RealEngine::RealEngine(mpi::Comm& comm, FusionPolicy policy, int ranks_per_node)
    : comm_(comm), policy_(policy) {
  policy_.validate();
  if (ranks_per_node < 0 || (ranks_per_node > 0 && comm.size() % ranks_per_node != 0))
    throw std::invalid_argument("RealEngine: ranks_per_node must divide communicator size");
  if (ranks_per_node > 1 && ranks_per_node < comm.size()) {
    const int node = comm.rank() / ranks_per_node;
    const bool leader = comm.rank() % ranks_per_node == 0;
    node_comm_ = comm.split(node, comm.rank());
    leader_comm_ = comm.split(leader ? 0 : mpi::Comm::kUndefinedColor, comm.rank());
  }
}

void RealEngine::exchange(std::span<float> buffer) {
  if (node_comm_)
    mpi::allreduce_hierarchical(*node_comm_, leader_comm_ ? &*leader_comm_ : nullptr, buffer,
                                mpi::ReduceOp::Sum);
  else
    mpi::allreduce(comm_, buffer, mpi::ReduceOp::Sum);
}

int RealEngine::register_tensor(const std::string& name, std::size_t elements) {
  if (started_)
    throw std::logic_error("register_tensor after process(): the coordination ready vector is "
                           "sized at the first cycle and must match on every rank (" +
                           name + ")");
  if (by_name_.contains(name)) throw std::invalid_argument("tensor already registered: " + name);
  const int id = static_cast<int>(tensors_.size());
  tensors_.push_back(Tensor{name, elements, {}, false, false});
  by_name_[name] = id;
  return id;
}

void RealEngine::submit(int tensor_id, std::span<float> data) {
  auto& t = tensors_.at(static_cast<std::size_t>(tensor_id));
  if (t.submitted && !t.complete)
    throw std::logic_error("tensor submitted twice before completion: " + t.name);
  if (data.size() != t.elements)
    throw std::invalid_argument("submit: size mismatch for " + t.name);
  t.data = data;
  t.submitted = true;
  t.complete = false;
  counters_.on_framework_request();
}

void RealEngine::negotiate() {
  if (!started_) {
    started_ = true;
    for (const Tensor& t : tensors_) elements_.push_back(t.elements);
    counts_.resize(tensors_.size());
  }
  for (std::size_t i = 0; i < tensors_.size(); ++i)
    counts_[i] = (tensors_[i].submitted && !tensors_[i].complete) ? 1 : 0;
  DNNPERF_TRACE_SPAN_VAR(span, "hvd", "negotiate");
  if (span.active())
    span.set_args(
        std::move(util::trace::Args().add("tensors", static_cast<std::int64_t>(counts_.size())))
            .str());
  if (!counts_.empty())
    mpi::allreduce(comm_, std::span<std::int32_t>(counts_), mpi::ReduceOp::Sum);
}

std::optional<int> RealEngine::cycle(bool may_idle) {
  DNNPERF_TRACE_SPAN_VAR(cycle_span, "hvd", "engine.cycle");
  const bool timing = util::metrics::enabled();
  const auto cycle_start = timing ? std::chrono::steady_clock::now()
                                  : std::chrono::steady_clock::time_point{};

  // Coordination: a tensor proceeds only when ready on every rank.
  negotiate();
  if (may_idle &&
      std::all_of(counts_.begin(), counts_.end(), [](std::int32_t c) { return c == 0; })) {
    cycle_span.discard();
    return std::nullopt;
  }
  counters_.on_engine_wakeup();

  // Fuse globally-ready tensors in id order into buffers of at most
  // fusion_threshold bytes, one data allreduce per buffer. The packing rule
  // lives in hvd/protocol.hpp so the model checker verifies the same plan
  // this engine executes.
  ready_ids_.clear();
  for (std::size_t t = 0; t < counts_.size(); ++t)
    if (counts_[t] == comm_.size()) ready_ids_.push_back(static_cast<int>(t));
  int completed = 0;
  const auto max_elems = static_cast<std::size_t>(policy_.fusion_threshold_bytes / sizeof(float));
  for (const auto& group : plan_fusion(ready_ids_, elements_, max_elems)) {
    std::size_t buffer_elems = 0;
    for (int m : group) buffer_elems += elements_[static_cast<std::size_t>(m)];

    fusion_buffer_.resize(buffer_elems);
    {
      DNNPERF_TRACE_SPAN_VAR(span, "hvd", "fusion.pack");
      if (span.active())
        span.set_args(std::move(util::trace::Args()
                                    .add("tensors", static_cast<std::int64_t>(group.size()))
                                    .add("bytes", static_cast<std::int64_t>(buffer_elems *
                                                                           sizeof(float))))
                          .str());
      std::size_t off = 0;
      for (int m : group) {
        const auto& t = tensors_[static_cast<std::size_t>(m)];
        std::copy(t.data.begin(), t.data.end(), fusion_buffer_.begin() + off);
        off += t.elements;
      }
    }

    {
      DNNPERF_TRACE_SPAN_VAR(span, "hvd", "allreduce.data");
      if (span.active())
        span.set_args(std::move(util::trace::Args()
                                    .add("tensors", static_cast<std::int64_t>(group.size()))
                                    .add("bytes", static_cast<std::int64_t>(buffer_elems *
                                                                           sizeof(float))))
                          .str());
      exchange(std::span<float>(fusion_buffer_.data(), buffer_elems));
    }
    const double buffer_bytes = static_cast<double>(buffer_elems) * sizeof(float);
    counters_.on_data_allreduce(buffer_bytes,
                                std::min(1.0, buffer_bytes / policy_.fusion_threshold_bytes));

    {
      DNNPERF_TRACE_SPAN_VAR(span, "hvd", "fusion.unpack");
      const float inv = 1.0f / static_cast<float>(comm_.size());
      std::size_t off = 0;
      for (int m : group) {
        auto& t = tensors_[static_cast<std::size_t>(m)];
        for (std::size_t k = 0; k < t.elements; ++k) t.data[k] = fusion_buffer_[off + k] * inv;
        off += t.elements;
        t.complete = true;
        t.submitted = false;
        ++completed;
      }
    }
  }
  if (cycle_span.active())
    cycle_span.set_args(std::move(util::trace::Args().add("completed", completed)).str());
  if (timing)
    counters_.on_cycle_time(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - cycle_start).count());
  return completed;
}

int RealEngine::process() { return *cycle(false); }

void RealEngine::synchronize() {
  // Every rank reads the same counts, so all take the same branches: stop
  // when the reduce finds no work anywhere, or once no tensor is left
  // outstanding on some ranks (0 < count < size) after a cycle.
  const int size = comm_.size();
  auto outstanding = [size](std::int32_t c) { return c > 0 && c < size; };
  while (cycle(/*may_idle=*/true) && std::any_of(counts_.begin(), counts_.end(), outstanding)) {
  }
}

bool RealEngine::is_complete(int tensor_id) const {
  return tensors_.at(static_cast<std::size_t>(tensor_id)).complete;
}

}  // namespace dnnperf::hvd
