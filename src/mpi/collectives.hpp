// Collective algorithms over minimpi point-to-point, implemented the way an
// MPI library (MVAPICH2) implements them:
//
//  - ring allreduce          (reduce-scatter ring + allgather ring; bandwidth-optimal)
//  - recursive doubling      (latency-optimal; non-power-of-two handled by folding)
//  - Rabenseifner            (recursive-halving reduce-scatter + recursive-doubling
//                             allgather; power-of-two ranks, otherwise delegates to ring)
//  - binomial broadcast, ring allgather, binomial reduce
//
// All functions are collective: every rank of the communicator must call them
// in the same order with the same count. Data really moves between rank
// threads; these are the algorithms whose *cost* the analytical model in
// mpi/cost.hpp predicts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "mpi/world.hpp"

namespace dnnperf::mpi {

enum class ReduceOp { Sum, Max, Min, Prod };

enum class AllreduceAlgo { Auto, Ring, RecursiveDoubling, Rabenseifner };

namespace detail {

template <typename T>
void apply_op(ReduceOp op, std::span<const T> src, std::span<T> acc) {
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += src[i];
      break;
    case ReduceOp::Max:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = std::max(acc[i], src[i]);
      break;
    case ReduceOp::Min:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = std::min(acc[i], src[i]);
      break;
    case ReduceOp::Prod:
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] *= src[i];
      break;
  }
}

inline bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

/// Chunk [begin, end) of `count` elements split into `parts` near-equal parts.
struct ChunkRange {
  std::size_t begin;
  std::size_t end;
  std::size_t size() const { return end - begin; }
};

inline ChunkRange chunk_range(std::size_t count, int parts, int index) {
  const std::size_t base = count / static_cast<std::size_t>(parts);
  const std::size_t rem = count % static_cast<std::size_t>(parts);
  const auto idx = static_cast<std::size_t>(index);
  const std::size_t begin = idx * base + std::min(idx, rem);
  const std::size_t extra = idx < rem ? 1u : 0u;
  return {begin, begin + base + extra};
}

}  // namespace detail

/// In-place ring allreduce. Bandwidth-optimal: each rank moves
/// 2 (p-1)/p * count elements.
template <typename T>
void allreduce_ring(Comm& comm, std::span<T> data, ReduceOp op) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return;
  const auto tag = comm.next_collective_tag();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;

  std::vector<T> recv_buf(data.size());
  // Reduce-scatter phase: after p-1 steps, rank r owns the fully reduced
  // chunk (r+1) mod p.
  for (int step = 0; step < p - 1; ++step) {
    const auto send_c = detail::chunk_range(data.size(), p, (r - step + p) % p);
    const auto recv_c = detail::chunk_range(data.size(), p, (r - step - 1 + 2 * p) % p);
    comm.sendrecv(data.data() + send_c.begin, send_c.size() * sizeof(T), right,
                  recv_buf.data(), recv_c.size() * sizeof(T), left, tag);
    detail::apply_op<T>(op, std::span<const T>(recv_buf.data(), recv_c.size()),
                        data.subspan(recv_c.begin, recv_c.size()));
  }
  // Allgather phase: circulate owned chunks.
  for (int step = 0; step < p - 1; ++step) {
    const auto send_c = detail::chunk_range(data.size(), p, (r + 1 - step + 2 * p) % p);
    const auto recv_c = detail::chunk_range(data.size(), p, (r - step + p) % p);
    comm.sendrecv(data.data() + send_c.begin, send_c.size() * sizeof(T), right,
                  recv_buf.data(), recv_c.size() * sizeof(T), left, tag);
    std::copy_n(recv_buf.data(), recv_c.size(), data.data() + recv_c.begin);
  }
}

/// In-place recursive-doubling allreduce; folds non-power-of-two rank counts
/// onto the nearest power of two first. Latency-optimal for small messages.
template <typename T>
void allreduce_recursive_doubling(Comm& comm, std::span<T> data, ReduceOp op) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return;
  const auto tag = comm.next_collective_tag();
  const std::size_t bytes = data.size() * sizeof(T);
  std::vector<T> recv_buf(data.size());

  int pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const int extra = p - pof2;

  // Fold: the first 2*extra ranks pair up; odd ranks hand data to even ranks
  // and sit out, even ranks act as virtual rank r/2.
  int vrank;
  if (r < 2 * extra) {
    if (r % 2 == 1) {
      comm.send(data.data(), bytes, r - 1, tag);
      comm.recv(data.data(), bytes, r - 1, tag);  // final result later
      return;
    }
    comm.recv(recv_buf.data(), bytes, r + 1, tag);
    detail::apply_op<T>(op, std::span<const T>(recv_buf), data);
    vrank = r / 2;
  } else {
    vrank = r - extra;
  }

  auto real_rank = [extra](int v) { return v < extra ? 2 * v : v + extra; };

  for (int mask = 1; mask < pof2; mask <<= 1) {
    const int partner = real_rank(vrank ^ mask);
    comm.sendrecv(data.data(), bytes, partner, recv_buf.data(), bytes, partner, tag);
    detail::apply_op<T>(op, std::span<const T>(recv_buf), data);
  }

  if (r < 2 * extra) comm.send(data.data(), bytes, r + 1, tag);
}

/// Rabenseifner's algorithm (power-of-two ranks): recursive-halving
/// reduce-scatter followed by recursive-doubling allgather. Same bandwidth
/// term as ring with log(p) latency. Falls back to ring otherwise.
template <typename T>
void allreduce_rabenseifner(Comm& comm, std::span<T> data, ReduceOp op) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return;
  if (!detail::is_power_of_two(p) || data.size() < static_cast<std::size_t>(p)) {
    allreduce_ring(comm, data, op);
    return;
  }
  const auto tag = comm.next_collective_tag();
  std::vector<T> recv_buf(data.size());

  // Recursive halving: the live window [lo, hi) of chunk indices halves each
  // step; chunks are the p-way partition of data.
  int lo = 0, hi = p;
  for (int mask = p / 2; mask >= 1; mask /= 2) {
    const int partner = r ^ mask;
    const int mid = lo + (hi - lo) / 2;
    int keep_lo, keep_hi, give_lo, give_hi;
    if ((r & mask) == 0) {
      keep_lo = lo; keep_hi = mid; give_lo = mid; give_hi = hi;
    } else {
      keep_lo = mid; keep_hi = hi; give_lo = lo; give_hi = mid;
    }
    const auto give_b = detail::chunk_range(data.size(), p, give_lo);
    const auto give_e = detail::chunk_range(data.size(), p, give_hi - 1);
    const auto keep_b = detail::chunk_range(data.size(), p, keep_lo);
    const auto keep_e = detail::chunk_range(data.size(), p, keep_hi - 1);
    const std::size_t give_off = give_b.begin, give_len = give_e.end - give_b.begin;
    const std::size_t keep_off = keep_b.begin, keep_len = keep_e.end - keep_b.begin;
    comm.sendrecv(data.data() + give_off, give_len * sizeof(T), partner,
                  recv_buf.data(), keep_len * sizeof(T), partner, tag);
    detail::apply_op<T>(op, std::span<const T>(recv_buf.data(), keep_len),
                        data.subspan(keep_off, keep_len));
    lo = keep_lo;
    hi = keep_hi;
  }

  // Allgather by recursive doubling, reversing the halving pattern.
  for (int mask = 1; mask < p; mask *= 2) {
    const int partner = r ^ mask;
    const int size_w = hi - lo;
    int other_lo, other_hi;
    if ((r & mask) == 0) {
      other_lo = lo + size_w;  // partner's window sits above ours
      other_hi = hi + size_w;
    } else {
      other_lo = lo - size_w;
      other_hi = hi - size_w;
    }
    const auto mine_b = detail::chunk_range(data.size(), p, lo);
    const auto mine_e = detail::chunk_range(data.size(), p, hi - 1);
    const auto oth_b = detail::chunk_range(data.size(), p, other_lo);
    const auto oth_e = detail::chunk_range(data.size(), p, other_hi - 1);
    comm.sendrecv(data.data() + mine_b.begin, (mine_e.end - mine_b.begin) * sizeof(T),
                  partner, data.data() + oth_b.begin,
                  (oth_e.end - oth_b.begin) * sizeof(T), partner, tag);
    lo = std::min(lo, other_lo);
    hi = std::max(hi, other_hi);
  }
}

/// In-place allreduce with algorithm selection. Auto follows the usual MPI
/// policy: latency-optimal recursive doubling for small payloads,
/// bandwidth-optimal ring/Rabenseifner for large ones.
template <typename T>
void allreduce(Comm& comm, std::span<T> data, ReduceOp op,
               AllreduceAlgo algo = AllreduceAlgo::Auto) {
  if (algo == AllreduceAlgo::Auto) {
    constexpr std::size_t kSmallBytes = 16 * 1024;
    algo = data.size() * sizeof(T) <= kSmallBytes ? AllreduceAlgo::RecursiveDoubling
                                                  : AllreduceAlgo::Rabenseifner;
  }
  switch (algo) {
    case AllreduceAlgo::Ring: allreduce_ring(comm, data, op); break;
    case AllreduceAlgo::RecursiveDoubling: allreduce_recursive_doubling(comm, data, op); break;
    case AllreduceAlgo::Rabenseifner: allreduce_rabenseifner(comm, data, op); break;
    case AllreduceAlgo::Auto: throw std::logic_error("allreduce: unresolved Auto");
  }
}

/// In-place ring reduce-scatter over the p-way near-equal partition of
/// `data`: after the call, rank r's chunk `detail::chunk_range(n, p, r)`
/// holds the fully reduced values (the other regions hold partial sums).
/// Building block for the staged hierarchical allreduce; with `data.size()`
/// below p the trailing chunks are empty and those steps move zero bytes.
template <typename T>
void reduce_scatter_ring(Comm& comm, std::span<T> data, ReduceOp op) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return;
  const auto tag = comm.next_collective_tag();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  // Chunk 0 is the largest chunk of the near-equal partition.
  std::vector<T> recv_buf(detail::chunk_range(data.size(), p, 0).size());
  // Step s sends chunk (r - s - 1) and receives chunk (r - s - 2); after
  // p-1 steps rank r has accumulated every rank's contribution to chunk r.
  for (int step = 0; step < p - 1; ++step) {
    const auto send_c = detail::chunk_range(data.size(), p, (r - step - 1 + p) % p);
    const auto recv_c = detail::chunk_range(data.size(), p, (r - step - 2 + 2 * p) % p);
    comm.sendrecv(data.data() + send_c.begin, send_c.size() * sizeof(T), right,
                  recv_buf.data(), recv_c.size() * sizeof(T), left, tag);
    detail::apply_op<T>(op, std::span<const T>(recv_buf.data(), recv_c.size()),
                        data.subspan(recv_c.begin, recv_c.size()));
  }
}

/// Ring allgather over the same partition: rank r contributes its chunk
/// `detail::chunk_range(n, p, r)` in place, and every rank ends with the
/// full vector. Pairs with reduce_scatter_ring to complete an allreduce.
template <typename T>
void allgather_ring_chunks(Comm& comm, std::span<T> data) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return;
  const auto tag = comm.next_collective_tag();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const auto send_c = detail::chunk_range(data.size(), p, (r - step + p) % p);
    const auto recv_c = detail::chunk_range(data.size(), p, (r - step - 1 + 2 * p) % p);
    comm.sendrecv(data.data() + send_c.begin, send_c.size() * sizeof(T), right,
                  data.data() + recv_c.begin, recv_c.size() * sizeof(T), left, tag);
  }
}

/// Binomial-tree broadcast from `root`.
template <typename T>
void bcast(Comm& comm, std::span<T> data, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  if (root < 0 || root >= p) throw std::out_of_range("bcast: bad root");
  if (p == 1) return;
  const auto tag = comm.next_collective_tag();
  const std::size_t bytes = data.size() * sizeof(T);
  const int relative = (r - root + p) % p;

  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int src = (relative - mask + root) % p;
      comm.recv(data.data(), bytes, src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = (relative + mask + root) % p;
      comm.send(data.data(), bytes, dst, tag);
    }
    mask >>= 1;
  }
}

/// Ring allgather: rank r contributes send[0..count), output is size p*count
/// ordered by rank.
template <typename T>
void allgather(Comm& comm, std::span<const T> send, std::span<T> recv) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t count = send.size();
  if (recv.size() != count * static_cast<std::size_t>(p))
    throw std::invalid_argument("allgather: recv size != p * count");
  std::copy_n(send.data(), count, recv.data() + static_cast<std::size_t>(r) * count);
  if (p == 1) return;
  const auto tag = comm.next_collective_tag();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int send_block = (r - step + p) % p;
    const int recv_block = (r - step - 1 + 2 * p) % p;
    comm.sendrecv(recv.data() + static_cast<std::size_t>(send_block) * count,
                  count * sizeof(T), right,
                  recv.data() + static_cast<std::size_t>(recv_block) * count,
                  count * sizeof(T), left, tag);
  }
}

/// Gather: rank r's `send` lands at recv[r*count .. (r+1)*count) on `root`
/// (recv is ignored on non-roots but must be correctly sized there too or
/// empty).
template <typename T>
void gather(Comm& comm, std::span<const T> send, std::span<T> recv, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  if (root < 0 || root >= p) throw std::out_of_range("gather: bad root");
  const std::size_t count = send.size();
  const auto tag = comm.next_collective_tag();
  if (r == root) {
    if (recv.size() != count * static_cast<std::size_t>(p))
      throw std::invalid_argument("gather: recv size != p * count");
    std::copy_n(send.data(), count, recv.data() + static_cast<std::size_t>(r) * count);
    for (int src = 0; src < p; ++src) {
      if (src == root) continue;
      comm.recv(recv.data() + static_cast<std::size_t>(src) * count, count * sizeof(T), src,
                tag);
    }
  } else {
    comm.send(send.data(), count * sizeof(T), root, tag);
  }
}

/// Scatter: root's send[r*count .. (r+1)*count) lands in rank r's `recv`.
template <typename T>
void scatter(Comm& comm, std::span<const T> send, std::span<T> recv, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  if (root < 0 || root >= p) throw std::out_of_range("scatter: bad root");
  const std::size_t count = recv.size();
  const auto tag = comm.next_collective_tag();
  if (r == root) {
    if (send.size() != count * static_cast<std::size_t>(p))
      throw std::invalid_argument("scatter: send size != p * count");
    for (int dst = 0; dst < p; ++dst) {
      if (dst == root) continue;
      comm.send(send.data() + static_cast<std::size_t>(dst) * count, count * sizeof(T), dst,
                tag);
    }
    std::copy_n(send.data() + static_cast<std::size_t>(r) * count, count, recv.data());
  } else {
    comm.recv(recv.data(), count * sizeof(T), root, tag);
  }
}

/// All-to-all: send[d*count ..) goes to rank d; recv[s*count ..) comes from
/// rank s. Pairwise-exchange schedule (p rounds).
template <typename T>
void alltoall(Comm& comm, std::span<const T> send, std::span<T> recv, std::size_t count) {
  const int p = comm.size();
  const int r = comm.rank();
  if (send.size() != count * static_cast<std::size_t>(p) || recv.size() != send.size())
    throw std::invalid_argument("alltoall: buffer size != p * count");
  const auto tag = comm.next_collective_tag();
  std::copy_n(send.data() + static_cast<std::size_t>(r) * count, count,
              recv.data() + static_cast<std::size_t>(r) * count);
  if (detail::is_power_of_two(p)) {
    // Pairwise XOR exchange: every step is a perfect matching.
    for (int step = 1; step < p; ++step) {
      const int partner = r ^ step;
      comm.sendrecv(send.data() + static_cast<std::size_t>(partner) * count, count * sizeof(T),
                    partner, recv.data() + static_cast<std::size_t>(partner) * count,
                    count * sizeof(T), partner, tag);
    }
  } else {
    // Shifted-ring schedule: at step s, send to r+s and receive from r-s.
    // Every rank follows the same schedule, so sends and receives pair up.
    for (int step = 1; step < p; ++step) {
      const int dst = (r + step) % p;
      const int src = (r - step + p) % p;
      comm.send(send.data() + static_cast<std::size_t>(dst) * count, count * sizeof(T), dst,
                tag);
      comm.recv(recv.data() + static_cast<std::size_t>(src) * count, count * sizeof(T), src,
                tag);
    }
  }
}

/// Binomial-tree reduce to `root` (in-place on root; other ranks' data is
/// used as input and left unspecified afterwards).
template <typename T>
void reduce(Comm& comm, std::span<T> data, ReduceOp op, int root) {
  const int p = comm.size();
  const int r = comm.rank();
  if (root < 0 || root >= p) throw std::out_of_range("reduce: bad root");
  if (p == 1) return;
  const auto tag = comm.next_collective_tag();
  const std::size_t bytes = data.size() * sizeof(T);
  const int relative = (r - root + p) % p;
  std::vector<T> recv_buf(data.size());

  for (int mask = 1; mask < p; mask <<= 1) {
    if (relative & mask) {
      const int dst = (relative - mask + root) % p;
      comm.send(data.data(), bytes, dst, tag);
      return;
    }
    if (relative + mask < p) {
      const int src = (relative + mask + root) % p;
      comm.recv(recv_buf.data(), bytes, src, tag);
      detail::apply_op<T>(op, std::span<const T>(recv_buf), data);
    }
  }
}


/// Two-level hierarchical allreduce, the structure MVAPICH2 uses on
/// multi-rank nodes: reduce to each node's leader (rank 0 of `node_comm`),
/// allreduce among leaders over `leader_comm`, broadcast back within the
/// node. `leader_comm` is the leaders' communicator on node leaders and
/// null everywhere else.
template <typename T>
void allreduce_hierarchical(Comm& node_comm, Comm* leader_comm, std::span<T> data,
                            ReduceOp op) {
  reduce(node_comm, data, op, 0);
  if (leader_comm != nullptr) allreduce(*leader_comm, data, op);
  bcast(node_comm, data, 0);
}

/// The same over `comm`, split into contiguous nodes of `ranks_per_node`
/// ranks (block rank mapping); `ranks_per_node` must divide the size.
template <typename T>
void allreduce_hierarchical(Comm& comm, std::span<T> data, ReduceOp op, int ranks_per_node) {
  const int p = comm.size();
  if (ranks_per_node <= 0 || p % ranks_per_node != 0)
    throw std::invalid_argument("allreduce_hierarchical: ranks_per_node must divide size");
  if (p == 1) return;
  if (ranks_per_node == 1) {
    allreduce(comm, data, op);
    return;
  }
  const int node = comm.rank() / ranks_per_node;
  const bool leader = comm.rank() % ranks_per_node == 0;

  auto node_comm = comm.split(node, comm.rank());
  auto leader_comm = comm.split(leader ? 0 : Comm::kUndefinedColor, comm.rank());
  allreduce_hierarchical(*node_comm, leader_comm ? &*leader_comm : nullptr, data, op);
}

/// Multi-level hierarchical allreduce staged as reduce-scatter down the
/// hierarchy and allgather back up (the Horovod / Shi-et-al. structure:
/// intra-NUMA -> intra-node -> inter-node). `group_sizes` lists the stage
/// widths innermost first (e.g. {ranks_per_numa, numa_per_node}); each must
/// divide the rank count remaining at its level, with block rank mapping.
/// The leftover factor after all stages is handled by one allreduce with
/// `top_algo` over the shard each rank owns:
///
///   level k:  ring reduce-scatter within each contiguous group of
///             group_sizes[k] ranks; rank's owned shard shrinks by that factor
///   top:      allreduce of the owned shard across the remaining ranks
///   level k:  ring allgather within each group, unwinding the stack
///
/// With empty `group_sizes` this is exactly allreduce(comm, data, op).
template <typename T>
void allreduce_hierarchical_stages(Comm& comm, std::span<T> data, ReduceOp op,
                                   std::span<const int> group_sizes,
                                   AllreduceAlgo top_algo = AllreduceAlgo::Auto) {
  const int p = comm.size();
  if (group_sizes.empty()) {
    if (p > 1) allreduce(comm, data, op, top_algo);
    return;
  }
  const int g = group_sizes.front();
  const auto rest = group_sizes.subspan(1);
  if (g <= 0 || p % g != 0)
    throw std::invalid_argument(
        "allreduce_hierarchical_stages: group size must divide rank count");
  if (g == 1) {  // trivial level: nothing to stage
    allreduce_hierarchical_stages(comm, data, op, rest, top_algo);
    return;
  }
  const int r = comm.rank();
  // Contiguous groups of g ranks; the cross communicator links the ranks
  // holding the same shard index across groups.
  auto group = comm.split(r / g, r);
  auto cross = comm.split(r % g, r);
  reduce_scatter_ring(*group, data, op);
  const auto mine = detail::chunk_range(data.size(), g, group->rank());
  allreduce_hierarchical_stages(*cross, data.subspan(mine.begin, mine.size()), op, rest,
                                top_algo);
  allgather_ring_chunks(*group, data);
}

}  // namespace dnnperf::mpi
