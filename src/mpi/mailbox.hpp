// Per-rank mailbox for the in-process MPI backend.
//
// Each rank owns one Mailbox; send() enqueues a byte message keyed by
// (source, tag), recv() blocks until a matching message arrives. Messages
// between a fixed (source, tag) pair are delivered FIFO, matching MPI's
// non-overtaking guarantee.
//
// Progress is MVAPICH2's default polling mode: a receive that finds its
// queue empty first polls for kPollBudget, watching an arrival counter that
// every push bumps, and only then parks on the condition variable. Most
// collective hops in a step are answered within a few microseconds, so they
// complete without a futex wake-up; a receiver that parks is woken by the
// next push, which notifies only when some receiver is parked.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

namespace dnnperf::mpi {

class Mailbox {
 public:
  /// How long pop() polls before it parks.
  static constexpr std::chrono::microseconds kPollBudget{50};

  /// Enqueues a message from `source` with `tag`. Never blocks (buffered send).
  void push(int source, int tag, std::vector<std::byte> payload);

  /// Blocks until a message from (source, tag) is available and returns it.
  std::vector<std::byte> pop(int source, int tag);

  /// Receives so far that found nothing within kPollBudget and parked.
  std::uint64_t parks() const;

 private:
  using Key = std::pair<int, int>;  // (source, tag)

  /// Moves the head of `key`'s queue into `out`; false if none. Caller
  /// holds mutex_.
  bool take(const Key& key, std::vector<std::byte>& out);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<Key, std::deque<std::vector<std::byte>>> queues_;
  std::atomic<std::uint64_t> arrivals_{0};  ///< pushes so far; polled without mutex_
  int parked_ = 0;                          ///< receivers waiting on cv_; under mutex_
  std::uint64_t parks_ = 0;                 ///< receives that parked; under mutex_
};

}  // namespace dnnperf::mpi
