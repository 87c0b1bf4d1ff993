#include "mpi/mailbox.hpp"

#include <thread>

namespace dnnperf::mpi {

void Mailbox::push(int source, int tag, std::vector<std::byte> payload) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[Key{source, tag}].push_back(std::move(payload));
    arrivals_.fetch_add(1, std::memory_order_release);
    wake = parked_ > 0;
  }
  if (wake) cv_.notify_all();
}

bool Mailbox::take(const Key& key, std::vector<std::byte>& out) {
  auto it = queues_.find(key);
  if (it == queues_.end()) return false;
  out = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  return true;
}

std::vector<std::byte> Mailbox::pop(int source, int tag) {
  const Key key{source, tag};
  std::vector<std::byte> msg;
  std::unique_lock<std::mutex> lock(mutex_);
  if (take(key, msg)) return msg;

  // Poll: re-check the queue only when a push has landed since the last look.
  const auto deadline = std::chrono::steady_clock::now() + kPollBudget;
  std::uint64_t seen = arrivals_.load(std::memory_order_relaxed);
  lock.unlock();
  while (std::chrono::steady_clock::now() < deadline) {
    if (arrivals_.load(std::memory_order_acquire) == seen) {
      std::this_thread::yield();
      continue;
    }
    lock.lock();
    if (take(key, msg)) return msg;
    seen = arrivals_.load(std::memory_order_relaxed);
    lock.unlock();
  }

  // Park until a push for this key arrives.
  lock.lock();
  ++parked_;
  ++parks_;
  cv_.wait(lock, [&] { return take(key, msg); });
  --parked_;
  return msg;
}

std::uint64_t Mailbox::parks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return parks_;
}

}  // namespace dnnperf::mpi
