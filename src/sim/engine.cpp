#include "sim/engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/trace.hpp"

namespace dnnperf::sim {

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  if (slots_.size() >= static_cast<std::size_t>(kNoSlot))
    throw std::length_error("Engine: event pool exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;  // drop captures eagerly; the slot may sit free for a while
  s.live = false;
  s.cancelled = false;
  ++s.gen;  // invalidate outstanding EventIds pointing here
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId Engine::schedule_at(double t, Callback cb) {
  if (t < now_) throw std::invalid_argument("Engine::schedule_at: time in the past");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.time = t;
  s.seq = next_seq_++;
  s.live = true;
  s.cancelled = false;
  s.cb = std::move(cb);
  heap_.push_back(HeapEntry{t, s.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++scheduled_;
  ++pending_live_;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventId Engine::schedule_after(double dt, Callback cb) {
  if (dt < 0.0) throw std::invalid_argument("Engine::schedule_after: negative delay");
  return schedule_at(now_ + dt, std::move(cb));
}

void Engine::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.live || s.cancelled) return;  // already ran or cancelled
  s.cancelled = true;
  --pending_live_;
}

void Engine::drop_cancelled_top() {
  while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
    const std::uint32_t slot = heap_.front().slot;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    release_slot(slot);
  }
}

double Engine::next_time() {
  drop_cancelled_top();
  return heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.front().time;
}

bool Engine::step() {
  drop_cancelled_top();
  if (heap_.empty()) return false;
  const std::uint32_t slot = heap_.front().slot;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  now_ = slots_[slot].time;
  Callback cb = std::move(slots_[slot].cb);
  --pending_live_;
  release_slot(slot);  // before the callback: it may schedule into this slot
  ++processed_;
  // Sparse by design: report_all runs hundreds of simulations through one
  // trace buffer, so per-event emission would swamp the document.
  if (trace_pid_ != 0 && processed_ % kTraceCounterStride == 0 && util::trace::enabled())
    util::trace::emit_virtual_counter("events_processed", trace_pid_, now_,
                                      static_cast<double>(processed_));
  cb();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(double t) {
  if (t < now_) throw std::invalid_argument("Engine::run_until: time in the past");
  for (;;) {
    drop_cancelled_top();
    if (heap_.empty() || heap_.front().time > t) break;
    step();
  }
  now_ = t;
}

}  // namespace dnnperf::sim
