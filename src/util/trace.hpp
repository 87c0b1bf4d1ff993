// Process-wide Chrome trace-event tracing: scoped spans, counters, and
// virtual-time (simulated) events collected into per-thread buffers and
// flushed on demand as a JSON document loadable in chrome://tracing or
// Perfetto (ui.perfetto.dev). This is the observability layer the paper's
// Horovod-timeline analysis (Figs. 18/19) relies on: one track per rank
// thread showing negotiation vs data allreduces, per-step training phases,
// per-worker thread-pool chunks, and — on separate simulated-process tracks
// — the DES timeline, so real and simulated executions are visually
// comparable in the same viewer.
//
// Cost model:
//  - recording appends to a thread-local vector: no locks, no I/O, no
//    clock reads beyond one steady_clock query per span endpoint;
//  - runtime-disabled (the default): every instrumentation site is a single
//    relaxed atomic load;
//  - compiled out (-DDNNPERF_TRACE_ENABLED=0): the DNNPERF_TRACE_* macros
//    expand to an inert NullSpan whose active() is constant false, so arg
//    formatting is dead code the compiler removes.
//
// Threading contract: record from any number of threads concurrently;
// set_enabled() may be flipped at any time; reset() and write_json() must
// not race with threads that are actively recording (callers flush after
// worker threads have joined, as the examples and trainer do).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#ifndef DNNPERF_TRACE_ENABLED
#define DNNPERF_TRACE_ENABLED 1
#endif

namespace dnnperf::util::trace {

/// pid of the real process's tracks in the emitted trace.
inline constexpr int kRealPid = 1;
/// pid under which virtual-time (DES) tracks are grouped by convention.
inline constexpr int kSimulatedPid = 2;

/// Runtime switch; tracing starts disabled.
bool enabled();
void set_enabled(bool on);

/// Drops every recorded event (including buffers of exited threads) and
/// restarts the clock epoch. Not to be called while other threads record.
void reset();

/// Microseconds since the current trace epoch (steady clock).
std::uint64_t now_us();

/// Total events recorded since the last reset(), across all threads.
std::size_t event_count();

/// Builder for an event's "args" payload. Keys are emitted verbatim (use
/// JSON-safe literals); string values are escaped.
class Args {
 public:
  Args& add(const char* key, std::int64_t value);
  Args& add(const char* key, std::uint64_t value);
  Args& add(const char* key, int value) { return add(key, static_cast<std::int64_t>(value)); }
  Args& add(const char* key, double value);
  Args& add(const char* key, const char* value);
  Args& add(const char* key, const std::string& value);
  /// The accumulated `"k":v` pairs, comma-separated, without braces.
  std::string str() && { return std::move(json_); }
  const std::string& str() const& { return json_; }

 private:
  std::string json_;
};

// Low-level emitters. All are runtime-gated no-ops when tracing is
// disabled; `args_json` is an Args::str() payload (may be empty).
void emit_complete(std::string name, const char* cat, std::uint64_t ts_us,
                   std::uint64_t dur_us, std::string args_json = {});
void emit_instant(std::string name, const char* cat, std::string args_json = {});
void emit_counter(const char* name, double value);
/// Names this thread's track in the viewer (e.g. "rank 0").
void set_thread_name(const std::string& name);

// Virtual-time events for the discrete-event simulator: timestamps are
// simulated seconds, and `pid` (conventionally kSimulatedPid) keeps the
// simulated tracks in a separate process group from the real ones.
void emit_virtual_complete(std::string name, const char* cat, int pid, int tid, double ts_s,
                           double dur_s, std::string args_json = {});
void emit_virtual_instant(std::string name, const char* cat, int pid, int tid, double ts_s,
                          std::string args_json = {});
void emit_virtual_counter(const char* name, int pid, double ts_s, double value);
void set_virtual_track_name(int pid, int tid, const std::string& process_name,
                            const std::string& thread_name);

/// Serializes everything recorded since the last reset() as a Chrome
/// trace-event JSON document ({"traceEvents":[...]}), events sorted by
/// timestamp. Does not clear the buffers.
void write_json(std::ostream& os);
/// write_json() to `path`; throws std::runtime_error on I/O failure.
void write_json_file(const std::string& path);

/// RAII scoped span: one complete ("X") event on the calling thread's track
/// covering the Span's lifetime. Construction with tracing disabled records
/// the inactive state and nothing else.
class Span {
 public:
  Span(const char* cat, const char* name);
  Span(const char* cat, std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  /// Attaches an args payload; build it under `if (span.active())` so the
  /// formatting cost vanishes when tracing is off.
  void set_args(std::string args_json) { args_ = std::move(args_json); }
  /// FLOPs done during the span; the destructor derives a "gflops" arg from
  /// the measured duration (the per-kernel efficiency the paper tracks).
  void set_flops(double flops) { flops_ = flops; }
  /// Records nothing after all: for a scope that turned out not to be the
  /// operation its name promises.
  void discard() { active_ = false; }

 private:
  bool active_;
  const char* cat_ = nullptr;
  std::string name_;
  std::string args_;
  double flops_ = 0.0;
  std::uint64_t start_ = 0;
};

/// Compile-time stand-in for Span when tracing is compiled out: active() is
/// constant false, so guarded arg formatting is removed entirely.
struct NullSpan {
  constexpr NullSpan() = default;
  constexpr NullSpan(const char*, const char*) {}
  constexpr bool active() const { return false; }
  void set_args(const std::string&) {}
  void set_flops(double) {}
  void discard() {}
};

/// The span type the DNNPERF_TRACE_* macros declare, for spans held as
/// class members: Span, or NullSpan when tracing is compiled out.
#if DNNPERF_TRACE_ENABLED
using ScopedSpan = Span;
#else
using ScopedSpan = NullSpan;
#endif

}  // namespace dnnperf::util::trace

#define DNNPERF_TRACE_CONCAT_IMPL(a, b) a##b
#define DNNPERF_TRACE_CONCAT(a, b) DNNPERF_TRACE_CONCAT_IMPL(a, b)

#if DNNPERF_TRACE_ENABLED
/// Anonymous scoped span covering the rest of the enclosing block.
#define DNNPERF_TRACE_SPAN(cat, name) \
  ::dnnperf::util::trace::Span DNNPERF_TRACE_CONCAT(dnnperf_trace_span_, __LINE__)((cat), (name))
/// Named scoped span, for attaching args/flops via `var`.
#define DNNPERF_TRACE_SPAN_VAR(var, cat, name) \
  ::dnnperf::util::trace::Span var((cat), (name))
#else
#define DNNPERF_TRACE_SPAN(cat, name) ((void)0)
#define DNNPERF_TRACE_SPAN_VAR(var, cat, name) ::dnnperf::util::trace::NullSpan var
#endif
