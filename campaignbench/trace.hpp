#pragma once

// In-memory span recorder for the campaign benchmark's traced run.
//
// Spans are opened around calls into each library layer from the
// benchmark's own code (the library itself carries no spans). Each span
// keeps its name, start, end, parent and thread, plus the heap allocations
// its thread made while it was open and a work count the caller attaches
// (configs, gates, ...). Spans are appended to one process-wide buffer and
// read back with take() when the traced run ends.

#include <cstdint>
#include <vector>

namespace campaignbench {

/// Heap allocations made by the current thread so far. Incremented by the
/// replacement global operator new (alloc_count.cpp) in the executables that
/// link it; stays 0 in the others.
extern thread_local std::uint64_t t_allocs;

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

struct Span {
  const char* name = "";    ///< static string, "<layer>.<call>"
  std::int64_t id = 0;      ///< unique per process, > 0
  std::int64_t parent = 0;  ///< enclosing span id, 0 = none
  std::uint32_t thread = 0; ///< small per-process thread number
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocs = 0; ///< allocations by this thread while open
  std::uint64_t items = 0;  ///< caller-attached work count

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

/// Turns recording on or off process-wide. Off, Scope does nothing.
void set_tracing(bool on);
bool tracing();

/// Parent for spans opened on a thread that has no open span of its own
/// (campaign pool lanes, dispatcher workers): the span that caused their
/// work. 0 clears it.
void set_root_span(std::int64_t id);

/// Removes and returns every span recorded so far, in completion order.
std::vector<Span> take_spans();

/// Records one span over its lifetime (when tracing is on).
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_items(std::uint64_t items) { span_.items = items; }
  std::int64_t id() const { return span_.id; }

 private:
  Span span_;
  std::int64_t saved_current_ = 0;
  bool active_ = false;
};

/// Per-span self time: the span's duration minus the part of it that its
/// child spans (on any thread) cover. Parallel to `spans`.
std::vector<double> self_seconds(const std::vector<Span>& spans);

}  // namespace campaignbench
