#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace campaignbench {

thread_local std::uint64_t t_allocs = 0;

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::int64_t> g_next_id{1};
std::atomic<std::int64_t> g_root{0};
std::atomic<std::uint32_t> g_next_thread{0};

std::mutex g_spans_mutex;
std::vector<Span> g_spans;  // guarded by g_spans_mutex

thread_local std::int64_t t_current = 0;
thread_local const std::uint32_t t_thread = g_next_thread.fetch_add(1);

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_on.store(on); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }
void set_root_span(std::int64_t id) { g_root.store(id); }

std::vector<Span> take_spans() {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  return std::exchange(g_spans, {});
}

Scope::Scope(const char* name) {
  if (!tracing()) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1);
  span_.parent = t_current != 0 ? t_current : g_root.load();
  span_.thread = t_thread;
  saved_current_ = t_current;
  t_current = span_.id;
  span_.allocs = t_allocs;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  span_.allocs = t_allocs - span_.allocs;
  t_current = saved_current_;
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(span_);
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t b = std::max(s.start_ns, p.start_ns);
    const std::int64_t e = std::min(s.end_ns, p.end_ns);
    if (b < e) children[it->second].emplace_back(b, e);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_begin = 0, run_end = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = b;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    out[i] = 1e-9 * static_cast<double>(spans[i].end_ns -
                                        spans[i].start_ns - covered);
  }
  return out;
}

}  // namespace campaignbench
