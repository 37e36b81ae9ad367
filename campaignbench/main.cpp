// Campaign benchmark entry point: runs one workload (workloads.hpp) as a closed
// loop of campaigns for a fixed time, checks the answers against untimed
// references, and prints the result as the last JSON line on stdout. See
// campaignbench/README.md.
//
//   campaignbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--work-dir DIR] [--commit SHA]
//                 [--source DIGEST]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1
// alternates untraced and traced campaigns, prints the per-layer metrics
// and writes every span to <out-dir>/trace-<workload>-<seed>.json.
// This file builds two executables: campaignbench runs --trace 0 with the
// standard allocator, campaignbench_traced adds the counting operator new
// (alloc_count.cpp) and is the only one that accepts --trace 1.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "sim/kernel_dispatch.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace campaignbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string work_dir = ".bench_work";
  std::string commit = "unknown";
  std::string source = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "campaignbench: %s\n"
               "usage: campaignbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--work-dir DIR] [--commit SHA] "
               "[--source DIGEST]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") a.workload = value;
    else if (arg == "--seed") a.seed = std::stoull(value);
    else if (arg == "--seconds") a.seconds = std::stod(value);
    else if (arg == "--trace") a.trace = value == "1";
    else if (arg == "--out-dir") a.out_dir = value;
    else if (arg == "--work-dir") a.work_dir = value;
    else if (arg == "--commit") a.commit = value;
    else if (arg == "--source") a.source = value;
    else usage(("unknown option " + arg).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
#ifndef CAMPAIGNBENCH_COUNTS_ALLOCS
  if (a.trace) usage("--trace 1 needs campaignbench_traced");
#endif
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_of(const std::vector<RepResult>& reps, F field) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(field(r));
  return median(v);
}

/// Restarts the kernel's peak-RSS mark of this process (Linux 4.0+), so the
/// next reading covers one rep only. Freed heap memory that earlier reps
/// left cached in the allocator's arenas is returned first, so it does not
/// count toward the next rep. Throws where the mark cannot be reset: the
/// whole-process peak is a different quantity and is never reported instead.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (!(f << "5" << std::flush)) {
    throw std::runtime_error(
        "cannot reset the peak-RSS mark through /proc/self/clear_refs");
  }
}

/// Peak RSS in MiB since the last reset_peak_rss() (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string environment_json(const Args& a, int threads) {
  const char* override_set = std::getenv("QUFI_KERNELS");
  std::string s = "{";
  s += "\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"threads\":" + std::to_string(threads);
  s += ",\"kernel_set\":" +
       json_string(qufi::sim::active_kernel_set().name);
  s += ",\"qufi_kernels\":" +
       json_string(override_set != nullptr ? override_set : "");
  s += ",\"build_type\":" + json_string(CAMPAIGNBENCH_BUILD_TYPE);
  s += ",\"compiler\":" + json_string(CAMPAIGNBENCH_COMPILER " " __VERSION__);
  s += ",\"commit\":" + json_string(a.commit);
  s += ",\"source_digest\":" + json_string(a.source);
#ifdef CAMPAIGNBENCH_COUNTS_ALLOCS
  s += ",\"counts_allocs\":true";
#else
  s += ",\"counts_allocs\":false";
#endif
  return s + "}";
}

std::string metrics_json(const std::vector<std::pair<MetricSpec, double>>& m) {
  std::string s = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m[i].second);
    if (i > 0) s += ", ";
    s += json_string(m[i].first.name) + ": {\"value\": " + value +
         ", \"unit\": " + json_string(m[i].first.unit) + "}";
  }
  return s + "}";
}

void write_trace_file(const Args& a, const std::string& env,
                      const std::string& metrics,
                      const std::vector<Span>& spans) {
  std::filesystem::create_directories(a.out_dir);
  const std::string path = a.out_dir + "/trace-" + a.workload + "-" +
                           std::to_string(a.seed) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(a.workload) << ", \"seed\": "
      << a.seed << ",\n \"env\": " << env << ",\n \"metrics\": " << metrics
      << ",\n \"spans\": [";
  const std::vector<double> self = self_seconds(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s\n  {\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                  "\"thread\": %u, \"start_ns\": %lld, \"end_ns\": %lld, "
                  "\"self_s\": %.9f, \"allocs\": %llu, \"items\": %llu}",
                  i == 0 ? "" : ",", s.name, static_cast<long long>(s.id),
                  static_cast<long long>(s.parent), s.thread,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), self[i],
                  static_cast<unsigned long long>(s.allocs),
                  static_cast<unsigned long long>(s.items));
    out << line;
  }
  out << "\n]}\n";
}

int run(const Args& a) {
  WorkloadOptions options;
  options.seed = a.seed;
  // Two threads, not four: on a shared 4-vCPU host each further lane is one
  // more that the scheduler can stall, and the slowest lane sets
  // campaign_s.
  options.threads = std::min(
      2, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  options.work_dir = a.work_dir;
  const std::string env = environment_json(a, options.threads);
  std::printf("{\"env\": %s}\n", env.c_str());
  std::fflush(stdout);

  std::unique_ptr<Workload> workload = make_workload(a.workload, options);
  std::vector<RepResult> plain, traced;
  std::uint64_t attempted = 0, failed = 0;
  std::optional<std::uint64_t> digest;
  const auto account = [&](const RepResult& rep) {
    attempted += rep.attempted;
    // Every rep must reproduce the first rep's answer bit for bit.
    if (!digest) digest = rep.digest;
    failed += rep.digest == *digest ? rep.failed : rep.attempted;
  };

  // setup_s is sampled more often than campaigns run: each plain rep's own
  // set-up plus kExtraSetups set-ups alone after it.
  constexpr int kExtraSetups = 29;
  std::vector<double> setup_s;

  // Every rep, traced or not, starts from the same state: trimmed heap and
  // a fresh peak-RSS mark.
  const auto run_rep = [&](bool traced_rep) {
    reset_peak_rss();
    set_tracing(traced_rep);
    RepResult rep = workload->run(traced_rep);
    set_tracing(false);
    rep.peak_rss_mb = peak_rss_mb();
    account(rep);
    if (!traced_rep) setup_s.push_back(rep.setup_s);
    (traced_rep ? traced : plain).push_back(std::move(rep));
  };

  // Warm-up, untimed: the same workload at smoke size runs every code path
  // once, so lazy set-up and cold caches do not land in the first rep.
  {
    WorkloadOptions warm = options;
    warm.smoke = true;
    warm.work_dir = options.work_dir + "/warm-up";
    make_workload(a.workload, warm)->run(false);
  }

  // Closed loop: the next campaign starts when the previous one ended.
  // Reps continue while another one fits in the time budget (at least
  // three plain reps, or two plain/traced pairs). Pairs alternate which
  // kind runs first, so neither kind always follows the other.
  const std::int64_t start = now_ns();
  const std::size_t min_reps = a.trace ? 2 : 3;
  while (true) {
    const std::int64_t rep_start = now_ns();
    const bool traced_first = a.trace && plain.size() % 2 == 1;
    run_rep(traced_first);
    if (a.trace) run_rep(!traced_first);
    for (int i = 0; !a.trace && i < kExtraSetups; ++i) {
      setup_s.push_back(workload->time_setup());
    }
    const double elapsed = 1e-9 * static_cast<double>(now_ns() - start);
    const double rep_s = 1e-9 * static_cast<double>(now_ns() - rep_start);
    if (plain.size() >= min_reps && elapsed + rep_s > a.seconds) break;
  }

  const std::string problem = workload->verify();
  if (!problem.empty()) {
    std::fprintf(stderr, "campaignbench: %s: check failed: %s\n",
                 a.workload.c_str(), problem.c_str());
    failed = attempted;
  }
  std::string rep_times;
  for (const RepResult& r : plain) {
    rep_times += (rep_times.empty() ? "" : ", ") + std::to_string(r.campaign_s);
  }
  std::printf("{\"check\": {\"passed\": %s, \"qvf_abs_err_max\": %.17g, "
              "\"problem\": %s, \"campaign_s_per_rep\": [%s]}}\n",
              problem.empty() ? "true" : "false", workload->qvf_abs_err_max(),
              json_string(problem).c_str(), rep_times.c_str());

  std::vector<std::pair<MetricSpec, double>> metrics;
  const auto campaign = [](const RepResult& r) { return r.campaign_s; };
  if (!a.trace) {
    const double campaign_s = median_of(plain, campaign);
    const double values[] = {
        campaign_s,
        static_cast<double>(plain.front().configs_answered) / campaign_s,
        median(setup_s),
        median_of(plain, [](const RepResult& r) { return r.cpu_s; }),
        median_of(plain, [](const RepResult& r) { return r.peak_rss_mb; }),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    for (const MetricSpec& m : kPerLayer) {
      const std::string name = m.name;
      double value = median_of(traced, [&](const RepResult& r) {
        const auto it = r.layers.find(name);
        return it == r.layers.end() ? 0.0 : it->second;
      });
      if (name == "core.qvf_abs_err_max") value = workload->qvf_abs_err_max();
      if (name == "trace.overhead_share") {
        value = median_of(traced, campaign) / median_of(plain, campaign) - 1.0;
      }
      metrics.emplace_back(m, value);
    }
  }
  const std::string metrics_text = metrics_json(metrics);
  if (a.trace) write_trace_file(a, env, metrics_text, traced.back().spans);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_text.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
}
