#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace campaignbench {

/// Per-layer numbers of one traced campaign, by metric name.
using LayerMetrics = std::map<std::string, double>;

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Total threads the workload may use: campaign pool lanes in process,
  /// dispatcher workers (one engine thread each) for sharded_single.
  int threads = 1;
  /// Shrinks every campaign to a few injection points (the benchmark's own
  /// tests); the workload shape and code path stay the same.
  bool smoke = false;
  /// Scratch directory for spool files (sharded_single); created on demand.
  std::string work_dir = ".bench_work";
};

/// One timed operation: set-up plus one campaign to its answer.
struct RepResult {
  double setup_s = 0.0;
  double campaign_s = 0.0;
  double cpu_s = 0.0;  ///< process user+sys CPU during the campaign
  double peak_rss_mb = 0.0;  ///< process peak RSS during this rep
  /// (theta, phi) configs the campaign's answer covers: executed configs
  /// for exhaustive sweeps, the whole grid for the adaptive estimator.
  std::uint64_t configs_answered = 0;
  /// Operations this rep attempted / failed: one per campaign, or one per
  /// shard attempt for sharded_single.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of the campaign's output (records, or the merged CSV bytes).
  std::uint64_t digest = 0;
  /// Traced reps only: this campaign's per-layer numbers and spans.
  LayerMetrics layers;
  std::vector<Span> spans;
};

/// One benchmark workload: builds its campaign from the seed, runs it, and
/// checks the answer against an untimed reference.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Sets up and runs one campaign. `traced` routes the backend through
  /// TracedBackend and records spans around every layer call.
  virtual RepResult run(bool traced) = 0;

  /// Runs one campaign's set-up alone, as run() does before its campaign,
  /// discards it and returns its seconds: more samples of setup_s than
  /// there are campaigns.
  virtual double time_setup() = 0;

  /// Untimed reference check of the outputs produced so far. Returns an
  /// empty string when they are correct, else what is wrong.
  virtual std::string verify() = 0;

  /// Largest |answered QVF - reference QVF| found by verify(): against the
  /// exhaustive per-point grid mean for the adaptive estimator, against the
  /// full re-simulation oracle on a seed-drawn sample of 256 configs for
  /// exhaustive sweeps.
  virtual double qvf_abs_err_max() const = 0;
};

/// "double_fault", "sharded_single", "adaptive_single".
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

}  // namespace campaignbench
