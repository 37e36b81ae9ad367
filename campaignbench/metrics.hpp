#pragma once

// Names and units of the metrics the benchmark prints. BENCHMARK.json lists
// the same ones; run.py refuses a result whose names or units differ from
// it, so the two cannot drift apart unnoticed.

#include <string_view>

namespace campaignbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// --trace 0: what a user of the library sees, tracing off.
inline constexpr MetricSpec kEndToEnd[] = {
    {"campaign_s", "s"}, {"injections_per_s", "1/s"}, {"setup_s", "s"},
    {"cpu_s", "s"},      {"peak_rss_mb", "MiB"},
};

/// --trace 1: per-layer numbers of the traced campaigns. Those with unit
/// "count" or "bytes" are exact counts that repeat from run to run.
inline constexpr MetricSpec kPerLayer[] = {
    {"transpile.s", "s"},
    {"dist.plan_s", "s"},
    {"service.submit_s", "s"},
    {"core.campaign_s", "s"},
    {"core.outside_backend_share", "ratio"},
    {"core.qvf_abs_err_max", "qvf"},
    {"backend.prepare_prefix.calls", "count"},
    {"backend.prepare_prefix.s", "s"},
    {"backend.extend_snapshot.calls", "count"},
    {"backend.extend_snapshot.gates", "count"},
    {"backend.extend_snapshot.s", "s"},
    {"backend.run_suffix_batch.calls", "count"},
    {"backend.run_suffix_batch.configs", "count"},
    {"backend.run_suffix_batch.s", "s"},
    {"backend.run_suffix_batch.ns_per_config", "ns"},
    {"backend.response_path_share", "ratio"},
    {"backend.allocs_per_config", "count"},
    {"backend.run.calls", "count"},
    {"backend.run.s", "s"},
    {"backend.run_suffix.calls", "count"},
    {"adaptive.configs_evaluated", "count"},
    {"adaptive.grid_fraction", "ratio"},
    {"adaptive.batches_per_point", "count"},
    {"dist.run_shard.calls", "count"},
    {"dist.run_shard.s", "s"},
    {"dist.shard_imbalance", "ratio"},
    {"dist.partial_bytes", "bytes"},
    {"service.acquire.calls", "count"},
    {"service.acquire.s", "s"},
    {"service.complete.calls", "count"},
    {"service.complete.s", "s"},
    {"service.finalize_s", "s"},
    {"service.tail_idle_s", "s"},
    {"service.journal_bytes", "bytes"},
    {"service.requeues", "count"},
    {"trace.overhead_share", "ratio"},
};

inline bool is_exact_count(const MetricSpec& m) {
  const std::string_view unit = m.unit;
  return unit == "count" || unit == "bytes";
}

}  // namespace campaignbench
