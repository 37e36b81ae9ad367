#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

#include "backend/density_backend.hpp"
#include "core/adaptive.hpp"
#include "core/snapshot_tree.hpp"
#include "noise/noise_model.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qufi {

namespace {

/// Shared, prepared campaign state.
struct Prepared {
  transpile::TranspileResult transpiled;
  transpile::CouplingMap coupling;
  GoldenOutput golden;
  std::unique_ptr<backend::Backend> owned_backend;
  backend::Backend* exec = nullptr;
  /// Injection points over the transpiled circuit (after max_points
  /// striding), in instruction order.
  std::vector<InjectionPoint> points;
};

Prepared prepare(const CampaignSpec& spec, const char* no_points_message) {
  require(spec.circuit.num_clbits() > 0,
          "campaign: circuit needs measurements");
  spec.grid.validate();

  Prepared prep{transpile::transpile(spec.circuit, spec.backend,
                                     spec.transpile_options),
                transpile::CouplingMap::from_backend(spec.backend),
                {},
                nullptr,
                nullptr,
                {}};

  if (spec.expected_outputs.empty()) {
    prep.golden = compute_golden(spec.circuit);
  } else {
    prep.golden =
        golden_from_expected(spec.expected_outputs, spec.circuit.num_clbits());
  }

  if (spec.backend_override) {
    prep.exec = spec.backend_override;
  } else {
    prep.owned_backend = std::make_unique<backend::DensityMatrixBackend>(
        noise::NoiseModel::from_backend(spec.backend, spec.noise_scale),
        spec.idle_noise);
    prep.exec = prep.owned_backend.get();
  }
  prep.points =
      stride_points(enumerate_injection_points(prep.transpiled, spec.strategy),
                    spec.max_points);
  require(!prep.points.empty(), no_points_message);
  return prep;
}

/// Walks a prefix-tree plan with one task per chain: the chain head is
/// prepared from scratch, every later node is derived from its predecessor
/// via extend_snapshot (bit-identical to a from-scratch prepare), and
/// `visit(pos, snapshot)` runs for each of the node's member positions with
/// work. Nodes none of whose members have work are skipped entirely — the
/// next extension jumps across them — so e.g. double-fault points with no
/// coupled active neighbor never materialize a snapshot. At most two
/// snapshots are alive per chain (few-point campaigns that store the
/// handful of snapshots for chunked sweeping are bounded by the pool size
/// instead).
template <typename HasWork, typename Visit>
void run_tree_chains(util::ThreadPool& pool, backend::Backend& exec,
                     const circ::QuantumCircuit& circuit,
                     const CampaignSpec& spec, const SnapshotTreePlan& plan,
                     const HasWork& has_work, const Visit& visit) {
  pool.parallel_for(plan.num_chains(), [&](std::size_t chain) {
    backend::PrefixSnapshotPtr prev;
    std::size_t prev_split = 0;
    for (std::size_t i = plan.chain_begin[chain];
         i < plan.chain_begin[chain + 1]; ++i) {
      const SnapshotTreeNode& node = plan.nodes[i];
      const bool any_work = std::any_of(node.members.begin(),
                                        node.members.end(), has_work);
      if (!any_work) continue;
      backend::PrefixSnapshotPtr snapshot =
          prev ? exec.extend_snapshot(*prev, prev_split, node.split,
                                      spec.shots, spec.seed)
               : exec.prepare_prefix(circuit, node.split, spec.shots,
                                     spec.seed);
      for (const std::size_t pos : node.members) {
        if (has_work(pos)) visit(pos, snapshot);
      }
      prev = std::move(snapshot);
      prev_split = node.split;
    }
  });
}

/// Deterministic batch boundaries for a config slice: floor(len/chunk)
/// chunks of at least `chunk` configs each, remainder merged into the last
/// chunk. A pure function of (begin, end, chunk) — never of pool size or
/// subset shape — so batch composition, and with it the backend's
/// response-vs-replay choice, is identical across thread counts,
/// shardings, and scheduling (the byte-identity contract). Chunk floors at
/// or above the response thresholds keep every chunk on the fast path.
std::vector<std::pair<std::size_t, std::size_t>> chunk_slice(
    std::size_t begin, std::size_t end, std::size_t chunk) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (begin >= end) return out;
  const std::size_t n = std::max<std::size_t>(1, (end - begin) / chunk);
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.emplace_back(begin + k * chunk,
                     k + 1 == n ? end : begin + (k + 1) * chunk);
  }
  return out;
}

// Chunk floors: single-fault grids inject one qubit (1q response basis),
// double-fault grids a (primary, neighbor) pair (2q).
constexpr std::size_t kChunk1q = 64;
constexpr std::size_t kChunk2q = 512;
static_assert(kChunk1q >= backend::DensityMatrixBackend::kResponseMinConfigs1q);
static_assert(kChunk2q >= backend::DensityMatrixBackend::kResponseMinConfigs2q);

/// The campaign executor — the one path every campaign kind runs through.
/// Subset position s owns the config slice [slice_begin[s],
/// slice_begin[s + 1]); `sweep(s, begin, end, snapshot)` executes one chunk
/// of it from the point's prefix snapshot. Snapshots come from the subset's
/// prefix-tree chains (run_tree_chains); points with an empty slice never
/// materialize one. With at least as many points as pool lanes, chains
/// stream and each point's chunks run inline on its chain's lane; with
/// fewer, the few snapshots are kept and the chunks fan out across the
/// pool so no lane idles. Chunks are chunk_slice(slice, chunk), so batch
/// composition — and every record — is the same either way. Backends
/// without checkpointing run through the base Backend splice snapshots,
/// whose run_suffix re-simulates the spliced circuit with the config's
/// seed (the full re-simulation oracle).
template <typename Sweep>
void execute(const CampaignSpec& spec, const Prepared& prep,
             std::span<const std::size_t> subset,
             std::span<const std::size_t> slice_begin, std::size_t chunk,
             const Sweep& sweep) {
  util::ThreadPool pool(static_cast<std::size_t>(
      spec.threads > 0 ? spec.threads : 0));
  std::vector<std::size_t> splits(subset.size());
  for (std::size_t s = 0; s < subset.size(); ++s) {
    splits[s] = prep.points[subset[s]].split_index();
  }
  const SnapshotTreePlan tree = plan_snapshot_tree(splits, pool.size());
  const auto has_work = [&](std::size_t s) {
    return slice_begin[s] < slice_begin[s + 1];
  };
  const auto chunks_of = [&](std::size_t s) {
    return chunk_slice(slice_begin[s], slice_begin[s + 1], chunk);
  };
  if (subset.size() >= pool.size()) {
    // Enough points to saturate the pool: at most two live snapshots per
    // lane.
    run_tree_chains(pool, *prep.exec, prep.transpiled.circuit, spec, tree,
                    has_work,
                    [&](std::size_t s, const backend::PrefixSnapshotPtr& snap) {
                      for (const auto& [begin, end] : chunks_of(s)) {
                        sweep(s, begin, end, *snap);
                      }
                    });
    return;
  }
  std::vector<backend::PrefixSnapshotPtr> snapshots(subset.size());
  run_tree_chains(pool, *prep.exec, prep.transpiled.circuit, spec, tree,
                  has_work,
                  [&](std::size_t s, const backend::PrefixSnapshotPtr& snap) {
                    snapshots[s] = snap;
                  });
  struct ChunkItem {
    std::size_t subset_pos, begin, end;
  };
  std::vector<ChunkItem> items;
  for (std::size_t s = 0; s < subset.size(); ++s) {
    for (const auto& [begin, end] : chunks_of(s)) {
      items.push_back({s, begin, end});
    }
  }
  pool.parallel_for(items.size(), [&](std::size_t i) {
    const ChunkItem& item = items[i];
    sweep(item.subset_pos, item.begin, item.end,
          *snapshots[item.subset_pos]);
  });
}

/// Runs `configs` from `snapshot` as one run_suffix_batch submission.
std::vector<backend::ExecutionResult> run_batch(
    const CampaignSpec& spec, const Prepared& prep,
    const backend::PrefixSnapshot& snapshot,
    std::span<const backend::SuffixConfig> configs) {
  auto runs = prep.exec->run_suffix_batch(snapshot, configs, spec.shots);
  require(runs.size() == configs.size(),
          "campaign: run_suffix_batch returned wrong result count");
  return runs;
}

/// The sweep of an exhaustive config source: configs [begin, end) of subset
/// position s, built by make_config(s, idx), go out as one batch and
/// fill(s, idx, probabilities) scores each result.
template <typename MakeConfig, typename Fill>
auto batch_sweep(const CampaignSpec& spec, const Prepared& prep,
                 const MakeConfig& make_config, const Fill& fill) {
  return [&](std::size_t s, std::size_t begin, std::size_t end,
             const backend::PrefixSnapshot& snapshot) {
    std::vector<backend::SuffixConfig> configs;
    configs.reserve(end - begin);
    for (std::size_t idx = begin; idx < end; ++idx) {
      configs.push_back(make_config(s, idx));
    }
    const auto runs = run_batch(spec, prep, snapshot, configs);
    for (std::size_t k = 0; k < runs.size(); ++k) {
      fill(s, begin + k, runs[k].probabilities);
    }
  };
}

std::uint64_t config_seed(const CampaignSpec& spec, std::uint64_t a,
                          std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  const std::uint64_t words[] = {spec.seed, a, b, c, d};
  return util::hash_combine(words);
}

double faultfree_qvf(const Prepared& prep, const CampaignSpec& spec) {
  const auto result = prep.exec->run(prep.transpiled.circuit, spec.shots,
                                     config_seed(spec, ~0ULL, 0, 0, 0));
  return compute_qvf(result.probabilities, prep.golden);
}

CampaignMetadata base_metadata(const CampaignSpec& spec, const Prepared& prep,
                               std::uint64_t executions) {
  CampaignMetadata meta;
  meta.circuit_name = spec.circuit.name();
  meta.backend_name = prep.exec->name();
  meta.circuit_qubits = spec.circuit.num_qubits();
  meta.transpiled_gates = prep.transpiled.circuit.num_unitary_gates();
  meta.grid = spec.grid;
  meta.shots = spec.shots;
  meta.seed = spec.seed;
  meta.idle_noise = spec.idle_noise;
  meta.faultfree_qvf = faultfree_qvf(prep, spec);
  meta.executions = executions;
  meta.injections = campaign_injections(executions, spec.shots);
  return meta;
}

/// Scores one executed config: pa/pb via the shared QVF split (paper
/// Eq. 1) instead of a re-implemented loop.
void score_record(InjectionRecord& rec, std::span<const double> probs,
                  const GoldenOutput& golden) {
  const ProbabilitySplit split = split_probabilities(probs, golden);
  rec.pa = split.pa;
  rec.pb = split.pb;
  rec.qvf = qvf_from_contrast(michelson_contrast(split.pa, split.pb));
}

/// Validates a shard subset against the global point table: strictly
/// increasing indices, all in range. Sorted-unique input keeps shard record
/// order canonical (ascending global point index) by construction.
void validate_subset(std::span<const std::size_t> subset,
                     std::size_t num_points) {
  for (std::size_t s = 0; s < subset.size(); ++s) {
    require(subset[s] < num_points,
            "campaign subset: point index out of range");
    require(s == 0 || subset[s - 1] < subset[s],
            "campaign subset: point indices must be strictly increasing");
  }
}

std::vector<std::size_t> identity_subset(std::size_t n) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

/// Record storage of an exhaustive campaign: config idx of subset position
/// s lands in result.records[idx] or, under CampaignSpec::record_sink, in
/// slot idx - slice_begin[s] of a lazily allocated per-point buffer with an
/// atomic countdown of its unfinished configs. The lane that scores a
/// point's last config emits the whole buffer to the sink and frees it, so
/// engine memory is bounded by the records of in-flight points instead of
/// the whole campaign; zero-length slices never emit. The release
/// decrements / acquire final-decrement pair makes every lane's buffer
/// writes visible to the emitting lane.
class RecordSlots {
 public:
  RecordSlots(ResultBlockSink* sink, std::vector<InjectionRecord>& records,
              std::span<const std::size_t> slice_begin)
      : sink_(sink), records_(records), slice_begin_(slice_begin) {
    if (!sink_) {
      records_.resize(slice_begin_.back());
      return;
    }
    const std::size_t n = slice_begin_.size() - 1;
    buffers_.resize(n);
    once_ = std::make_unique<std::once_flag[]>(n);
    remaining_ = std::make_unique<std::atomic<std::size_t>[]>(n);
    for (std::size_t s = 0; s < n; ++s) {
      remaining_[s].store(slice_begin_[s + 1] - slice_begin_[s],
                          std::memory_order_relaxed);
    }
  }

  /// Safe to call concurrently for different configs.
  InjectionRecord& slot(std::size_t s, std::size_t idx) {
    if (!sink_) return records_[idx];
    std::call_once(once_[s], [&] {
      buffers_[s].resize(slice_begin_[s + 1] - slice_begin_[s]);
    });
    return buffers_[s][idx - slice_begin_[s]];
  }

  /// Marks one record of position s complete; emits and frees the point's
  /// buffer when it was the last.
  void complete(std::size_t s) {
    if (!sink_) return;
    if (remaining_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      sink_->emit(buffers_[s]);
      buffers_[s] = {};
    }
  }

 private:
  ResultBlockSink* sink_;
  std::vector<InjectionRecord>& records_;
  std::span<const std::size_t> slice_begin_;
  std::vector<std::vector<InjectionRecord>> buffers_;
  std::unique_ptr<std::once_flag[]> once_;
  std::unique_ptr<std::atomic<std::size_t>[]> remaining_;
};

}  // namespace

std::vector<InjectionPoint> stride_points(std::vector<InjectionPoint> points,
                                          std::size_t max_points) {
  if (max_points == 0 || points.size() <= max_points) return points;
  std::vector<InjectionPoint> kept;
  kept.reserve(max_points);
  // Integer striding: floor(k * N / M) is strictly increasing for M <= N,
  // so exactly M distinct in-range points are kept (the floating-point
  // stride this replaces could duplicate or skip points).
  for (std::size_t k = 0; k < max_points; ++k) {
    kept.push_back(points[k * points.size() / max_points]);
  }
  return kept;
}

transpile::TranspileResult campaign_transpile(const CampaignSpec& spec) {
  return transpile::transpile(spec.circuit, spec.backend,
                              spec.transpile_options);
}

std::vector<InjectionPoint> campaign_points(const CampaignSpec& spec) {
  const auto transpiled = campaign_transpile(spec);
  return stride_points(enumerate_injection_points(transpiled, spec.strategy),
                       spec.max_points);
}

std::vector<std::pair<InjectionPoint, int>> campaign_point_neighbor_pairs(
    const CampaignSpec& spec) {
  const auto transpiled = campaign_transpile(spec);
  const auto coupling = transpile::CouplingMap::from_backend(spec.backend);
  const auto points = stride_points(
      enumerate_injection_points(transpiled, spec.strategy), spec.max_points);
  std::vector<std::pair<InjectionPoint, int>> pairs;
  for (const auto& p : points) {
    for (int nb : neighbor_candidates(transpiled, coupling, p)) {
      pairs.emplace_back(p, nb);
    }
  }
  return pairs;
}

namespace {

constexpr const char* kNoPoints = "campaign: no injection points";

/// Single-fault config `rem` (phi-major over the grid) at a global point:
/// the one source of its fault gate and seed, addressed by the GLOBAL
/// (point, phi, theta) triple so results are independent of scheduling, of
/// batch composition and of sharding.
backend::SuffixConfig single_config(const CampaignSpec& spec,
                                    const InjectionPoint& point,
                                    std::size_t global_point,
                                    std::size_t rem) {
  const int num_theta = spec.grid.num_theta();
  const int phi_index = static_cast<int>(rem / num_theta);
  const int theta_index = static_cast<int>(rem % num_theta);
  const PhaseShiftFault fault{spec.grid.theta_at(theta_index),
                              spec.grid.phi_at(phi_index)};
  backend::SuffixConfig config;
  config.injected = {fault.as_instruction(point.qubit)};
  config.seed =
      config_seed(spec, global_point, static_cast<std::uint64_t>(phi_index),
                  static_cast<std::uint64_t>(theta_index), 0);
  return config;
}

/// Fills and scores the record of single-fault config `rem` at a global
/// point.
void fill_single_record(InjectionRecord& rec, const CampaignSpec& spec,
                        const Prepared& prep, std::size_t global_point,
                        std::size_t rem, std::span<const double> probs) {
  const int num_theta = spec.grid.num_theta();
  rec.point_index = static_cast<std::uint32_t>(global_point);
  rec.theta_index = static_cast<int>(rem % num_theta);
  rec.phi_index = static_cast<int>(rem / num_theta);
  score_record(rec, probs, prep.golden);
}

/// Single-fault source (§IV-B): subset position s owns its point's whole
/// (theta, phi) grid as slots [s x configs_per_point, (s + 1) x
/// configs_per_point). Subset entries are *global* indices into the point
/// table; seeds and record point_index fields use them, so disjoint subsets
/// union to exactly the full-campaign record set, while record slots stay
/// subset-local (compact shard output in ascending-point order).
CampaignResult single_campaign(const CampaignSpec& spec, Prepared& prep,
                               std::span<const std::size_t> subset) {
  const std::size_t configs_per_point =
      static_cast<std::size_t>(spec.grid.num_theta()) *
      static_cast<std::size_t>(spec.grid.num_phi());
  std::vector<std::size_t> slice_begin(subset.size() + 1);
  for (std::size_t s = 0; s <= subset.size(); ++s) {
    slice_begin[s] = s * configs_per_point;
  }
  CampaignResult result;
  RecordSlots slots(spec.record_sink, result.records, slice_begin);
  const auto make_config = [&](std::size_t s, std::size_t idx) {
    return single_config(spec, prep.points[subset[s]], subset[s],
                         idx - slice_begin[s]);
  };
  const auto fill = [&](std::size_t s, std::size_t idx,
                        std::span<const double> probs) {
    fill_single_record(slots.slot(s, idx), spec, prep, subset[s],
                       idx - slice_begin[s], probs);
    slots.complete(s);
  };
  execute(spec, prep, subset, slice_begin, kChunk1q,
          batch_sweep(spec, prep, make_config, fill));

  result.meta = base_metadata(spec, prep, slice_begin.back());
  result.meta.double_fault = false;
  result.points = std::move(prep.points);
  return result;
}

/// Adaptive single-fault source (CampaignSpec::adaptive): each subset point
/// is one executor work item that runs the adaptive estimator
/// (core/adaptive.hpp) from the point's snapshot, submitting the
/// estimator's batches with the exhaustive source's seeds. Batch
/// compositions are a pure function of the estimator's deterministic
/// request sequence, so records are bit-identical across reruns, thread
/// counts and shardings. Per-point record blocks are sorted into
/// grid-enumeration order before they are stored or emitted, keeping
/// merged-shard output canonical.
CampaignResult adaptive_campaign(const CampaignSpec& spec, Prepared& prep,
                                 std::span<const std::size_t> subset) {
  const AdaptivePolicy& policy = *spec.adaptive;
  validate_adaptive_policy(policy);

  CampaignResult result;
  result.point_estimates.resize(prep.points.size());
  std::vector<std::vector<InjectionRecord>> blocks(subset.size());
  std::atomic<std::uint64_t> executions{0};

  const auto run_point = [&](std::size_t s, std::size_t, std::size_t,
                             const backend::PrefixSnapshot& snapshot) {
    const std::size_t global_point = subset[s];
    const InjectionPoint& point = prep.points[global_point];
    auto& block = blocks[s];
    const AdaptiveBatchEval eval =
        [&](std::span<const std::uint32_t> rems) -> std::vector<double> {
      std::vector<backend::SuffixConfig> configs;
      configs.reserve(rems.size());
      for (const std::uint32_t rem : rems) {
        configs.push_back(single_config(spec, point, global_point, rem));
      }
      const auto runs = run_batch(spec, prep, snapshot, configs);
      std::vector<double> qvfs;
      qvfs.reserve(rems.size());
      for (std::size_t k = 0; k < runs.size(); ++k) {
        InjectionRecord& rec = block.emplace_back();
        fill_single_record(rec, spec, prep, global_point, rems[k],
                           runs[k].probabilities);
        qvfs.push_back(rec.qvf);
      }
      return qvfs;
    };

    const AdaptivePointEstimate estimate = run_adaptive_point(
        spec.grid, policy, spec.seed, global_point, eval);
    result.point_estimates[global_point] = estimate;
    executions.fetch_add(estimate.configs_evaluated,
                         std::memory_order_relaxed);
    std::sort(block.begin(), block.end(),
              [](const InjectionRecord& a, const InjectionRecord& b) {
                return std::pair(a.phi_index, a.theta_index) <
                       std::pair(b.phi_index, b.theta_index);
              });
    if (spec.record_sink) {
      spec.record_sink->emit(block);
      block = {};
    }
  };
  // One unit per point: the estimation loop is a single work item.
  execute(spec, prep, subset, identity_subset(subset.size() + 1), 1,
          run_point);

  if (!spec.record_sink) {
    for (auto& block : blocks) {
      result.records.insert(result.records.end(), block.begin(), block.end());
    }
  }
  result.meta =
      base_metadata(spec, prep, executions.load(std::memory_order_relaxed));
  result.meta.double_fault = false;
  result.meta.adaptive = true;
  result.meta.adaptive_policy = policy;
  result.points = std::move(prep.points);
  return result;
}

CampaignResult single_or_adaptive(const CampaignSpec& spec, Prepared& prep,
                                  std::span<const std::size_t> subset) {
  validate_subset(subset, prep.points.size());
  return spec.adaptive ? adaptive_campaign(spec, prep, subset)
                       : single_campaign(spec, prep, subset);
}

/// Double-fault source (§IV-C; see single_campaign for the sharding
/// contract). The flat config list is enumerated over ALL points so every
/// config knows its global flat index — the seed input — and then filtered
/// to the subset's points; each subset point owns one contiguous slice of
/// it (the full primary x secondary grid over every coupled neighbor).
CampaignResult double_campaign(const CampaignSpec& spec, Prepared& prep,
                               std::span<const std::size_t> subset,
                               bool require_neighbors) {
  require(!spec.adaptive,
          "campaign: adaptive estimation supports single-fault campaigns "
          "only");
  validate_subset(subset, prep.points.size());
  std::vector<char> in_subset(prep.points.size(), 0);
  for (const std::size_t g : subset) in_subset[g] = 1;

  // Flatten (point, neighbor, theta0, phi0, theta1 <= theta0, phi1 <= phi0)
  // over all points, keeping only the subset's configs. `global_index` is
  // the position in the full enumeration — the seed stays sharding-
  // independent even though the kept list is compact.
  struct Config {
    std::uint64_t global_index;
    std::uint32_t point_index;
    std::int32_t neighbor;
    std::int32_t theta_index, phi_index;
    std::int32_t theta1_index, phi1_index;
  };
  std::vector<Config> configs;
  std::uint64_t global_index = 0;
  bool any_neighbors = false;
  for (std::size_t p = 0; p < prep.points.size(); ++p) {
    const auto neighbors =
        neighbor_candidates(prep.transpiled, prep.coupling, prep.points[p]);
    if (!neighbors.empty()) any_neighbors = true;
    for (int nb : neighbors) {
      for (int j0 = 0; j0 < spec.grid.num_phi(); ++j0) {
        for (int i0 = 0; i0 < spec.grid.num_theta(); ++i0) {
          for (int j1 = 0; j1 <= j0; ++j1) {
            for (int i1 = 0; i1 <= i0; ++i1) {
              if (in_subset[p]) {
                configs.push_back(Config{global_index,
                                         static_cast<std::uint32_t>(p), nb,
                                         i0, j0, i1, j1});
              }
              ++global_index;
            }
          }
        }
      }
    }
  }
  require(!require_neighbors || any_neighbors,
          "double campaign: no coupled active neighbors (check topology)");

  // The list is ordered by point: slice s spans the configs of subset[s].
  std::vector<std::size_t> slice_begin(subset.size() + 1, 0);
  std::vector<std::size_t> subset_pos(prep.points.size(), 0);
  for (std::size_t s = 0; s < subset.size(); ++s) subset_pos[subset[s]] = s;
  for (const Config& cfg : configs) {
    ++slice_begin[subset_pos[cfg.point_index] + 1];
  }
  for (std::size_t s = 0; s < subset.size(); ++s) {
    slice_begin[s + 1] += slice_begin[s];
  }

  CampaignResult result;
  RecordSlots slots(spec.record_sink, result.records, slice_begin);
  const auto make_config = [&](std::size_t, std::size_t idx) {
    const Config& cfg = configs[idx];
    const InjectionPoint& point = prep.points[cfg.point_index];
    const PhaseShiftFault primary{spec.grid.theta_at(cfg.theta_index),
                                  spec.grid.phi_at(cfg.phi_index)};
    const PhaseShiftFault secondary{spec.grid.theta_at(cfg.theta1_index),
                                    spec.grid.phi_at(cfg.phi1_index)};
    backend::SuffixConfig sc;
    sc.injected = {primary.as_instruction(point.qubit),
                   secondary.as_instruction(cfg.neighbor)};
    sc.seed = config_seed(spec, cfg.global_index, cfg.point_index,
                          static_cast<std::uint64_t>(cfg.theta_index),
                          static_cast<std::uint64_t>(cfg.phi_index));
    return sc;
  };
  const auto fill = [&](std::size_t s, std::size_t idx,
                        std::span<const double> probs) {
    const Config& cfg = configs[idx];
    InjectionRecord& rec = slots.slot(s, idx);
    rec.point_index = cfg.point_index;
    rec.theta_index = cfg.theta_index;
    rec.phi_index = cfg.phi_index;
    rec.neighbor_qubit = cfg.neighbor;
    rec.theta1_index = cfg.theta1_index;
    rec.phi1_index = cfg.phi1_index;
    score_record(rec, probs, prep.golden);
    slots.complete(s);
  };
  execute(spec, prep, subset, slice_begin, kChunk2q,
          batch_sweep(spec, prep, make_config, fill));

  result.meta = base_metadata(spec, prep, configs.size());
  result.meta.double_fault = true;
  result.points = std::move(prep.points);
  return result;
}

}  // namespace

CampaignResult run_single_fault_campaign(const CampaignSpec& spec) {
  Prepared prep = prepare(spec, kNoPoints);
  return single_or_adaptive(spec, prep, identity_subset(prep.points.size()));
}

CampaignResult run_single_fault_campaign_subset(
    const CampaignSpec& spec, std::span<const std::size_t> point_indices) {
  Prepared prep = prepare(spec, kNoPoints);
  return single_or_adaptive(spec, prep, point_indices);
}

CampaignResult run_double_fault_campaign(const CampaignSpec& spec) {
  Prepared prep = prepare(spec, kNoPoints);
  return double_campaign(spec, prep, identity_subset(prep.points.size()),
                         /*require_neighbors=*/true);
}

CampaignResult run_double_fault_campaign_subset(
    const CampaignSpec& spec, std::span<const std::size_t> point_indices) {
  Prepared prep = prepare(spec, kNoPoints);
  return double_campaign(spec, prep, point_indices,
                         /*require_neighbors=*/false);
}

std::vector<NamedFaultQvf> run_named_fault_campaign(
    const CampaignSpec& spec, std::span<const NamedFault> faults) {
  require(!spec.adaptive,
          "campaign: adaptive estimation supports single-fault campaigns "
          "only");
  Prepared prep = prepare(spec, "named-fault campaign: no injection points");

  // Named source: point p owns one slice of every named fault, swept as a
  // single chunk (one batch per point).
  const std::size_t num_points = prep.points.size();
  std::vector<std::size_t> slice_begin(num_points + 1);
  for (std::size_t p = 0; p <= num_points; ++p) {
    slice_begin[p] = p * faults.size();
  }
  std::vector<std::vector<double>> qvfs(faults.size(),
                                        std::vector<double>(num_points, 0.0));
  const auto make_config = [&](std::size_t p, std::size_t idx) {
    const std::size_t f = idx - slice_begin[p];
    backend::SuffixConfig config;
    config.injected = {faults[f].fault.as_instruction(prep.points[p].qubit)};
    config.seed = config_seed(spec, f, p, 0, 1);
    return config;
  };
  const auto fill = [&](std::size_t p, std::size_t idx,
                        std::span<const double> probs) {
    qvfs[idx - slice_begin[p]][p] = compute_qvf(probs, prep.golden);
  };
  execute(spec, prep, identity_subset(num_points), slice_begin,
          std::max<std::size_t>(faults.size(), 1),
          batch_sweep(spec, prep, make_config, fill));

  std::vector<NamedFaultQvf> out;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    NamedFaultQvf entry;
    entry.fault_name = faults[f].name;
    entry.mean_qvf = util::mean_of(qvfs[f]);
    entry.executions = num_points;
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace qufi
