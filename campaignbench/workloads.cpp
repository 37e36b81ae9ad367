#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "algorithms/algorithms.hpp"
#include "core/campaign.hpp"
#include "core/injection.hpp"
#include "core/qvf.hpp"
#include "dist/manifest.hpp"
#include "dist/shard_runner.hpp"
#include "noise/noise_model.hpp"
#include "service/clock.hpp"
#include "service/dispatcher.hpp"
#include "service/submission.hpp"
#include "util/binary_io.hpp"
#include "trace.hpp"
#include "traced_backend.hpp"

namespace campaignbench {

namespace {

namespace fs = std::filesystem;
using qufi::CampaignResult;
using qufi::CampaignSpec;

double seconds_since(std::int64_t start_ns) {
  return 1e-9 * static_cast<double>(now_ns() - start_ns);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

class Fnv {
 public:
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t records_digest(const CampaignResult& result) {
  Fnv f;
  for (const auto& r : result.records) {
    f.add_value(r.point_index);
    f.add_value(r.theta_index);
    f.add_value(r.phi_index);
    f.add_value(r.neighbor_qubit);
    f.add_value(r.theta1_index);
    f.add_value(r.phi1_index);
    f.add_value(std::bit_cast<std::uint64_t>(r.qvf));
    f.add_value(std::bit_cast<std::uint64_t>(r.pa));
    f.add_value(std::bit_cast<std::uint64_t>(r.pb));
  }
  for (const auto& e : result.point_estimates) {
    f.add_value(e.configs_evaluated);
    f.add_value(std::bit_cast<std::uint64_t>(e.ci_halfwidth));
    f.add_value(std::bit_cast<std::uint64_t>(e.est_qvf));
  }
  return f.value();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Sums over the spans named `name`.
struct Totals {
  double calls = 0.0, seconds = 0.0, items = 0.0, allocs = 0.0;
};

Totals totals(const std::vector<Span>& spans, std::string_view name) {
  Totals t;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    t.calls += 1.0;
    t.seconds += s.seconds();
    t.items += static_cast<double>(s.items);
    t.allocs += static_cast<double>(s.allocs);
  }
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Backend-layer and core-layer numbers of one traced campaign that ran
/// `threads` lanes for `wall_s` seconds.
void add_backend_metrics(const std::vector<Span>& spans,
                         const TracedBackend& backend, int threads,
                         double wall_s, LayerMetrics& m) {
  const Totals prep = totals(spans, "backend.prepare_prefix");
  const Totals ext = totals(spans, "backend.extend_snapshot");
  const Totals batch = totals(spans, "backend.run_suffix_batch");
  const Totals run = totals(spans, "backend.run");
  const Totals suffix = totals(spans, "backend.run_suffix");
  m["core.campaign_s"] = wall_s;
  const double busy = prep.seconds + ext.seconds + batch.seconds +
                      run.seconds + suffix.seconds;
  m["core.outside_backend_share"] = 1.0 - ratio(busy, threads * wall_s);
  m["backend.prepare_prefix.calls"] = prep.calls;
  m["backend.prepare_prefix.s"] = prep.seconds;
  m["backend.extend_snapshot.calls"] = ext.calls;
  m["backend.extend_snapshot.gates"] = ext.items;
  m["backend.extend_snapshot.s"] = ext.seconds;
  m["backend.run_suffix_batch.calls"] = batch.calls;
  m["backend.run_suffix_batch.configs"] = batch.items;
  m["backend.run_suffix_batch.s"] = batch.seconds;
  m["backend.run_suffix_batch.ns_per_config"] =
      1e9 * ratio(batch.seconds, batch.items);
  m["backend.response_path_share"] =
      ratio(static_cast<double>(backend.response_path_configs()), batch.items);
  m["backend.allocs_per_config"] = ratio(batch.allocs, batch.items);
  m["backend.run.calls"] = run.calls;
  m["backend.run.s"] = run.seconds;
  m["backend.run_suffix.calls"] = suffix.calls;
}

/// Largest |engine QVF - oracle QVF| over a seed-drawn sample of the
/// campaign's records, where the oracle is Backend::run of the spliced
/// faulty circuit on a fresh density backend (full re-simulation).
double oracle_max_error(const CampaignSpec& spec,
                        const qufi::circ::QuantumCircuit& transpiled,
                        const CampaignResult& result) {
  constexpr int kSample = 256;
  const auto golden = qufi::golden_from_expected(spec.expected_outputs,
                                                 spec.circuit.num_clbits());
  qufi::backend::DensityMatrixBackend oracle(
      qufi::noise::NoiseModel::from_backend(spec.backend, spec.noise_scale),
      spec.idle_noise);
  const auto& records = result.records;
  if (records.empty()) return 0.0;
  std::mt19937_64 rng(spec.seed);
  std::uniform_int_distribution<std::size_t> pick(0, records.size() - 1);
  double err = 0.0;
  for (int k = 0; k < kSample; ++k) {
    const auto& rec = records[pick(rng)];
    const auto& point = result.points[rec.point_index];
    const qufi::PhaseShiftFault primary{spec.grid.theta_at(rec.theta_index),
                                        spec.grid.phi_at(rec.phi_index)};
    const auto faulty =
        rec.neighbor_qubit < 0
            ? qufi::inject_fault(transpiled, point, primary)
            : qufi::inject_double_fault(
                  transpiled, point, primary, rec.neighbor_qubit,
                  {spec.grid.theta_at(rec.theta1_index),
                   spec.grid.phi_at(rec.phi1_index)});
    const double qvf = qufi::compute_qvf(
        oracle.run(faulty, spec.shots, spec.seed).probabilities, golden);
    err = std::max(err, std::abs(qvf - rec.qvf));
  }
  return err;
}

/// The 1e-9 QVF parity bound against the re-simulation oracle.
std::string oracle_problem(double err) {
  if (err <= 1e-9) return "";
  return "QVF differs from the re-simulation oracle by " + std::to_string(err);
}

CampaignSpec paper_spec(const std::string& circuit, int width,
                        const WorkloadOptions& options) {
  const auto bench = qufi::algo::paper_circuit(circuit, width);
  CampaignSpec spec;
  spec.circuit = bench.circuit;
  spec.expected_outputs = bench.expected_outputs;
  spec.backend = qufi::noise::fake_casablanca();
  spec.transpile_options.optimization_level = 3;
  spec.grid.theta_step_deg = 15.0;
  spec.grid.phi_step_deg = 15.0;
  spec.seed = options.seed;
  spec.threads = options.threads;
  return spec;
}

/// Shared shape of the two in-process workloads: set-up is building the
/// spec plus one campaign_transpile, the campaign is one run_*_campaign
/// call.
class InProcessWorkload : public Workload {
 public:
  explicit InProcessWorkload(WorkloadOptions options)
      : options_(std::move(options)) {}

  RepResult run(bool traced) override {
    RepResult rep;
    rep.attempted = 1;
    const std::int64_t setup_start = now_ns();
    double transpile_s = 0.0;
    CampaignSpec spec = set_up(transpile_s);
    rep.setup_s = seconds_since(setup_start);

    std::optional<TracedBackend> backend;
    if (traced) {
      backend.emplace(spec);
      spec.backend_override = &*backend;
    }
    CampaignResult result;
    {
      Scope span("core.campaign");
      set_root_span(span.id());
      const double cpu0 = process_cpu_s();
      const std::int64_t t = now_ns();
      result = execute(spec);
      rep.campaign_s = seconds_since(t);
      rep.cpu_s = process_cpu_s() - cpu0;
      set_root_span(0);
    }
    rep.configs_answered = answered_configs(spec, result);
    rep.digest = records_digest(result);
    if (traced) {
      rep.spans = take_spans();
      rep.layers["transpile.s"] = transpile_s;
      add_backend_metrics(rep.spans, *backend, spec.threads, rep.campaign_s,
                          rep.layers);
      add_estimator_metrics(spec, result, rep.layers);
    }
    if (!first_) first_ = std::move(result);
    return rep;
  }

  double time_setup() override {
    const std::int64_t start = now_ns();
    double transpile_s = 0.0;
    set_up(transpile_s);
    return seconds_since(start);
  }

  double qvf_abs_err_max() const override { return err_max_; }

 protected:
  /// The set-up of one campaign: its spec and one campaign_transpile.
  CampaignSpec set_up(double& transpile_s) {
    CampaignSpec spec = make_spec();
    Scope span("transpile.campaign_transpile");
    const std::int64_t t = now_ns();
    transpiled_ = qufi::campaign_transpile(spec);
    transpile_s = seconds_since(t);
    return spec;
  }

  virtual CampaignSpec make_spec() const = 0;
  virtual CampaignResult execute(const CampaignSpec& spec) const = 0;
  virtual std::uint64_t answered_configs(const CampaignSpec& /*spec*/,
                                         const CampaignResult& result) const {
    return result.meta.executions;
  }
  virtual void add_estimator_metrics(const CampaignSpec& /*spec*/,
                                     const CampaignResult& /*result*/,
                                     LayerMetrics& /*m*/) const {}

  WorkloadOptions options_;
  qufi::transpile::TranspileResult transpiled_;  ///< the campaign's circuit
  std::optional<CampaignResult> first_;  ///< first rep's answer, for verify
  double err_max_ = 0.0;
};

/// Paper Fig. 8: bv4 double faults on fake_casablanca, 15-degree grid with
/// phi_max 180, every injection point.
class DoubleFault final : public InProcessWorkload {
 public:
  using InProcessWorkload::InProcessWorkload;

  /// Engine QVF vs Backend::run on the spliced faulty circuit (the full
  /// re-simulation oracle), on a sample of configs drawn from the seed.
  std::string verify() override {
    if (!first_) return "no campaign ran";
    if (first_->records.size() != first_->meta.executions) {
      return "record count differs from executions";
    }
    err_max_ = oracle_max_error(make_spec(), transpiled_.circuit, *first_);
    return oracle_problem(err_max_);
  }

 private:
  CampaignSpec make_spec() const override {
    CampaignSpec spec = paper_spec("bv", 4, options_);
    spec.grid.phi_max_deg = 180.0;
    if (options_.smoke) spec.max_points = 2;
    return spec;
  }
  CampaignResult execute(const CampaignSpec& spec) const override {
    return qufi::run_double_fault_campaign(spec);
  }
};

/// Section IV-B single faults on qft6 through the adaptive estimator
/// (default policy, probe seed from the workload seed).
class AdaptiveSingle final : public InProcessWorkload {
 public:
  using InProcessWorkload::InProcessWorkload;

  /// Per-point estimate vs the exhaustive grid-mean QVF of an untimed
  /// exhaustive run; the test_adaptive accuracy gate (<= 0.01).
  std::string verify() override {
    if (!first_) return "no campaign ran";
    CampaignSpec spec = make_spec();
    spec.adaptive.reset();
    const std::int64_t t = now_ns();
    const CampaignResult reference = qufi::run_single_fault_campaign(spec);
    // The exhaustive sweep of the same campaign, for the cost comparison.
    std::fprintf(stderr,
                 "campaignbench: adaptive_single: exhaustive reference took "
                 "%.3f s for %llu configs\n",
                 seconds_since(t),
                 static_cast<unsigned long long>(reference.meta.executions));
    std::vector<double> sum(reference.points.size(), 0.0);
    std::vector<std::uint64_t> count(reference.points.size(), 0);
    for (const auto& r : reference.records) {
      sum[r.point_index] += r.qvf;
      ++count[r.point_index];
    }
    if (first_->point_estimates.size() != sum.size()) {
      return "adaptive run has no estimate for every point";
    }
    err_max_ = 0.0;
    std::size_t worst = 0;
    for (std::size_t p = 0; p < sum.size(); ++p) {
      if (count[p] == 0) return "reference point without records";
      const double err = std::abs(first_->point_estimates[p].est_qvf -
                                  sum[p] / static_cast<double>(count[p]));
      if (err > err_max_) {
        err_max_ = err;
        worst = p;
      }
    }
    if (!(err_max_ <= 0.01)) {
      const auto& e = first_->point_estimates[worst];
      return "estimate error " + std::to_string(err_max_) +
             " above 0.01 at point " + std::to_string(worst) + " (" +
             std::to_string(e.configs_evaluated) +
             " configs evaluated, reported ci_halfwidth " +
             std::to_string(e.ci_halfwidth) + ")";
    }
    return "";
  }

 private:
  CampaignSpec make_spec() const override {
    CampaignSpec spec = paper_spec("qft", 6, options_);
    qufi::AdaptivePolicy policy;
    policy.seed = options_.seed;
    spec.adaptive = policy;
    if (options_.smoke) spec.max_points = 8;
    return spec;
  }
  CampaignResult execute(const CampaignSpec& spec) const override {
    return qufi::run_single_fault_campaign(spec);
  }
  std::uint64_t answered_configs(const CampaignSpec& spec,
                                 const CampaignResult& result) const override {
    return result.points.size() *
           static_cast<std::uint64_t>(spec.grid.num_configs());
  }
  void add_estimator_metrics(const CampaignSpec& spec,
                             const CampaignResult& result,
                             LayerMetrics& m) const override {
    const double points = static_cast<double>(result.points.size());
    const double executed = static_cast<double>(result.meta.executions);
    m["adaptive.configs_evaluated"] = executed;
    m["adaptive.grid_fraction"] =
        ratio(executed, points * spec.grid.num_configs());
    m["adaptive.batches_per_point"] =
        ratio(m["backend.run_suffix_batch.calls"], points);
  }
};

/// Section IV-B single faults on qft6, run the way qufid runs a campaign:
/// plan_submission (8 shards, cost policy), a journaled Dispatcher, and
/// benchmark-owned workers looping acquire -> dist::run_shard -> complete
/// until the last complete merges the final CSV.
class ShardedSingle final : public Workload {
 public:
  explicit ShardedSingle(WorkloadOptions options)
      : options_(std::move(options)) {}

  ~ShardedSingle() override {
    std::error_code ec;
    fs::remove_all(base_dir_, ec);
  }

  RepResult run(bool traced) override {
    // One fresh dispatcher and spool per rep under fixed names, so journal
    // and partial sizes repeat exactly from rep to rep.
    const std::string dir = base_dir_ + "/rep";
    RepResult rep;
    const std::int64_t setup_start = now_ns();
    Submitted sub = set_up(dir);
    rep.setup_s = seconds_since(setup_start);
    const qufi::service::CampaignJob& job = sub.job;
    const CampaignSpec& spec = sub.spec;

    const int workers = std::max(1, options_.threads);
    std::vector<std::int64_t> idle_since(workers, 0);
    std::atomic<std::int64_t> done_ns{0};
    std::atomic<std::uint64_t> failed_attempts{0};
    double cpu0 = 0.0;
    std::int64_t start = 0;
    {
      Scope campaign_span("service.campaign");
      set_root_span(campaign_span.id());
      cpu0 = process_cpu_s();
      start = now_ns();
      std::vector<std::thread> pool;
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
          worker_loop(*sub.dispatcher, w, idle_since[w], done_ns,
                      failed_attempts);
        });
      }
      for (auto& t : pool) t.join();
      set_root_span(0);
    }
    rep.cpu_s = process_cpu_s() - cpu0;
    if (done_ns.load() == 0) done_ns.store(now_ns());
    rep.campaign_s = 1e-9 * static_cast<double>(done_ns.load() - start);
    rep.configs_answered =
        qufi::single_campaign_executions(sub.points, spec.grid);
    if (!reference_spec_) reference_spec_ = spec;

    const auto status = sub.dispatcher->campaign_status(sub.request.name);
    std::uint64_t attempts = 0, quarantined = 0;
    for (const auto& shard : status.shards) {
      attempts += shard.attempts;
      quarantined += shard.quarantined;
    }
    rep.attempted = attempts;
    rep.failed = std::min<std::uint64_t>(
        attempts, failed_attempts.load() + status.requeues + quarantined);
    if (status.state != qufi::service::CampaignState::Completed) {
      rep.failed = attempts;
    } else {
      const std::string csv = read_file(sub.request.csv_path);
      rep.digest = qufi::util::fnv1a64(csv);
      if (!first_csv_digest_) first_csv_digest_ = rep.digest;
    }
    const double journal_bytes =
        static_cast<double>(fs::file_size(sub.journal_path));
    sub.dispatcher.reset();

    if (traced) {
      rep.spans = take_spans();
      LayerMetrics& m = rep.layers;
      m["transpile.s"] = sub.transpile_s;
      m["dist.plan_s"] = sub.plan_s;
      m["service.submit_s"] = sub.submit_s;
      add_service_metrics(rep.spans, workers, done_ns.load(), idle_since, m);
      m["service.journal_bytes"] = journal_bytes;
      m["service.requeues"] = status.requeues;
      attribute_backend(job, spec, rep);
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    return rep;
  }

  double time_setup() override {
    const std::string dir = base_dir_ + "/setup";
    const std::int64_t start = now_ns();
    Submitted sub = set_up(dir);
    const double s = seconds_since(start);
    sub.dispatcher.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    return s;
  }

  /// The merged CSV must be byte-identical to the in-process campaign's
  /// CSV, and every traced in-process replay of the shard manifests must
  /// reproduce the in-process records bit for bit.
  std::string verify() override {
    if (!first_csv_digest_ || !reference_spec_) return "no campaign completed";
    const std::string dir = base_dir_ + "/reference";
    fs::create_directories(dir);
    CampaignSpec spec = *reference_spec_;
    // Untimed, so it may use every core; the records do not depend on the
    // thread count.
    spec.threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    const CampaignResult reference = qufi::run_single_fault_campaign(spec);
    reference.write_csv(dir + "/campaign.csv");
    const std::uint64_t expected = qufi::util::fnv1a64(read_file(dir + "/campaign.csv"));
    if (expected != *first_csv_digest_) {
      return "merged CSV differs from the in-process campaign CSV";
    }
    const std::uint64_t records = records_digest(reference);
    for (const std::uint64_t d : replay_digests_) {
      if (d != records) return "traced shard replay differs from the campaign";
    }
    err_max_ = oracle_max_error(spec, qufi::campaign_transpile(spec).circuit,
                                reference);
    return oracle_problem(err_max_);
  }

  double qvf_abs_err_max() const override { return err_max_; }

 private:
  /// A planned campaign submitted to a fresh journaled dispatcher.
  struct Submitted {
    qufi::service::CampaignRequest request;
    qufi::service::CampaignJob job;
    CampaignSpec spec;
    std::size_t points = 0;
    std::string journal_path;
    std::unique_ptr<qufi::service::Dispatcher> dispatcher;
    double plan_s = 0.0, transpile_s = 0.0, submit_s = 0.0;
  };

  /// The set-up of one campaign, spooled under `dir`: plan_submission, the
  /// campaign's transpile, a Dispatcher with its journal, and submit.
  Submitted set_up(const std::string& dir) {
    fs::create_directories(dir);
    Submitted sub;
    qufi::service::CampaignRequest& request = sub.request;
    request.name = "sharded_single";
    request.circuit = "qft";
    request.width = 6;
    request.device = "casablanca";
    request.opt_level = 3;
    request.theta_step = 15.0;
    request.phi_step = 15.0;
    request.seed = options_.seed;
    request.shards = options_.smoke ? 4 : 8;
    request.policy = "cost";
    request.max_points = options_.smoke ? 16 : 0;
    request.csv_path = dir + "/campaign.csv";
    {
      Scope span("dist.plan_submission");
      const std::int64_t t = now_ns();
      sub.job = qufi::service::plan_submission(request);
      sub.plan_s = seconds_since(t);
    }
    sub.spec = qufi::dist::manifest_to_spec(sub.job.manifests.front());
    {
      Scope span("transpile.campaign_transpile");
      const std::int64_t t = now_ns();
      sub.points = qufi::campaign_points(sub.spec).size();
      sub.transpile_s = seconds_since(t);
    }
    qufi::service::DispatcherOptions dispatcher_options;
    dispatcher_options.work_dir = dir;
    dispatcher_options.journal_path = dir + "/qufid.journal";
    // Workers here never heartbeat (qufid's supervisor does); a lease
    // timeout far above any shard's run time keeps a slow host from
    // requeueing live work.
    dispatcher_options.lease_timeout_ms = 600'000;
    sub.journal_path = dispatcher_options.journal_path;
    sub.dispatcher = std::make_unique<qufi::service::Dispatcher>(
        dispatcher_options, clock_);
    {
      Scope span("service.submit");
      const std::int64_t t = now_ns();
      sub.dispatcher->submit(sub.job);
      sub.submit_s = seconds_since(t);
    }
    return sub;
  }

  void worker_loop(qufi::service::Dispatcher& dispatcher, int index,
                   std::int64_t& idle_since, std::atomic<std::int64_t>& done_ns,
                   std::atomic<std::uint64_t>& failed_attempts) {
    const std::string id = "worker-" + std::to_string(index);
    while (true) {
      std::optional<qufi::service::ShardLease> lease;
      {
        Scope span("service.acquire");
        lease = dispatcher.acquire(id);
        span.set_items(lease ? 1 : 0);
      }
      if (!lease) {
        if (idle_since == 0) idle_since = now_ns();
        if (dispatcher.idle()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      idle_since = 0;
      try {
        qufi::dist::ShardRunOptions run;
        run.threads = 1;
        run.columnar_output_path = lease->output_path;
        run.columnar_live = true;
        {
          Scope span("dist.run_shard");
          span.set_items(qufi::dist::run_shard(lease->manifest, run).partial_bytes);
        }
        Scope span("service.complete");
        dispatcher.complete(lease->id);
        if (dispatcher.idle()) {
          span.set_items(1);  // this complete merged and wrote the CSV
          done_ns.store(now_ns());
        }
      } catch (const std::exception& e) {
        failed_attempts.fetch_add(1);
        dispatcher.fail(lease->id, e.what());
        if (dispatcher.idle()) done_ns.store(now_ns());
      }
    }
  }

  void add_service_metrics(const std::vector<Span>& spans, int workers,
                           std::int64_t done_ns,
                           const std::vector<std::int64_t>& idle_since,
                           LayerMetrics& m) const {
    double acquire_calls = 0.0, acquire_s = 0.0, finalize_s = 0.0;
    double shard_max = 0.0;
    for (const Span& s : spans) {
      const std::string_view name = s.name;
      if (name == "service.acquire" && s.items == 1) {
        acquire_calls += 1.0;
        acquire_s += s.seconds();
      } else if (name == "service.complete" && s.items == 1) {
        finalize_s = s.seconds();
      } else if (name == "dist.run_shard") {
        shard_max = std::max(shard_max, s.seconds());
      }
    }
    const Totals shard = totals(spans, "dist.run_shard");
    const Totals complete = totals(spans, "service.complete");
    m["dist.run_shard.calls"] = shard.calls;
    m["dist.run_shard.s"] = shard.seconds;
    m["dist.shard_imbalance"] = ratio(shard_max, ratio(shard.seconds, shard.calls));
    m["dist.partial_bytes"] = shard.items;
    m["service.acquire.calls"] = acquire_calls;
    m["service.acquire.s"] = acquire_s;
    m["service.complete.calls"] = complete.calls;
    m["service.complete.s"] = complete.seconds;
    m["service.finalize_s"] = finalize_s;
    double tail_idle = 0.0;
    for (int w = 0; w < workers; ++w) {
      if (idle_since[w] != 0 && idle_since[w] < done_ns) {
        tail_idle += 1e-9 * static_cast<double>(done_ns - idle_since[w]);
      }
    }
    m["service.tail_idle_s"] = tail_idle;
  }

  /// Backend and core numbers for the sharded campaign: dist::run_shard
  /// builds its backend internally, so the same manifests are replayed in
  /// process (manifest_to_spec + run_single_fault_campaign_subset) through
  /// TracedBackend, with the same worker count and one engine thread each.
  void attribute_backend(const qufi::service::CampaignJob& job,
                         const CampaignSpec& spec, RepResult& rep) {
    TracedBackend backend(spec);
    std::vector<CampaignResult> parts(job.manifests.size());
    std::atomic<std::size_t> next{0};
    double wall_s = 0.0;
    const int workers = std::max(1, options_.threads);
    {
      Scope span("core.campaign");
      set_root_span(span.id());
      const std::int64_t t = now_ns();
      std::vector<std::thread> pool;
      for (int w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
          for (std::size_t i; (i = next.fetch_add(1)) < job.manifests.size();) {
            CampaignSpec shard = qufi::dist::manifest_to_spec(job.manifests[i]);
            shard.threads = 1;
            shard.backend_override = &backend;
            parts[i] = qufi::run_single_fault_campaign_subset(
                shard, job.manifests[i].point_indices);
          }
        });
      }
      for (auto& th : pool) th.join();
      wall_s = seconds_since(t);
      set_root_span(0);
    }
    std::vector<Span> spans = take_spans();
    add_backend_metrics(spans, backend, workers, wall_s, rep.layers);
    rep.spans.insert(rep.spans.end(), spans.begin(), spans.end());

    CampaignResult merged = parts.front();
    merged.records.clear();
    for (const auto& part : parts) {
      merged.records.insert(merged.records.end(), part.records.begin(),
                            part.records.end());
    }
    std::stable_sort(merged.records.begin(), merged.records.end(),
                     [](const auto& a, const auto& b) {
                       return a.point_index < b.point_index;
                     });
    replay_digests_.push_back(records_digest(merged));
  }

  WorkloadOptions options_;
  qufi::service::SystemClock clock_;
  std::string base_dir_ = options_.work_dir + "/sharded_single";
  std::optional<CampaignSpec> reference_spec_;  ///< the planned campaign
  std::optional<std::uint64_t> first_csv_digest_;
  std::vector<std::uint64_t> replay_digests_;
  double err_max_ = 0.0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "double_fault", "sharded_single", "adaptive_single"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "double_fault") return std::make_unique<DoubleFault>(options);
  if (name == "sharded_single") return std::make_unique<ShardedSingle>(options);
  if (name == "adaptive_single") {
    return std::make_unique<AdaptiveSingle>(options);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace campaignbench
