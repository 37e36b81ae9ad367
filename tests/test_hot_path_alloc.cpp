// Allocation invariants of the per-config batched suffix path, and the
// error messages of the checks that moved off qufi::require.
//
// This executable replaces the global allocation functions with ones that
// bump a per-thread counter, so every assertion below is an exact count of
// heap allocations made by the measured call. run_suffix_batch may allocate per config only
// the returned result's `probabilities` vector and its `backend_name`
// string; everything else (compiled suffix, response basis, scratch) is
// per batch or cached on the snapshot. The per-config cost is measured as
// the slope between two batch sizes, which cancels the per-batch constant.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "algorithms/algorithms.hpp"
#include "backend/density_backend.hpp"
#include "circuit/gate.hpp"
#include "core/campaign.hpp"
#include "core/fault_model.hpp"
#include "core/injection.hpp"
#include "noise/backend_props.hpp"
#include "noise/noise_model.hpp"
#include "sim/density_matrix.hpp"
#include "util/error.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  ++t_allocs;
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

std::size_t to_size(std::align_val_t align) {
  return static_cast<std::size_t>(align);
}
}  // namespace

// Every replaceable form is replaced, so each allocation pairs malloc with
// free whichever form releases it; sanitizer builds check that pairing.
void* operator new(std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, to_size(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, to_size(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, to_size(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, to_size(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qufi {
namespace {

/// Allocations the returned result of one config may own: its
/// probabilities vector and its backend_name string.
constexpr std::uint64_t kAllocsPerConfig = 2;
/// Bound on the per-batch constant (config bookkeeping vectors, the scratch
/// density matrix, arena blocks, the results vector).
constexpr std::uint64_t kAllocsPerBatch = 16;

/// bv4 on fake_casablanca with a snapshot in the middle of the circuit.
struct HotPath {
  CampaignSpec spec;
  transpile::TranspileResult transpiled;
  backend::DensityMatrixBackend backend;
  InjectionPoint point;
  backend::PrefixSnapshotPtr snapshot;

  explicit HotPath(bool idle_noise = false)
      : spec(make_spec()),
        transpiled(campaign_transpile(spec)),
        backend(noise::NoiseModel::from_backend(spec.backend, 1.0),
                idle_noise) {
    const auto points = enumerate_injection_points(
        transpiled, InjectionStrategy::OperandsAfterEachGate);
    point = points[points.size() / 2];
    snapshot = backend.prepare_prefix(transpiled.circuit, point.split_index());
  }

  static CampaignSpec make_spec() {
    const auto bench = algo::paper_circuit("bv", 4);
    CampaignSpec spec;
    spec.circuit = bench.circuit;
    spec.expected_outputs = bench.expected_outputs;
    return spec;
  }

  /// An active physical qubit other than the injection point's own.
  int neighbor() const {
    for (const int q : transpiled.circuit.active_qubits()) {
      if (q != point.qubit) return q;
    }
    return point.qubit;
  }

  /// `n` single faults on the injection point's qubit, or double faults on
  /// (point qubit, neighbor) when `two_qubit`. Each primary fault repeats
  /// over `primary_run` consecutive configs (1 = all distinct).
  std::vector<backend::SuffixConfig> configs(
      std::size_t n, bool two_qubit, std::size_t primary_run = 1) const {
    std::vector<backend::SuffixConfig> out;
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = static_cast<double>(i / primary_run);
      const PhaseShiftFault primary{0.01 * (p + 1), 0.02 * p};
      backend::SuffixConfig config{{primary.as_instruction(point.qubit)}, i};
      if (two_qubit) {
        const PhaseShiftFault secondary{0.03 * static_cast<double>(i), 0.5};
        config.injected.push_back(secondary.as_instruction(neighbor()));
      }
      out.push_back(std::move(config));
    }
    return out;
  }

  /// Heap allocations made by one run_suffix_batch over the first n configs.
  std::uint64_t batch_allocs(const std::vector<backend::SuffixConfig>& all,
                             std::size_t n) {
    const std::uint64_t before = t_allocs;
    const auto results =
        backend.run_suffix_batch(*snapshot, {all.data(), n}, 0);
    const std::uint64_t count = t_allocs - before;
    EXPECT_EQ(results.size(), n);
    return count;
  }

  /// Warms the snapshot (compiled suffix, response basis) with one batch of
  /// n2 configs, then checks the steady-state batches of n1 < n2 configs.
  void expect_alloc_invariant(bool two_qubit, std::size_t n1, std::size_t n2,
                              std::size_t primary_run = 1) {
    const auto all = configs(n2, two_qubit, primary_run);
    batch_allocs(all, n2);
    const std::uint64_t a1 = batch_allocs(all, n1);
    const std::uint64_t a2 = batch_allocs(all, n2);
    ASSERT_GE(a2, a1);
    EXPECT_LE(a2 - a1, kAllocsPerConfig * (n2 - n1))
        << "per-config slope "
        << static_cast<double>(a2 - a1) / static_cast<double>(n2 - n1);
    EXPECT_LE(a1, kAllocsPerConfig * n1 + kAllocsPerBatch);
    EXPECT_LE(a2, kAllocsPerConfig * n2 + kAllocsPerBatch);
  }
};

TEST(HotPathAlloc, OneQubitResponseGroupAllocatesOnlyTheResult) {
  HotPath h;
  // Above kResponseMinConfigs1q: one 1-qubit response group.
  h.expect_alloc_invariant(false, 64, 128);
}

TEST(HotPathAlloc, TwoQubitResponseGroupAllocatesOnlyTheResult) {
  HotPath h;
  ASSERT_NE(h.neighbor(), h.point.qubit);
  // At and above kResponseMinConfigs2q: one 2-qubit response group.
  h.expect_alloc_invariant(true, 512, 1024);
}

TEST(HotPathAlloc, RepeatedPrimaryFaultsAllocateOnlyTheResult) {
  HotPath h;
  // Primary faults repeat over runs of 16 configs, as a campaign grid
  // enumerates them: the slot-channel build restarts from the cached
  // primary units, and that warm path allocates nothing either.
  h.expect_alloc_invariant(true, 512, 1024, 16);
  h.expect_alloc_invariant(false, 64, 128, 16);
}

TEST(HotPathAlloc, ReplayPathAllocatesOnlyTheResult) {
  HotPath h;
  // Below kResponseMinConfigs1q / 2q: every config replays the suffix.
  static_assert(24 < backend::DensityMatrixBackend::kResponseMinConfigs1q);
  static_assert(48 < backend::DensityMatrixBackend::kResponseMinConfigs2q);
  h.expect_alloc_invariant(false, 8, 24);
  h.expect_alloc_invariant(true, 16, 48);
}

TEST(HotPathAlloc, IdleNoiseBatchesAllocateOnlyTheResult) {
  // Moment-aware snapshots key compiled suffixes by injection shape; the
  // shape is resolved per distinct shape, not per config.
  HotPath h(true);
  h.expect_alloc_invariant(false, 64, 128);
  h.expect_alloc_invariant(true, 512, 1024);
  // Replay path (below the response thresholds).
  h.expect_alloc_invariant(false, 8, 24);
  h.expect_alloc_invariant(true, 16, 48);
}

TEST(HotPathAlloc, PassingRequireWithLongLiteralAllocatesNothing) {
  const std::uint64_t before = t_allocs;
  require(true, "a literal longer than fifteen chars");
  EXPECT_EQ(t_allocs - before, 0u);
}

// ---- messages of the checks written as explicit throws ---------------------

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "<no qufi::Error>";
}

TEST(ExplicitThrowMessages, GateParamCountNamesGateAndCounts) {
  const double params[] = {0.1, 0.2};
  EXPECT_EQ(error_of([&] { circ::gate_matrix1(circ::GateKind::U, params); }),
            "gate u: expected 3 params, got 2");
}

TEST(ExplicitThrowMessages, DensityMatrixRejectsNonUnitaryOp) {
  sim::DensityMatrix dm(1);
  const circ::Instruction measure{circ::GateKind::Measure, {0}, {0}, {}};
  EXPECT_EQ(error_of([&] { dm.apply_instruction(measure); }),
            "DensityMatrix: cannot apply non-unitary op measure");
}

TEST(ExplicitThrowMessages, NoiseQubitOutOfRangeNamesSourceBackend) {
  const auto props = noise::fake_casablanca();
  const auto nm = noise::NoiseModel::from_backend(props, 1.0);
  const std::string expected =
      "NoiseModel: qubit out of range for source backend " + props.name;
  EXPECT_EQ(error_of([&] {
              nm.superop_after_1q(circ::GateKind::SX, props.num_qubits);
            }),
            expected);
  EXPECT_EQ(error_of([&] {
              nm.channels_after_1q(circ::GateKind::SX, -1);
            }),
            expected);
}

}  // namespace
}  // namespace qufi
