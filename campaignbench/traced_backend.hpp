#pragma once

#include <atomic>
#include <cstdint>

#include "backend/density_backend.hpp"
#include "core/campaign.hpp"

namespace campaignbench {

/// Timing decorator over the campaign's density backend: every
/// backend::Backend virtual forwards to an owned DensityMatrixBackend, and
/// the execution calls open a "backend.<call>" span (trace.hpp) with their
/// work count. Passed to a campaign through CampaignSpec::backend_override,
/// the way dist::SnapshotCachingBackend is, so the backend layer is timed
/// from outside the library. Thread-safe as the wrapped backend is.
class TracedBackend final : public qufi::backend::Backend {
 public:
  /// Builds the inner backend as the campaign builds its own from `spec`
  /// (noise model from spec.backend and spec.noise_scale, spec.idle_noise),
  /// leaving the suffix-response path at its default, so traced and
  /// untraced campaigns follow the same engine path.
  explicit TracedBackend(const qufi::CampaignSpec& spec);

  /// Configs submitted in run_suffix_batch calls large enough for the
  /// linear-response path (DensityMatrixBackend::kResponseMinConfigs1q or
  /// 2q, by the width of the batch's injected fault).
  std::uint64_t response_path_configs() const {
    return response_configs_.load();
  }

  std::string name() const override;
  qufi::backend::ExecutionResult run(const qufi::circ::QuantumCircuit& circuit,
                                     std::uint64_t shots,
                                     std::uint64_t seed) override;
  bool supports_checkpointing() const override;
  std::uint64_t snapshot_schedule_digest(
      const qufi::circ::QuantumCircuit& circuit,
      std::size_t prefix_length) const override;
  qufi::backend::PrefixSnapshotPtr prepare_prefix(
      const qufi::circ::QuantumCircuit& circuit, std::size_t prefix_length,
      std::uint64_t shots_hint, std::uint64_t snapshot_seed) override;
  qufi::backend::PrefixSnapshotPtr extend_snapshot(
      const qufi::backend::PrefixSnapshot& parent, std::size_t from_gate,
      std::size_t to_gate, std::uint64_t shots_hint,
      std::uint64_t snapshot_seed) override;
  qufi::backend::ExecutionResult run_suffix(
      const qufi::backend::PrefixSnapshot& snapshot,
      std::span<const qufi::circ::Instruction> injected, std::uint64_t shots,
      std::uint64_t seed) override;
  std::vector<qufi::backend::ExecutionResult> run_suffix_batch(
      const qufi::backend::PrefixSnapshot& snapshot,
      std::span<const qufi::backend::SuffixConfig> configs,
      std::uint64_t shots) override;
  bool save_snapshot(const qufi::backend::PrefixSnapshot& snapshot,
                     std::ostream& out) const override;
  qufi::backend::PrefixSnapshotPtr load_snapshot(std::istream& in) const override;

 private:
  qufi::backend::DensityMatrixBackend inner_;
  std::atomic<std::uint64_t> response_configs_{0};
};

}  // namespace campaignbench
