// The full re-simulation oracle for campaign tests: a backend decorator
// that reports no checkpointing, so a campaign executing on it (as
// CampaignSpec::backend_override) runs every config through the base
// Backend splice snapshots — run() on the whole spliced faulty circuit with
// the config's seed — instead of resuming a density prefix snapshot.
#pragma once

#include <string>

#include "backend/density_backend.hpp"
#include "core/campaign.hpp"
#include "noise/noise_model.hpp"

namespace qufi {

class ResimulationOracle final : public backend::Backend {
 public:
  /// Builds the inner backend the way a campaign builds its own from
  /// `spec` (noise model from spec.backend and spec.noise_scale,
  /// spec.idle_noise).
  explicit ResimulationOracle(const CampaignSpec& spec)
      : inner_(noise::NoiseModel::from_backend(spec.backend, spec.noise_scale),
               spec.idle_noise) {}

  std::string name() const override { return inner_.name(); }
  backend::ExecutionResult run(const circ::QuantumCircuit& circuit,
                               std::uint64_t shots,
                               std::uint64_t seed) override {
    return inner_.run(circuit, shots, seed);
  }
  bool supports_checkpointing() const override { return false; }

 private:
  backend::DensityMatrixBackend inner_;
};

/// `campaign(spec)` executed on the re-simulation oracle.
template <typename Campaign>
auto run_on_oracle(CampaignSpec spec, const Campaign& campaign) {
  ResimulationOracle oracle(spec);
  spec.backend_override = &oracle;
  return campaign(spec);
}

}  // namespace qufi
