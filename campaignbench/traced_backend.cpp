#include "traced_backend.hpp"

#include <set>

#include "noise/noise_model.hpp"
#include "trace.hpp"

namespace campaignbench {

using qufi::backend::ExecutionResult;
using qufi::backend::PrefixSnapshot;
using qufi::backend::PrefixSnapshotPtr;

TracedBackend::TracedBackend(const qufi::CampaignSpec& spec)
    : inner_(qufi::noise::NoiseModel::from_backend(spec.backend,
                                                   spec.noise_scale),
             spec.idle_noise) {}

std::string TracedBackend::name() const { return inner_.name(); }

ExecutionResult TracedBackend::run(const qufi::circ::QuantumCircuit& circuit,
                                   std::uint64_t shots, std::uint64_t seed) {
  Scope span("backend.run");
  return inner_.run(circuit, shots, seed);
}

bool TracedBackend::supports_checkpointing() const {
  return inner_.supports_checkpointing();
}

std::uint64_t TracedBackend::snapshot_schedule_digest(
    const qufi::circ::QuantumCircuit& circuit,
    std::size_t prefix_length) const {
  return inner_.snapshot_schedule_digest(circuit, prefix_length);
}

PrefixSnapshotPtr TracedBackend::prepare_prefix(
    const qufi::circ::QuantumCircuit& circuit, std::size_t prefix_length,
    std::uint64_t shots_hint, std::uint64_t snapshot_seed) {
  Scope span("backend.prepare_prefix");
  return inner_.prepare_prefix(circuit, prefix_length, shots_hint,
                               snapshot_seed);
}

PrefixSnapshotPtr TracedBackend::extend_snapshot(const PrefixSnapshot& parent,
                                                 std::size_t from_gate,
                                                 std::size_t to_gate,
                                                 std::uint64_t shots_hint,
                                                 std::uint64_t snapshot_seed) {
  Scope span("backend.extend_snapshot");
  span.set_items(to_gate - from_gate);
  return inner_.extend_snapshot(parent, from_gate, to_gate, shots_hint,
                                snapshot_seed);
}

ExecutionResult TracedBackend::run_suffix(
    const PrefixSnapshot& snapshot,
    std::span<const qufi::circ::Instruction> injected, std::uint64_t shots,
    std::uint64_t seed) {
  Scope span("backend.run_suffix");
  return inner_.run_suffix(snapshot, injected, shots, seed);
}

std::vector<ExecutionResult> TracedBackend::run_suffix_batch(
    const PrefixSnapshot& snapshot,
    std::span<const qufi::backend::SuffixConfig> configs,
    std::uint64_t shots) {
  if (!configs.empty()) {
    std::set<int> targets;
    for (const auto& gate : configs.front().injected) {
      targets.insert(gate.qubits.begin(), gate.qubits.end());
    }
    const std::size_t threshold =
        targets.size() >= 2
            ? qufi::backend::DensityMatrixBackend::kResponseMinConfigs2q
            : qufi::backend::DensityMatrixBackend::kResponseMinConfigs1q;
    if (configs.size() >= threshold) response_configs_ += configs.size();
  }
  Scope span("backend.run_suffix_batch");
  span.set_items(configs.size());
  return inner_.run_suffix_batch(snapshot, configs, shots);
}

bool TracedBackend::save_snapshot(const PrefixSnapshot& snapshot,
                                  std::ostream& out) const {
  return inner_.save_snapshot(snapshot, out);
}

PrefixSnapshotPtr TracedBackend::load_snapshot(std::istream& in) const {
  return inner_.load_snapshot(in);
}

}  // namespace campaignbench
