#include "noise/noise_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace qufi::noise {

namespace {

/// Depolarizing probability from IBM-reported average gate infidelity.
double depol_p_from_infidelity_1q(double eps) {
  return std::clamp(1.5 * eps, 0.0, 1.0);
}
double depol_p_from_infidelity_2q(double eps) {
  return std::clamp(1.25 * eps, 0.0, 1.0);
}

}  // namespace

NoiseModel NoiseModel::ideal() { return NoiseModel{}; }

NoiseModel NoiseModel::from_backend(const BackendProperties& props,
                                    double scale) {
  require(scale >= 0.0, "NoiseModel: scale must be non-negative");
  props.validate();
  NoiseModel model;
  if (scale == 0.0) return model;

  model.ideal_ = false;
  model.scale_ = scale;
  model.source_name_ = props.name;
  model.qubit_props_ = props.qubits;

  const int n = props.num_qubits;
  model.relax_1q_.reserve(static_cast<std::size_t>(n));
  model.depol_1q_.reserve(static_cast<std::size_t>(n));
  model.readout_.reserve(static_cast<std::size_t>(n));
  model.measure_duration_ns_ = props.measure_duration_ns;
  for (int q = 0; q < n; ++q) {
    const auto& qb = props.qubits[static_cast<std::size_t>(q)];
    const auto& g1 = props.gate_1q[static_cast<std::size_t>(q)];
    model.dur_1q_ns_.push_back(g1.duration_ns);
    model.relax_1q_.push_back(
        thermal_relaxation(g1.duration_ns * scale, qb.t1_us, qb.t2_us));
    model.depol_1q_.push_back(depolarizing1(
        std::clamp(depol_p_from_infidelity_1q(g1.error) * scale, 0.0, 1.0)));
    model.superop_1q_.push_back(
        compose_superops(channel_superop(model.depol_1q_.back()),
                         channel_superop(model.relax_1q_.back())));
    ReadoutError ro = qb.readout;
    ro.p_meas1_given0 = std::clamp(ro.p_meas1_given0 * scale, 0.0, 1.0);
    ro.p_meas0_given1 = std::clamp(ro.p_meas0_given1 * scale, 0.0, 1.0);
    model.readout_.push_back(ro);
  }

  double mean_cx_err = 0.0;
  double mean_cx_dur = 0.0;
  for (const auto& [edge, spec] : props.gate_2q) {
    const auto& qa = props.qubits[static_cast<std::size_t>(edge.first)];
    const auto& qb = props.qubits[static_cast<std::size_t>(edge.second)];
    EdgeNoise en;
    en.relax_a =
        thermal_relaxation(spec.duration_ns * scale, qa.t1_us, qa.t2_us);
    en.relax_b =
        thermal_relaxation(spec.duration_ns * scale, qb.t1_us, qb.t2_us);
    en.depol = depolarizing2(
        std::clamp(depol_p_from_infidelity_2q(spec.error) * scale, 0.0, 1.0));
    en.superop = compose_superops(
        channel_superop(en.depol),
        embed_superops(channel_superop(en.relax_a),
                       channel_superop(en.relax_b)));
    model.edge_noise_.emplace(edge, std::move(en));
    model.dur_2q_ns_.emplace(edge, spec.duration_ns);
    mean_cx_err += spec.error;
    mean_cx_dur += spec.duration_ns;
  }

  // Fallback noise for 2q gates on uncalibrated pairs (e.g. circuits run
  // without transpilation): average calibration over all edges.
  if (!props.gate_2q.empty()) {
    mean_cx_err /= static_cast<double>(props.gate_2q.size());
    mean_cx_dur /= static_cast<double>(props.gate_2q.size());
  } else {
    mean_cx_err = 0.01;
    mean_cx_dur = 400.0;
  }
  double mean_t1 = 0.0;
  double mean_t2 = 0.0;
  for (const auto& qb : props.qubits) {
    mean_t1 += qb.t1_us;
    mean_t2 += qb.t2_us;
  }
  mean_t1 /= static_cast<double>(n);
  mean_t2 /= static_cast<double>(n);
  model.default_edge_noise_.relax_a =
      thermal_relaxation(mean_cx_dur * scale, mean_t1, std::min(mean_t2, 2 * mean_t1));
  model.default_edge_noise_.relax_b = model.default_edge_noise_.relax_a;
  model.default_edge_noise_.depol = depolarizing2(std::clamp(
      depol_p_from_infidelity_2q(mean_cx_err) * scale, 0.0, 1.0));
  model.default_edge_noise_.superop = compose_superops(
      channel_superop(model.default_edge_noise_.depol),
      embed_superops(channel_superop(model.default_edge_noise_.relax_a),
                     channel_superop(model.default_edge_noise_.relax_b)));
  model.mean_dur_2q_ns_ = mean_cx_dur;

  return model;
}

const util::Mat4* NoiseModel::superop_after_1q(circ::GateKind kind,
                                               int qubit) const {
  if (ideal_ || !is_noisy_1q_gate(kind)) return nullptr;
  if (!(qubit >= 0 && qubit < num_qubits())) {
    throw Error(
        "NoiseModel: qubit out of range for source backend " + source_name_);
  }
  return &superop_1q_[static_cast<std::size_t>(qubit)];
}

const SuperOp2* NoiseModel::superop_after_2q(int a, int b) const {
  if (ideal_) return nullptr;
  require(a >= 0 && a < num_qubits() && b >= 0 && b < num_qubits() && a != b,
          "NoiseModel: bad 2q operands");
  const auto it = edge_noise_.find({std::min(a, b), std::max(a, b)});
  return it != edge_noise_.end() ? &it->second.superop
                                 : &default_edge_noise_.superop;
}

double NoiseModel::duration_1q_ns(int qubit) const {
  if (ideal_) return 0.0;
  require(qubit >= 0 && qubit < num_qubits(),
          "NoiseModel: qubit out of range");
  return dur_1q_ns_[static_cast<std::size_t>(qubit)];
}

double NoiseModel::duration_2q_ns(int a, int b) const {
  if (ideal_) return 0.0;
  const auto it = dur_2q_ns_.find({std::min(a, b), std::max(a, b)});
  return it != dur_2q_ns_.end() ? it->second : mean_dur_2q_ns_;
}

bool NoiseModel::is_noisy_1q_gate(circ::GateKind kind) {
  using circ::GateKind;
  switch (kind) {
    case GateKind::I:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::U:  // fault-injector gate: exempt (see class comment)
    case GateKind::Barrier:
    case GateKind::Measure:
    case GateKind::Reset:
      return false;
    default:
      return circ::gate_info(kind).num_qubits == 1;
  }
}

std::vector<const KrausChannel1*> NoiseModel::channels_after_1q(
    circ::GateKind kind, int qubit) const {
  std::vector<const KrausChannel1*> out;
  if (ideal_ || !is_noisy_1q_gate(kind)) return out;
  if (!(qubit >= 0 && qubit < num_qubits())) {
    throw Error(
        "NoiseModel: qubit out of range for source backend " + source_name_);
  }
  const auto& relax = relax_1q_[static_cast<std::size_t>(qubit)];
  const auto& depol = depol_1q_[static_cast<std::size_t>(qubit)];
  if (!relax.is_identity()) out.push_back(&relax);
  if (!depol.is_identity()) out.push_back(&depol);
  return out;
}

NoiseModel::TwoQubitNoise NoiseModel::channels_after_2q(int a, int b) const {
  TwoQubitNoise out;
  if (ideal_) return out;
  require(a >= 0 && a < num_qubits() && b >= 0 && b < num_qubits() && a != b,
          "NoiseModel: bad 2q operands");
  const bool flipped = a > b;
  const auto it = edge_noise_.find({std::min(a, b), std::max(a, b)});
  const EdgeNoise& en =
      it != edge_noise_.end() ? it->second : default_edge_noise_;
  out.relax_a = flipped ? &en.relax_b : &en.relax_a;
  out.relax_b = flipped ? &en.relax_a : &en.relax_b;
  out.depol = &en.depol;
  return out;
}

KrausChannel1 NoiseModel::idle_relaxation(int qubit, double duration_ns) const {
  if (ideal_ || duration_ns <= 0.0) {
    return KrausChannel1{{util::Mat2::identity()}};
  }
  require(qubit >= 0 && qubit < num_qubits(),
          "NoiseModel: qubit out of range");
  const auto& qb = qubit_props_[static_cast<std::size_t>(qubit)];
  return thermal_relaxation(duration_ns * scale_, qb.t1_us, qb.t2_us);
}

const ReadoutError& NoiseModel::readout(int qubit) const {
  if (ideal_) return trivial_readout_;
  require(qubit >= 0 && qubit < num_qubits(),
          "NoiseModel: qubit out of range");
  return readout_[static_cast<std::size_t>(qubit)];
}

}  // namespace qufi::noise
