#include "sim/statevector.hpp"

#include <bit>
#include <cmath>

#include "sim/kernel_dispatch.hpp"
#include "sim/kernels.hpp"
#include "util/error.hpp"

namespace qufi::sim {

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  require(num_qubits >= 1 && num_qubits <= kMaxQubits,
          "Statevector: qubit count out of supported range [1, 24]");
  amps_.assign(std::size_t{1} << num_qubits, cplx{});
  amps_[0] = cplx{1, 0};
}

Statevector Statevector::from_amplitudes(std::vector<cplx> amps) {
  require(!amps.empty() && std::has_single_bit(amps.size()),
          "Statevector: amplitude count must be a power of two");
  const int n = std::max(1, static_cast<int>(std::bit_width(amps.size())) - 1);
  Statevector sv(n);
  sv.amps_ = std::move(amps);
  return sv;
}

void Statevector::apply_matrix1(const util::Mat2& m, int q) {
  require(q >= 0 && q < num_qubits_, "apply_matrix1: qubit out of range");
  dispatch::apply_matrix1(amps_, m, q);
}

void Statevector::apply_matrix2(const util::Mat4& m, int q0, int q1) {
  require(q0 >= 0 && q0 < num_qubits_ && q1 >= 0 && q1 < num_qubits_ &&
              q0 != q1,
          "apply_matrix2: bad qubit operands");
  dispatch::apply_matrix2(amps_, m, q0, q1);
}

void Statevector::apply_instruction(const circ::Instruction& instr) {
  if (!instr.is_unitary()) {
    throw Error(std::string("Statevector: cannot apply non-unitary op ") +
                    instr.name());
  }
  const auto& info = circ::gate_info(instr.kind);
  switch (info.num_qubits) {
    case 1:
      apply_matrix1(circ::gate_matrix1(instr.kind, instr.params),
                    instr.qubits[0]);
      return;
    case 2:
      apply_matrix2(circ::gate_matrix2(instr.kind, instr.params),
                    instr.qubits[0], instr.qubits[1]);
      return;
    case 3:
      require(instr.kind == circ::GateKind::CCX,
              "Statevector: unsupported 3-qubit gate");
      dispatch::apply_ccx(amps_, instr.qubits[0], instr.qubits[1],
                        instr.qubits[2]);
      return;
    default:
      throw Error("Statevector: unsupported operand count");
  }
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> probs(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) probs[i] = std::norm(amps_[i]);
  return probs;
}

double Statevector::probability_one(int q) const {
  require(q >= 0 && q < num_qubits_, "probability_one: qubit out of range");
  const std::uint64_t bit = 1ULL << q;
  double p = 0.0;
  for (std::uint64_t i = 0; i < amps_.size(); ++i) {
    if (i & bit) p += std::norm(amps_[i]);
  }
  return p;
}

int Statevector::measure_qubit(int q, util::Xoshiro256pp& rng) {
  const double p1 = probability_one(q);
  const int outcome = rng.uniform() < p1 ? 1 : 0;
  const std::uint64_t bit = 1ULL << q;
  const double keep_prob = outcome ? p1 : 1.0 - p1;
  const double scale = keep_prob > 0 ? 1.0 / std::sqrt(keep_prob) : 0.0;
  for (std::uint64_t i = 0; i < amps_.size(); ++i) {
    const bool is_one = (i & bit) != 0;
    if (is_one == (outcome == 1)) {
      amps_[i] *= scale;
    } else {
      amps_[i] = cplx{};
    }
  }
  return outcome;
}

void Statevector::reset_qubit(int q, util::Xoshiro256pp& rng) {
  if (measure_qubit(q, rng) == 1) {
    apply_matrix1(circ::gate_matrix1(circ::GateKind::X, {}), q);
  }
}

double Statevector::fidelity(const Statevector& other) const {
  require(num_qubits_ == other.num_qubits_, "fidelity: dimension mismatch");
  cplx inner{};
  for (std::size_t i = 0; i < amps_.size(); ++i)
    inner += std::conj(amps_[i]) * other.amps_[i];
  return std::norm(inner);
}

double Statevector::norm() const {
  double sum = 0.0;
  for (const auto& a : amps_) sum += std::norm(a);
  return std::sqrt(sum);
}

void Statevector::normalize() {
  const double n = norm();
  require(n > 0, "normalize: zero state");
  for (auto& a : amps_) a /= n;
}

Statevector run_statevector(const circ::QuantumCircuit& circuit) {
  Statevector sv(circuit.num_qubits());
  for (const auto& instr : circuit.instructions()) {
    if (instr.kind == circ::GateKind::Barrier ||
        instr.kind == circ::GateKind::Measure) {
      continue;  // Measure handled downstream; golden path is pre-measure.
    }
    require(instr.kind != circ::GateKind::Reset,
            "run_statevector: Reset requires a trajectory backend");
    sv.apply_instruction(instr);
  }
  return sv;
}

std::vector<double> map_to_clbit_probs(std::span<const double> qubit_probs,
                                       const circ::QuantumCircuit& circuit) {
  require(circuit.num_clbits() > 0, "map_to_clbit_probs: circuit has no clbits");
  // Last measure into a clbit wins.
  std::vector<int> clbit_source(static_cast<std::size_t>(circuit.num_clbits()),
                                -1);
  bool any = false;
  for (const auto& instr : circuit.instructions()) {
    if (instr.kind == circ::GateKind::Measure) {
      clbit_source[static_cast<std::size_t>(instr.clbits[0])] =
          instr.qubits[0];
      any = true;
    }
  }
  require(any, "map_to_clbit_probs: circuit has no measurements");

  std::vector<double> out(std::size_t{1} << circuit.num_clbits(), 0.0);
  for (std::uint64_t i = 0; i < qubit_probs.size(); ++i) {
    if (qubit_probs[i] == 0.0) continue;
    std::uint64_t j = 0;
    for (int c = 0; c < circuit.num_clbits(); ++c) {
      const int q = clbit_source[static_cast<std::size_t>(c)];
      if (q >= 0 && ((i >> q) & 1ULL)) j |= 1ULL << c;
    }
    out[j] += qubit_probs[i];
  }
  return out;
}

std::vector<double> ideal_clbit_probabilities(
    const circ::QuantumCircuit& circuit) {
  const Statevector sv = run_statevector(circuit);
  const auto probs = sv.probabilities();
  return map_to_clbit_probs(probs, circuit);
}

}  // namespace qufi::sim
