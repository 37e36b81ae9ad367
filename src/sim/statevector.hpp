#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace qufi::sim {

using util::cplx;

/// Pure-state simulator state: 2^n complex amplitudes, qubit q = bit q.
///
/// This is the ideal-execution engine (golden outputs for QVF) and the
/// per-shot engine of the Monte-Carlo trajectory backend.
class Statevector {
 public:
  /// Widest supported state (2^24 amplitudes, 256 MiB).
  static constexpr int kMaxQubits = 24;

  /// Initializes |0...0> on `num_qubits` qubits (at most kMaxQubits).
  explicit Statevector(int num_qubits);

  /// Takes ownership of explicit amplitudes (size must be a power of two).
  /// The vector is not re-normalized; callers own normalization.
  static Statevector from_amplitudes(std::vector<cplx> amps);

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dim() const { return std::uint64_t{1} << num_qubits_; }
  std::span<const cplx> amplitudes() const { return amps_; }

  /// Explicit deep copy (see DensityMatrix::clone): trajectory prefix
  /// snapshots are resumed by cloning the cached per-shot state.
  Statevector clone() const { return *this; }

  /// Applies a single-qubit unitary to qubit q.
  void apply_matrix1(const util::Mat2& m, int q);
  /// Applies a two-qubit unitary; operand 0 is the low local bit.
  void apply_matrix2(const util::Mat4& m, int q0, int q1);

  /// Applies one unitary circuit instruction (gate kinds only; throws on
  /// Measure/Reset/Barrier — those are interpreted by simulators/backends).
  void apply_instruction(const circ::Instruction& instr);

  /// |amplitude|^2 for every basis state.
  std::vector<double> probabilities() const;

  /// Probability of measuring qubit q as 1.
  double probability_one(int q) const;

  /// Projective measurement of qubit q: collapses the state, renormalizes,
  /// and returns the outcome (0/1) drawn from `rng`.
  int measure_qubit(int q, util::Xoshiro256pp& rng);

  /// Non-unitary reset of qubit q to |0> (measure + conditional X).
  void reset_qubit(int q, util::Xoshiro256pp& rng);

  /// Squared overlap |<this|other>|^2.
  double fidelity(const Statevector& other) const;

  double norm() const;
  void normalize();

 private:
  int num_qubits_;
  std::vector<cplx> amps_;
};

/// Runs all unitary instructions of `circuit` on |0...0>; Barriers are
/// skipped, Measure/Reset throw (use a backend for those).
Statevector run_statevector(const circ::QuantumCircuit& circuit);

/// Maps a 2^num_qubits probability vector onto the circuit's classical-bit
/// space (2^num_clbits) according to its Measure instructions. Later
/// measures into the same clbit override earlier ones (Qiskit semantics).
/// Throws if the circuit has no measurements.
std::vector<double> map_to_clbit_probs(std::span<const double> qubit_probs,
                                       const circ::QuantumCircuit& circuit);

/// Ideal (noise-free) distribution over classical bitstrings for a circuit
/// with terminal measurements: statevector run + clbit mapping.
std::vector<double> ideal_clbit_probabilities(
    const circ::QuantumCircuit& circuit);

}  // namespace qufi::sim
