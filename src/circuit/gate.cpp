#include "circuit/gate.hpp"

#include <cmath>
#include <numbers>
#include <unordered_map>

#include "util/error.hpp"

namespace qufi::circ {

using util::cplx;
using util::Mat2;
using util::Mat4;

namespace {
constexpr double kPi = std::numbers::pi;

const GateInfo kInfos[] = {
    // name, qubits, params, unitary
    {"id", 1, 0, true},     // I
    {"x", 1, 0, true},      // X
    {"y", 1, 0, true},      // Y
    {"z", 1, 0, true},      // Z
    {"h", 1, 0, true},      // H
    {"s", 1, 0, true},      // S
    {"sdg", 1, 0, true},    // Sdg
    {"t", 1, 0, true},      // T
    {"tdg", 1, 0, true},    // Tdg
    {"sx", 1, 0, true},     // SX
    {"sxdg", 1, 0, true},   // SXdg
    {"rx", 1, 1, true},     // RX
    {"ry", 1, 1, true},     // RY
    {"rz", 1, 1, true},     // RZ
    {"p", 1, 1, true},      // P
    {"u", 1, 3, true},      // U
    {"cx", 2, 0, true},     // CX
    {"cy", 2, 0, true},     // CY
    {"cz", 2, 0, true},     // CZ
    {"ch", 2, 0, true},     // CH
    {"cp", 2, 1, true},     // CP
    {"crz", 2, 1, true},    // CRZ
    {"swap", 2, 0, true},   // SWAP
    {"ccx", 3, 0, true},    // CCX
    {"barrier", 0, 0, false},   // Barrier
    {"measure", 1, 0, false},   // Measure
    {"reset", 1, 0, false},     // Reset
};

void check_params(GateKind kind, std::span<const double> params) {
  const auto& info = gate_info(kind);
  if (static_cast<int>(params.size()) != info.num_params) {
    throw qufi::Error(std::string("gate ") + info.name + ": expected " +
                          std::to_string(info.num_params) + " params, got " +
                          std::to_string(params.size()));
  }
}

}  // namespace

const GateInfo& gate_info(GateKind kind) {
  return kInfos[static_cast<int>(kind)];
}

GateKind gate_from_name(const std::string& name) {
  static const std::unordered_map<std::string, GateKind> kByName = [] {
    std::unordered_map<std::string, GateKind> m;
    for (int i = 0; i <= static_cast<int>(GateKind::Reset); ++i) {
      m.emplace(kInfos[i].name, static_cast<GateKind>(i));
    }
    return m;
  }();
  const auto it = kByName.find(name);
  if (it == kByName.end()) throw qufi::Error("unknown gate name: " + name);
  return it->second;
}

Mat2 gate_matrix1(GateKind kind, std::span<const double> params) {
  check_params(kind, params);
  const cplx i{0, 1};
  const double isq2 = 1.0 / std::sqrt(2.0);
  switch (kind) {
    case GateKind::I:
      return Mat2::identity();
    case GateKind::X:
      return Mat2{{0, 1, 1, 0}};
    case GateKind::Y:
      return Mat2{{0, -i, i, 0}};
    case GateKind::Z:
      return Mat2{{1, 0, 0, -1}};
    case GateKind::H:
      return Mat2{{isq2, isq2, isq2, -isq2}};
    case GateKind::S:
      return Mat2{{1, 0, 0, i}};
    case GateKind::Sdg:
      return Mat2{{1, 0, 0, -i}};
    case GateKind::T:
      return Mat2{{1, 0, 0, std::exp(i * (kPi / 4))}};
    case GateKind::Tdg:
      return Mat2{{1, 0, 0, std::exp(-i * (kPi / 4))}};
    case GateKind::SX: {
      const cplx p{0.5, 0.5}, m{0.5, -0.5};
      return Mat2{{p, m, m, p}};
    }
    case GateKind::SXdg: {
      const cplx p{0.5, 0.5}, m{0.5, -0.5};
      return Mat2{{m, p, p, m}};
    }
    case GateKind::RX: {
      const double h = params[0] / 2;
      return Mat2{{std::cos(h), -i * std::sin(h), -i * std::sin(h),
                   std::cos(h)}};
    }
    case GateKind::RY: {
      const double h = params[0] / 2;
      return Mat2{{std::cos(h), -std::sin(h), std::sin(h), std::cos(h)}};
    }
    case GateKind::RZ: {
      const double h = params[0] / 2;
      return Mat2{{std::exp(-i * h), 0, 0, std::exp(i * h)}};
    }
    case GateKind::P:
      return Mat2{{1, 0, 0, std::exp(i * params[0])}};
    case GateKind::U:
      return util::unitary_from_angles(params[0], params[1], params[2]);
    default:
      throw Error(std::string("gate_matrix1: not a single-qubit unitary: ") +
                  gate_info(kind).name);
  }
}

Mat4 gate_matrix2(GateKind kind, std::span<const double> params) {
  check_params(kind, params);
  // Index convention: basis |q1 q0> where operand 0 is the low bit. For
  // controlled gates operand 0 is the control, so the "target" block acts on
  // states with bit0 = 1 (indices 1 and 3).
  const auto controlled = [](const Mat2& u) {
    Mat4 m = Mat4::identity();
    m(1, 1) = u(0, 0);
    m(1, 3) = u(0, 1);
    m(3, 1) = u(1, 0);
    m(3, 3) = u(1, 1);
    return m;
  };
  switch (kind) {
    case GateKind::CX:
      return controlled(gate_matrix1(GateKind::X, {}));
    case GateKind::CY:
      return controlled(gate_matrix1(GateKind::Y, {}));
    case GateKind::CZ:
      return controlled(gate_matrix1(GateKind::Z, {}));
    case GateKind::CH:
      return controlled(gate_matrix1(GateKind::H, {}));
    case GateKind::CP: {
      const double lam[] = {params[0]};
      return controlled(gate_matrix1(GateKind::P, lam));
    }
    case GateKind::CRZ: {
      const double lam[] = {params[0]};
      return controlled(gate_matrix1(GateKind::RZ, lam));
    }
    case GateKind::SWAP: {
      Mat4 m;
      m(0, 0) = m(3, 3) = 1;
      m(1, 2) = m(2, 1) = 1;
      return m;
    }
    default:
      throw Error(std::string("gate_matrix2: not a two-qubit unitary: ") +
                  gate_info(kind).name);
  }
}

InverseGate gate_inverse(GateKind kind, std::span<const double> params) {
  check_params(kind, params);
  const auto self = [&] {
    InverseGate g{kind, {}, gate_info(kind).num_params};
    for (std::size_t k = 0; k < params.size(); ++k) g.params[k] = params[k];
    return g;
  };
  const auto negated = [&] {
    InverseGate g = self();
    for (int k = 0; k < g.num_params; ++k) g.params[k] = -g.params[k];
    return g;
  };
  switch (kind) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::CX:
    case GateKind::CY:
    case GateKind::CZ:
    case GateKind::CH:
    case GateKind::SWAP:
    case GateKind::CCX:
      return self();
    case GateKind::S:
      return InverseGate{GateKind::Sdg, {}, 0};
    case GateKind::Sdg:
      return InverseGate{GateKind::S, {}, 0};
    case GateKind::T:
      return InverseGate{GateKind::Tdg, {}, 0};
    case GateKind::Tdg:
      return InverseGate{GateKind::T, {}, 0};
    case GateKind::SX:
      return InverseGate{GateKind::SXdg, {}, 0};
    case GateKind::SXdg:
      return InverseGate{GateKind::SX, {}, 0};
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CP:
    case GateKind::CRZ:
      return negated();
    case GateKind::U:
      // U(θ,φ,λ)† = U(−θ,−λ,−φ): reverse the two Z-rotations as well.
      return InverseGate{GateKind::U, {-params[0], -params[2], -params[1]}, 3};
    default:
      throw Error(std::string("gate_inverse: non-unitary gate: ") +
                  gate_info(kind).name);
  }
}

}  // namespace qufi::circ
