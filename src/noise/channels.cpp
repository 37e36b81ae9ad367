#include "noise/channels.hpp"

#include <cmath>

#include "circuit/gate.hpp"
#include "util/error.hpp"

namespace qufi::noise {

using util::cplx;
using util::Mat2;
using util::Mat4;

namespace {

Mat2 pauli(char p) {
  switch (p) {
    case 'I':
      return Mat2::identity();
    case 'X':
      return circ::gate_matrix1(circ::GateKind::X, {});
    case 'Y':
      return circ::gate_matrix1(circ::GateKind::Y, {});
    case 'Z':
      return circ::gate_matrix1(circ::GateKind::Z, {});
    default:
      throw Error("pauli: bad label");
  }
}

void check_prob(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw Error(std::string(what) + ": probability out of [0, 1]");
  }
}

}  // namespace

bool KrausChannel1::is_cptp(double tol) const {
  Mat2 sum = Mat2::zero();
  for (const auto& k : ops) sum = sum + k.adjoint() * k;
  return sum.approx_equal(Mat2::identity(), tol);
}

bool KrausChannel1::is_identity(double tol) const {
  return ops.size() == 1 && ops[0].approx_equal(Mat2::identity(), tol);
}

bool KrausChannel2::is_cptp(double tol) const {
  Mat4 sum = Mat4::zero();
  for (const auto& k : ops) sum = sum + k.adjoint() * k;
  return sum.approx_equal(Mat4::identity(), tol);
}

bool KrausChannel2::is_identity(double tol) const {
  return ops.size() == 1 && ops[0].approx_equal(Mat4::identity(), tol);
}

namespace {

Mat2 conj2(const Mat2& m) {
  Mat2 out;
  for (std::size_t i = 0; i < 4; ++i) out.a[i] = std::conj(m.a[i]);
  return out;
}

Mat4 conj4(const Mat4& m) {
  Mat4 out;
  for (std::size_t i = 0; i < 16; ++i) out.a[i] = std::conj(m.a[i]);
  return out;
}

}  // namespace

util::Mat4 channel_superop(const KrausChannel1& channel) {
  Mat4 superop = Mat4::zero();
  for (const auto& k : channel.ops) {
    superop = superop + util::kron(k, conj2(k));
  }
  return superop;
}

SuperOp2 channel_superop(const KrausChannel2& channel) {
  SuperOp2 superop;
  for (const auto& k : channel.ops) {
    const Mat4 kc = conj4(k);
    for (int rr = 0; rr < 4; ++rr) {
      for (int rc = 0; rc < 4; ++rc) {
        for (int cr = 0; cr < 4; ++cr) {
          for (int cc = 0; cc < 4; ++cc) {
            superop.a[static_cast<std::size_t>(((rr << 2) | rc) * 16 +
                                               ((cr << 2) | cc))] +=
                k(rr, cr) * kc(rc, cc);
          }
        }
      }
    }
  }
  return superop;
}

util::Mat4 compose_superops(const util::Mat4& second, const util::Mat4& first) {
  return second * first;
}

SuperOp2 compose_superops(const SuperOp2& second, const SuperOp2& first) {
  SuperOp2 out;
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      cplx sum{};
      for (int k = 0; k < 16; ++k) {
        sum += second.a[static_cast<std::size_t>(r * 16 + k)] *
               first.a[static_cast<std::size_t>(k * 16 + c)];
      }
      out.a[static_cast<std::size_t>(r * 16 + c)] = sum;
    }
  }
  return out;
}

SuperOp2 embed_superops(const util::Mat4& slot0, const util::Mat4& slot1) {
  // Local index j = (r1 r0 c1 c0); slot0's 4x4 superop index is (r0 c0),
  // slot1's is (r1 c1).
  SuperOp2 out;
  for (int j_out = 0; j_out < 16; ++j_out) {
    const int c0o = j_out & 1, c1o = (j_out >> 1) & 1;
    const int r0o = (j_out >> 2) & 1, r1o = (j_out >> 3) & 1;
    for (int j_in = 0; j_in < 16; ++j_in) {
      const int c0i = j_in & 1, c1i = (j_in >> 1) & 1;
      const int r0i = (j_in >> 2) & 1, r1i = (j_in >> 3) & 1;
      out.a[static_cast<std::size_t>(j_out * 16 + j_in)] =
          slot0((r0o << 1) | c0o, (r0i << 1) | c0i) *
          slot1((r1o << 1) | c1o, (r1i << 1) | c1i);
    }
  }
  return out;
}

KrausChannel1 depolarizing1(double p) {
  check_prob(p, "depolarizing1");
  if (p == 0.0) return KrausChannel1{{Mat2::identity()}};
  KrausChannel1 ch;
  ch.ops.push_back(pauli('I') * cplx{std::sqrt(1.0 - p), 0});
  const double w = std::sqrt(p / 3.0);
  for (char label : {'X', 'Y', 'Z'})
    ch.ops.push_back(pauli(label) * cplx{w, 0});
  return ch;
}

KrausChannel2 depolarizing2(double p) {
  check_prob(p, "depolarizing2");
  if (p == 0.0) return KrausChannel2{{Mat4::identity()}};
  KrausChannel2 ch;
  const char labels[] = {'I', 'X', 'Y', 'Z'};
  for (char a : labels) {
    for (char b : labels) {
      const bool ident = (a == 'I' && b == 'I');
      const double w = ident ? std::sqrt(1.0 - p) : std::sqrt(p / 15.0);
      ch.ops.push_back(util::kron(pauli(a), pauli(b)) * cplx{w, 0});
    }
  }
  return ch;
}

KrausChannel1 amplitude_damping(double gamma) {
  check_prob(gamma, "amplitude_damping");
  Mat2 k0 = Mat2::identity();
  k0(1, 1) = std::sqrt(1.0 - gamma);
  Mat2 k1 = Mat2::zero();
  k1(0, 1) = std::sqrt(gamma);
  return KrausChannel1{{k0, k1}};
}

KrausChannel1 phase_damping(double lambda) {
  check_prob(lambda, "phase_damping");
  Mat2 k0 = Mat2::identity();
  k0(1, 1) = std::sqrt(1.0 - lambda);
  Mat2 k1 = Mat2::zero();
  k1(1, 1) = std::sqrt(lambda);
  return KrausChannel1{{k0, k1}};
}

KrausChannel1 thermal_relaxation(double duration_ns, double t1_us,
                                 double t2_us) {
  require(duration_ns >= 0, "thermal_relaxation: negative duration");
  require(t1_us > 0 && t2_us > 0, "thermal_relaxation: T1/T2 must be positive");
  require(t2_us <= 2.0 * t1_us + 1e-12,
          "thermal_relaxation: requires T2 <= 2*T1");
  if (duration_ns == 0.0) return KrausChannel1{{Mat2::identity()}};

  const double t_us = duration_ns * 1e-3;
  const double gamma = 1.0 - std::exp(-t_us / t1_us);
  // Pure dephasing rate: 1/T2 = 1/(2 T1) + 1/T_phi. After amplitude damping
  // the off-diagonal already decays as exp(-t/(2 T1)); add phase damping
  // lambda so the total off-diagonal decay is exp(-t/T2).
  const double inv_tphi = std::max(0.0, 1.0 / t2_us - 0.5 / t1_us);
  const double lambda = 1.0 - std::exp(-2.0 * t_us * inv_tphi);

  const KrausChannel1 ad = amplitude_damping(gamma);
  const KrausChannel1 pd = phase_damping(lambda);
  KrausChannel1 out;
  for (const auto& l : pd.ops) {
    for (const auto& k : ad.ops) {
      const Mat2 prod = l * k;
      double mag = 0.0;
      for (const auto& v : prod.a) mag += std::norm(v);
      if (mag > 1e-24) out.ops.push_back(prod);
    }
  }
  return out;
}

KrausChannel1 pauli_channel(double px, double py, double pz) {
  check_prob(px, "pauli_channel");
  check_prob(py, "pauli_channel");
  check_prob(pz, "pauli_channel");
  const double pi = 1.0 - px - py - pz;
  require(pi >= -1e-12, "pauli_channel: probabilities exceed 1");
  KrausChannel1 ch;
  ch.ops.push_back(pauli('I') * cplx{std::sqrt(std::max(0.0, pi)), 0});
  if (px > 0) ch.ops.push_back(pauli('X') * cplx{std::sqrt(px), 0});
  if (py > 0) ch.ops.push_back(pauli('Y') * cplx{std::sqrt(py), 0});
  if (pz > 0) ch.ops.push_back(pauli('Z') * cplx{std::sqrt(pz), 0});
  return ch;
}

KrausChannel1 bit_flip(double p) { return pauli_channel(p, 0, 0); }
KrausChannel1 phase_flip(double p) { return pauli_channel(0, 0, p); }

KrausChannel1 coherent_z_rotation(double epsilon) {
  const double params[] = {epsilon};
  return KrausChannel1{{circ::gate_matrix1(circ::GateKind::RZ, params)}};
}

KrausChannel1 coherent_x_rotation(double epsilon) {
  const double params[] = {epsilon};
  return KrausChannel1{{circ::gate_matrix1(circ::GateKind::RX, params)}};
}

}  // namespace qufi::noise
