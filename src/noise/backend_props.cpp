#include "noise/backend_props.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace qufi::noise {

namespace {

std::pair<int, int> edge_key(int a, int b) {
  return {std::min(a, b), std::max(a, b)};
}

/// Builds a backend from parallel arrays; shared by the fake factories.
BackendProperties assemble(
    std::string name, int n, std::vector<std::pair<int, int>> edges,
    std::vector<double> t1, std::vector<double> t2,
    std::vector<double> readout_mean, std::vector<double> err_1q,
    std::vector<double> err_cx, std::vector<double> dur_cx) {
  BackendProperties props;
  props.name = std::move(name);
  props.num_qubits = n;
  for (auto [a, b] : edges) props.coupling.push_back(edge_key(a, b));

  props.qubits.resize(static_cast<std::size_t>(n));
  props.gate_1q.resize(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) {
    auto& qb = props.qubits[static_cast<std::size_t>(q)];
    qb.t1_us = t1[static_cast<std::size_t>(q)];
    qb.t2_us = t2[static_cast<std::size_t>(q)];
    // IBM reports a mean assignment error; real devices read 1->0 more
    // often than 0->1 (relaxation during readout), so split 40/60.
    const double mean = readout_mean[static_cast<std::size_t>(q)];
    qb.readout.p_meas1_given0 = 0.8 * mean;
    qb.readout.p_meas0_given1 = 1.2 * mean;
    auto& g1 = props.gate_1q[static_cast<std::size_t>(q)];
    g1.duration_ns = 35.5;
    g1.error = err_1q[static_cast<std::size_t>(q)];
  }
  for (std::size_t e = 0; e < props.coupling.size(); ++e) {
    props.gate_2q[props.coupling[e]] = GateSpec{dur_cx[e], err_cx[e]};
  }
  props.validate();
  return props;
}

/// Deterministic per-index variation in [lo, hi] used by the synthetic
/// topologies; cycles through a fixed pattern so values are stable across
/// runs without an RNG dependency.
double vary(double lo, double hi, int index) {
  static constexpr double kPattern[] = {0.31, 0.77, 0.12, 0.58, 0.93,
                                        0.44, 0.69, 0.05, 0.86, 0.23};
  const double f = kPattern[static_cast<std::size_t>(index) % 10];
  return lo + (hi - lo) * f;
}

}  // namespace

const GateSpec& BackendProperties::cx_spec(int a, int b) const {
  const auto it = gate_2q.find(edge_key(a, b));
  if (it == gate_2q.end()) {
    throw Error(
        name + ": no cx calibration for edge (" + std::to_string(a) + ", " +
            std::to_string(b) + ")");
  }
  return it->second;
}

bool BackendProperties::connected(int a, int b) const {
  const auto key = edge_key(a, b);
  return std::find(coupling.begin(), coupling.end(), key) != coupling.end();
}

void BackendProperties::validate() const {
  if (num_qubits <= 0) throw Error(name + ": no qubits");
  if (static_cast<int>(qubits.size()) != num_qubits) {
    throw Error(name + ": qubit property count mismatch");
  }
  if (static_cast<int>(gate_1q.size()) != num_qubits) {
    throw Error(name + ": 1q gate spec count mismatch");
  }
  for (const auto& [a, b] : coupling) {
    if (!(a >= 0 && b < num_qubits && a < b)) {
      throw Error(name + ": bad coupling edge");
    }
    if (!gate_2q.contains({a, b})) {
      throw Error(name + ": edge missing cx calibration");
    }
  }
  for (int q = 0; q < num_qubits; ++q) {
    const auto& qb = qubits[static_cast<std::size_t>(q)];
    if (!(qb.t1_us > 0 && qb.t2_us > 0)) {
      throw Error(name + ": T1/T2 must be positive");
    }
    if (!(qb.t2_us <= 2.0 * qb.t1_us + 1e-9)) {  // also rejects NaN
      throw Error(name + ": T2 must not exceed 2*T1 (qubit " +
                  std::to_string(q) + ")");
    }
  }
}

BackendProperties fake_casablanca() {
  return assemble(
      "fake_casablanca", 7,
      {{0, 1}, {1, 2}, {1, 3}, {3, 5}, {4, 5}, {5, 6}},
      /*t1=*/{116.2, 141.8, 162.4, 98.7, 134.5, 155.1, 127.9},
      /*t2=*/{73.4, 106.1, 140.9, 121.3, 53.8, 95.2, 161.0},
      /*readout=*/{0.022, 0.018, 0.031, 0.014, 0.025, 0.019, 0.028},
      /*err_1q=*/{2.3e-4, 1.9e-4, 3.4e-4, 2.8e-4, 2.1e-4, 4.2e-4, 2.6e-4},
      /*err_cx=*/{0.0089, 0.0132, 0.0104, 0.0116, 0.0097, 0.0145},
      /*dur_cx=*/{305.8, 391.1, 355.5, 420.4, 334.2, 469.3});
}

BackendProperties fake_jakarta() {
  return assemble(
      "fake_jakarta", 7,
      {{0, 1}, {1, 2}, {1, 3}, {3, 5}, {4, 5}, {5, 6}},
      /*t1=*/{182.3, 151.6, 109.4, 133.2, 98.1, 168.9, 144.7},
      /*t2=*/{43.5, 118.2, 92.7, 150.4, 112.0, 71.6, 133.8},
      /*readout=*/{0.019, 0.024, 0.035, 0.016, 0.028, 0.021, 0.017},
      /*err_1q=*/{2.0e-4, 2.7e-4, 3.1e-4, 1.8e-4, 3.8e-4, 2.4e-4, 2.2e-4},
      /*err_cx=*/{0.0078, 0.0121, 0.0096, 0.0139, 0.0088, 0.0107},
      /*dur_cx=*/{320.0, 377.6, 341.3, 455.1, 362.7, 412.9});
}

BackendProperties fake_linear(int num_qubits) {
  require(num_qubits >= 1, "fake_linear: need at least one qubit");
  std::vector<std::pair<int, int>> edges;
  std::vector<double> t1, t2, ro, e1, ecx, dcx;
  for (int q = 0; q < num_qubits; ++q) {
    t1.push_back(vary(95.0, 170.0, q));
    t2.push_back(std::min(vary(50.0, 150.0, q + 3), 1.9 * t1.back()));
    ro.push_back(vary(0.012, 0.032, q + 5));
    e1.push_back(vary(1.8e-4, 4.5e-4, q + 7));
  }
  for (int q = 0; q + 1 < num_qubits; ++q) {
    edges.emplace_back(q, q + 1);
    ecx.push_back(vary(0.008, 0.015, q + 2));
    dcx.push_back(vary(300.0, 480.0, q + 4));
  }
  return assemble("fake_linear" + std::to_string(num_qubits), num_qubits,
                  std::move(edges), std::move(t1), std::move(t2),
                  std::move(ro), std::move(e1), std::move(ecx),
                  std::move(dcx));
}

BackendProperties fake_fully_connected(int num_qubits) {
  require(num_qubits >= 1, "fake_fully_connected: need at least one qubit");
  std::vector<std::pair<int, int>> edges;
  std::vector<double> t1, t2, ro, e1, ecx, dcx;
  for (int q = 0; q < num_qubits; ++q) {
    t1.push_back(vary(100.0, 160.0, q + 1));
    t2.push_back(std::min(vary(60.0, 140.0, q + 2), 1.9 * t1.back()));
    ro.push_back(vary(0.014, 0.03, q + 6));
    e1.push_back(vary(2.0e-4, 4.0e-4, q + 8));
  }
  int e = 0;
  for (int a = 0; a < num_qubits; ++a) {
    for (int b = a + 1; b < num_qubits; ++b, ++e) {
      edges.emplace_back(a, b);
      ecx.push_back(vary(0.009, 0.014, e));
      dcx.push_back(vary(310.0, 460.0, e + 3));
    }
  }
  return assemble("fake_full" + std::to_string(num_qubits), num_qubits,
                  std::move(edges), std::move(t1), std::move(t2),
                  std::move(ro), std::move(e1), std::move(ecx),
                  std::move(dcx));
}

BackendProperties fake_grid(int rows, int cols) {
  require(rows >= 1 && cols >= 1, "fake_grid: bad dimensions");
  const int n = rows * cols;
  std::vector<std::pair<int, int>> edges;
  std::vector<double> t1, t2, ro, e1, ecx, dcx;
  for (int q = 0; q < n; ++q) {
    t1.push_back(vary(100.0, 165.0, q + 4));
    t2.push_back(std::min(vary(55.0, 145.0, q + 9), 1.9 * t1.back()));
    ro.push_back(vary(0.013, 0.031, q));
    e1.push_back(vary(1.9e-4, 4.3e-4, q + 2));
  }
  int e = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int q = r * cols + c;
      if (c + 1 < cols) {
        edges.emplace_back(q, q + 1);
        ecx.push_back(vary(0.0085, 0.0148, e));
        dcx.push_back(vary(305.0, 475.0, e + 5));
        ++e;
      }
      if (r + 1 < rows) {
        edges.emplace_back(q, q + cols);
        ecx.push_back(vary(0.0085, 0.0148, e));
        dcx.push_back(vary(305.0, 475.0, e + 5));
        ++e;
      }
    }
  }
  return assemble("fake_grid" + std::to_string(rows) + "x" +
                      std::to_string(cols),
                  n, std::move(edges), std::move(t1), std::move(t2),
                  std::move(ro), std::move(e1), std::move(ecx),
                  std::move(dcx));
}

BackendProperties fake_backend_by_name(const std::string& name,
                                       int min_qubits) {
  if (name == "casablanca") return fake_casablanca();
  if (name == "jakarta") return fake_jakarta();
  if (name == "linear") return fake_linear(std::max(min_qubits, 2));
  if (name == "full") return fake_fully_connected(std::max(min_qubits, 2));
  throw Error("unknown backend device name: " + name +
              " (expected casablanca | jakarta | linear | full)");
}

}  // namespace qufi::noise
