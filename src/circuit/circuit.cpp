#include "circuit/circuit.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "util/error.hpp"

namespace qufi::circ {

QuantumCircuit::QuantumCircuit(int num_qubits, int num_clbits)
    : num_qubits_(num_qubits), num_clbits_(num_clbits) {
  require(num_qubits >= 0, "QuantumCircuit: negative qubit count");
  require(num_clbits >= 0, "QuantumCircuit: negative clbit count");
}

QuantumCircuit& QuantumCircuit::set_name(std::string name) {
  name_ = std::move(name);
  return *this;
}

void QuantumCircuit::check_qubit(int q) const {
  if (!(q >= 0 && q < num_qubits_)) {
    throw Error("qubit index " + std::to_string(q) + " out of range [0, " +
                    std::to_string(num_qubits_) + ")");
  }
}

void QuantumCircuit::check_clbit(int c) const {
  if (!(c >= 0 && c < num_clbits_)) {
    throw Error("clbit index " + std::to_string(c) + " out of range [0, " +
                    std::to_string(num_clbits_) + ")");
  }
}

QuantumCircuit& QuantumCircuit::add1(GateKind kind, int q) {
  return append(Instruction{kind, {q}, {}, {}});
}

QuantumCircuit& QuantumCircuit::add1p(GateKind kind, double angle, int q) {
  return append(Instruction{kind, {q}, {}, {angle}});
}

QuantumCircuit& QuantumCircuit::add2(GateKind kind, int a, int b) {
  return append(Instruction{kind, {a, b}, {}, {}});
}

QuantumCircuit& QuantumCircuit::u(double theta, double phi, double lambda,
                                  int q) {
  return append(Instruction{GateKind::U, {q}, {}, {theta, phi, lambda}});
}

QuantumCircuit& QuantumCircuit::cp(double angle, int control, int target) {
  return append(Instruction{GateKind::CP, {control, target}, {}, {angle}});
}

QuantumCircuit& QuantumCircuit::crz(double angle, int control, int target) {
  return append(Instruction{GateKind::CRZ, {control, target}, {}, {angle}});
}

QuantumCircuit& QuantumCircuit::ccx(int c0, int c1, int target) {
  return append(Instruction{GateKind::CCX, {c0, c1, target}, {}, {}});
}

QuantumCircuit& QuantumCircuit::barrier(std::vector<int> qubits) {
  if (qubits.empty()) {
    qubits.resize(static_cast<std::size_t>(num_qubits_));
    std::iota(qubits.begin(), qubits.end(), 0);
  }
  return append(Instruction{GateKind::Barrier, std::move(qubits), {}, {}});
}

QuantumCircuit& QuantumCircuit::measure(int qubit, int clbit) {
  return append(Instruction{GateKind::Measure, {qubit}, {clbit}, {}});
}

QuantumCircuit& QuantumCircuit::measure_all() {
  if (num_clbits_ < num_qubits_) num_clbits_ = num_qubits_;
  for (int q = 0; q < num_qubits_; ++q) measure(q, q);
  return *this;
}

QuantumCircuit& QuantumCircuit::reset(int qubit) {
  return append(Instruction{GateKind::Reset, {qubit}, {}, {}});
}

QuantumCircuit& QuantumCircuit::append(Instruction instr) {
  const auto& info = gate_info(instr.kind);
  if (info.num_qubits > 0) {
    if (static_cast<int>(instr.qubits.size()) != info.num_qubits) {
      throw Error(std::string(info.name) + ": expected " +
                      std::to_string(info.num_qubits) + " qubits, got " +
                      std::to_string(instr.qubits.size()));
    }
  } else {
    require(!instr.qubits.empty(), "barrier: needs at least one qubit");
  }
  if (static_cast<int>(instr.params.size()) != info.num_params) {
    throw Error(std::string(info.name) + ": expected " +
                    std::to_string(info.num_params) + " params, got " +
                    std::to_string(instr.params.size()));
  }
  for (int q : instr.qubits) check_qubit(q);
  for (std::size_t a = 0; a < instr.qubits.size(); ++a)
    for (std::size_t b = a + 1; b < instr.qubits.size(); ++b)
      if (instr.qubits[a] == instr.qubits[b]) {
        throw Error(std::string(info.name) + ": duplicate qubit operand " +
                        std::to_string(instr.qubits[a]));
      }
  if (instr.kind == GateKind::Measure) {
    require(instr.clbits.size() == 1, "measure: needs exactly one clbit");
    check_clbit(instr.clbits[0]);
  } else {
    if (!instr.clbits.empty()) {
      throw Error(std::string(info.name) + ": unexpected clbit operands");
    }
  }
  instructions_.push_back(std::move(instr));
  return *this;
}

QuantumCircuit& QuantumCircuit::compose(const QuantumCircuit& other) {
  require(other.num_qubits_ <= num_qubits_,
          "compose: other circuit has more qubits");
  require(other.num_clbits_ <= num_clbits_,
          "compose: other circuit has more clbits");
  for (const auto& instr : other.instructions_) append(instr);
  return *this;
}

QuantumCircuit& QuantumCircuit::compose(const QuantumCircuit& other,
                                        const std::vector<int>& qubit_map) {
  require(static_cast<int>(qubit_map.size()) == other.num_qubits_,
          "compose: qubit_map size mismatch");
  for (const auto& instr : other.instructions_) {
    Instruction mapped = instr;
    for (auto& q : mapped.qubits) q = qubit_map.at(static_cast<std::size_t>(q));
    append(std::move(mapped));
  }
  return *this;
}

QuantumCircuit QuantumCircuit::inverse() const {
  QuantumCircuit inv(num_qubits_, num_clbits_);
  inv.set_name(name_ + "_dg");
  for (auto it = instructions_.rbegin(); it != instructions_.rend(); ++it) {
    if (it->kind == GateKind::Barrier) {
      inv.append(*it);
      continue;
    }
    if (!it->is_unitary()) {
      throw Error(std::string("inverse: circuit contains non-unitary op ") +
                      it->name());
    }
    const auto ig = gate_inverse(it->kind, it->params);
    Instruction instr;
    instr.kind = ig.kind;
    instr.qubits = it->qubits;
    instr.params.assign(ig.params.begin(), ig.params.begin() + ig.num_params);
    inv.append(std::move(instr));
  }
  return inv;
}

std::map<std::string, int> QuantumCircuit::count_ops() const {
  std::map<std::string, int> counts;
  for (const auto& instr : instructions_) ++counts[instr.name()];
  return counts;
}

int QuantumCircuit::num_unitary_gates() const {
  int n = 0;
  for (const auto& instr : instructions_)
    if (instr.is_unitary()) ++n;
  return n;
}

int QuantumCircuit::depth() const {
  std::vector<int> level(static_cast<std::size_t>(num_qubits_ + num_clbits_),
                         0);
  int depth = 0;
  for (const auto& instr : instructions_) {
    int start = 0;
    const auto touch = [&](int wire) {
      start = std::max(start, level[static_cast<std::size_t>(wire)]);
    };
    for (int q : instr.qubits) touch(q);
    for (int c : instr.clbits) touch(num_qubits_ + c);
    if (instr.kind == GateKind::Barrier) {
      // Synchronize without consuming a layer.
      for (int q : instr.qubits) level[static_cast<std::size_t>(q)] = start;
      continue;
    }
    const int end = start + 1;
    for (int q : instr.qubits) level[static_cast<std::size_t>(q)] = end;
    for (int c : instr.clbits)
      level[static_cast<std::size_t>(num_qubits_ + c)] = end;
    depth = std::max(depth, end);
  }
  return depth;
}

bool QuantumCircuit::measurements_are_terminal() const {
  std::vector<bool> measured(static_cast<std::size_t>(num_qubits_), false);
  for (const auto& instr : instructions_) {
    if (instr.kind == GateKind::Measure) {
      measured[static_cast<std::size_t>(instr.qubits[0])] = true;
    } else if (instr.kind != GateKind::Barrier) {
      for (int q : instr.qubits) {
        if (measured[static_cast<std::size_t>(q)]) return false;
      }
    }
  }
  return true;
}

std::vector<int> QuantumCircuit::active_qubits() const {
  std::vector<bool> used(static_cast<std::size_t>(num_qubits_), false);
  for (const auto& instr : instructions_) {
    if (instr.kind == GateKind::Barrier) continue;
    for (int q : instr.qubits) used[static_cast<std::size_t>(q)] = true;
  }
  std::vector<int> out;
  for (int q = 0; q < num_qubits_; ++q)
    if (used[static_cast<std::size_t>(q)]) out.push_back(q);
  return out;
}

std::string QuantumCircuit::to_string() const {
  std::ostringstream os;
  os << name_ << " (" << num_qubits_ << " qubits, " << num_clbits_
     << " clbits, " << instructions_.size() << " ops, depth " << depth()
     << ")\n";
  for (const auto& instr : instructions_) {
    os << "  " << instr.name();
    if (!instr.params.empty()) {
      os << '(';
      for (std::size_t k = 0; k < instr.params.size(); ++k) {
        if (k) os << ", ";
        os << instr.params[k];
      }
      os << ')';
    }
    os << ' ';
    for (std::size_t k = 0; k < instr.qubits.size(); ++k) {
      if (k) os << ',';
      os << 'q' << instr.qubits[k];
    }
    if (!instr.clbits.empty()) os << " -> c" << instr.clbits[0];
    os << '\n';
  }
  return os.str();
}

}  // namespace qufi::circ
