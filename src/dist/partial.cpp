#include "dist/partial.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace qufi::dist {

namespace {

/// Round-trip double formatting, shared with every other result exporter.
std::string g17(double v) { return util::CsvWriter::field(v); }

/// Full-round-trip double parsing. std::stod throws out_of_range for
/// *subnormal* results (glibc strtod flags ERANGE on underflow), but
/// subnormals are legitimate %.17g round-trips of computed QVF values — so
/// parse via strtod directly and reject only true overflow.
double to_double(const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || end == nullptr || *end != '\0') {
    throw std::invalid_argument("to_double: " + s);
  }
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    throw std::out_of_range("to_double: " + s);
  }
  return v;
}

std::uint64_t to_u64(const std::string& s) { return std::stoull(s); }
int to_int(const std::string& s) { return std::stoi(s); }

}  // namespace

void write_partial(const std::string& path, const PartialResult& partial) {
  util::CsvWriter csv(path);
  const CampaignMetadata& m = partial.meta;
  // Always written as the current format (the idle_noise row is a v2 row,
  // the adaptive row a v3 one), whatever version the in-memory partial was
  // loaded from.
  csv.write_row({"qufi_partial", "3"});
  csv.write_row({"shard", std::to_string(partial.shard_index),
                 std::to_string(partial.shard_count)});
  csv.write_row({"expected_total_records",
                 std::to_string(partial.expected_total_records)});
  csv.write_row({"circuit", m.circuit_name});
  csv.write_row({"backend", m.backend_name});
  csv.write_row({"dims", std::to_string(m.circuit_qubits),
                 std::to_string(m.transpiled_gates)});
  csv.write_row({"grid", g17(m.grid.theta_step_deg), g17(m.grid.phi_step_deg),
                 g17(m.grid.theta_max_deg), g17(m.grid.phi_max_deg)});
  csv.write_row({"run", std::to_string(m.shots), std::to_string(m.seed),
                 m.double_fault ? "1" : "0"});
  csv.write_row({"idle_noise", m.idle_noise ? "1" : "0"});
  csv.write_row({"adaptive", m.adaptive ? "1" : "0",
                 g17(m.adaptive_policy.max_config_fraction),
                 g17(m.adaptive_policy.qvf_ci_target),
                 std::to_string(m.adaptive_policy.min_configs_per_point),
                 std::to_string(m.adaptive_policy.seed)});
  csv.write_row({"faultfree_qvf", g17(m.faultfree_qvf)});
  csv.write_row({"work", std::to_string(m.executions),
                 std::to_string(m.injections)});
  for (std::size_t i = 0; i < partial.points.size(); ++i) {
    const InjectionPoint& p = partial.points[i];
    csv.write_row({"point", std::to_string(i), std::to_string(p.instr_index),
                   std::to_string(p.qubit), std::to_string(p.logical_qubit),
                   std::to_string(p.moment)});
  }
  for (const InjectionRecord& r : partial.records) {
    csv.write_row({"record", std::to_string(r.point_index),
                   std::to_string(r.theta_index), std::to_string(r.phi_index),
                   std::to_string(r.neighbor_qubit),
                   std::to_string(r.theta1_index),
                   std::to_string(r.phi1_index), g17(r.qvf), g17(r.pa),
                   g17(r.pb)});
  }
}

PartialResult read_partial(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) throw Error("partial: cannot open: " + path);

  PartialResult out;
  std::string line;
  int line_no = 0;
  const auto fail = [&](const std::string& why) -> void {
    throw Error("partial: " + path + ":" + std::to_string(line_no) + ": " +
                why);
  };

  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = util::split_csv_line(line);
    if (fields.empty()) continue;
    const std::string& kind = fields[0];
    const auto want = [&](std::size_t n) {
      if (fields.size() < n + 1) fail("too few fields for " + kind + " row");
    };
    try {
      if (!saw_header) {
        if (kind != "qufi_partial") fail("missing qufi_partial header");
        want(1);
        const std::uint64_t version = to_u64(fields[1]);
        if (version < 1 || version > 3) fail("unsupported partial version");
        out.format_version = static_cast<std::uint32_t>(version);
        saw_header = true;
      } else if (kind == "shard") {
        want(2);
        out.shard_index = static_cast<std::uint32_t>(to_u64(fields[1]));
        out.shard_count = static_cast<std::uint32_t>(to_u64(fields[2]));
      } else if (kind == "expected_total_records") {
        want(1);
        out.expected_total_records = to_u64(fields[1]);
      } else if (kind == "circuit") {
        want(1);
        out.meta.circuit_name = fields[1];
      } else if (kind == "backend") {
        want(1);
        out.meta.backend_name = fields[1];
      } else if (kind == "dims") {
        want(2);
        out.meta.circuit_qubits = to_int(fields[1]);
        out.meta.transpiled_gates = to_int(fields[2]);
      } else if (kind == "grid") {
        want(4);
        out.meta.grid.theta_step_deg = to_double(fields[1]);
        out.meta.grid.phi_step_deg = to_double(fields[2]);
        out.meta.grid.theta_max_deg = to_double(fields[3]);
        out.meta.grid.phi_max_deg = to_double(fields[4]);
      } else if (kind == "run") {
        want(3);
        out.meta.shots = to_u64(fields[1]);
        out.meta.seed = to_u64(fields[2]);
        out.meta.double_fault = fields[3] == "1";
      } else if (kind == "idle_noise") {
        want(1);
        out.meta.idle_noise = fields[1] == "1";
      } else if (kind == "adaptive") {
        want(5);
        out.meta.adaptive = fields[1] == "1";
        out.meta.adaptive_policy.max_config_fraction = to_double(fields[2]);
        out.meta.adaptive_policy.qvf_ci_target = to_double(fields[3]);
        out.meta.adaptive_policy.min_configs_per_point =
            static_cast<std::uint32_t>(to_u64(fields[4]));
        out.meta.adaptive_policy.seed = to_u64(fields[5]);
      } else if (kind == "faultfree_qvf") {
        want(1);
        out.meta.faultfree_qvf = to_double(fields[1]);
      } else if (kind == "work") {
        want(2);
        out.meta.executions = to_u64(fields[1]);
        out.meta.injections = to_u64(fields[2]);
      } else if (kind == "point") {
        want(5);
        if (to_u64(fields[1]) != out.points.size()) {
          fail("point rows out of order");
        }
        InjectionPoint p;
        p.instr_index = static_cast<std::size_t>(to_u64(fields[2]));
        p.qubit = to_int(fields[3]);
        p.logical_qubit = to_int(fields[4]);
        p.moment = to_int(fields[5]);
        out.points.push_back(p);
      } else if (kind == "record") {
        want(9);
        InjectionRecord r;
        r.point_index = static_cast<std::uint32_t>(to_u64(fields[1]));
        r.theta_index = to_int(fields[2]);
        r.phi_index = to_int(fields[3]);
        r.neighbor_qubit = to_int(fields[4]);
        r.theta1_index = to_int(fields[5]);
        r.phi1_index = to_int(fields[6]);
        r.qvf = to_double(fields[7]);
        r.pa = to_double(fields[8]);
        r.pb = to_double(fields[9]);
        out.records.push_back(r);
      } else {
        fail("unknown row kind: " + kind);
      }
    } catch (const std::invalid_argument&) {
      fail("malformed number");
    } catch (const std::out_of_range&) {
      fail("number out of range");
    }
  }
  if (!saw_header) throw Error("partial: empty file: " + path);
  if (!(out.shard_count >= 1 && out.shard_index < out.shard_count)) {
    throw Error("partial: shard index/count out of range: " + path);
  }
  for (const InjectionRecord& r : out.records) {
    if (r.point_index >= out.points.size()) {
      throw Error("partial: record references unknown point: " + path);
    }
  }
  return out;
}

resio::ResultFileHeader columnar_partial_header(const PartialResult& partial) {
  resio::ResultFileHeader header;
  header.shard_index = partial.shard_index;
  header.shard_count = partial.shard_count;
  header.expected_total_records = partial.expected_total_records;
  header.meta = partial.meta;
  header.points = partial.points;
  return header;
}

void write_partial_columnar(const std::string& path,
                            const PartialResult& partial) {
  resio::write_result_file(path, columnar_partial_header(partial),
                           partial.records, partial.meta.executions,
                           partial.meta.injections);
}

PartialResult read_partial_any(const std::string& path) {
  if (!resio::is_result_file(path)) return read_partial(path);
  resio::LoadedResultFile file = resio::read_result_file(path);
  PartialResult out;
  out.shard_index = file.header.shard_index;
  out.shard_count = file.header.shard_count;
  out.expected_total_records = file.header.expected_total_records;
  out.meta = file.header.meta;
  out.meta.executions = file.executions;
  out.meta.injections = file.injections;
  out.points = file.header.points;
  out.records = std::move(file.records);
  if (!(out.shard_count >= 1 && out.shard_index < out.shard_count)) {
    throw Error("partial: shard index/count out of range: " + path);
  }
  return out;
}

}  // namespace qufi::dist
