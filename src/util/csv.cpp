#include "util/csv.hpp"

#include "util/error.hpp"

namespace qufi::util {

namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quote(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path) : out_(path), path_(path) {
  if (!out_.good()) throw Error("CsvWriter: cannot open " + path);
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << (needs_quoting(fields[i]) ? quote(fields[i]) : fields[i]);
  }
  out_ << '\n';
  out_.flush();
  if (!out_.good()) throw Error("CsvWriter: write failed for " + path_);
}

void CsvWriter::write_row(std::initializer_list<std::string> fields) {
  write_row(std::vector<std::string>(fields));
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // swallow CR of CRLF
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace qufi::util
