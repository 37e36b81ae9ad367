#include "util/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "util/error.hpp"

namespace qufi::util {

namespace {

constexpr const char* kGreen = "\x1b[32m";
constexpr const char* kRed = "\x1b[31m";
constexpr const char* kReset = "\x1b[0m";

/// Per-cell glyph: '.' masked / 'o' dubious / '#' silent-error, mirroring the
/// paper's green / white / red classification.
char classify_glyph(double v, const HeatmapOptions& o) {
  if (v < o.low_threshold) return '.';
  if (v > o.high_threshold) return '#';
  return 'o';
}

}  // namespace

std::string ascii_heatmap(const std::vector<std::vector<double>>& rows,
                          std::span<const std::string> row_labels,
                          std::span<const std::string> col_labels,
                          const HeatmapOptions& options) {
  require(rows.size() == row_labels.size(),
          "ascii_heatmap: row label count mismatch");
  std::size_t label_width = 0;
  for (const auto& l : row_labels) label_width = std::max(label_width, l.size());
  label_width = std::max<std::size_t>(label_width, 4);

  const int cw = std::max(options.cell_width, 4);
  std::ostringstream os;

  // Header row.
  os << std::string(label_width + 1, ' ');
  for (const auto& c : col_labels) {
    os << std::setw(cw + 2) << c.substr(0, static_cast<std::size_t>(cw + 1));
  }
  os << '\n';

  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != col_labels.size()) {
      throw Error(
          "ascii_heatmap: column count mismatch in row " + std::to_string(r));
    }
    os << std::setw(static_cast<int>(label_width)) << row_labels[r] << ' ';
    for (double v : rows[r]) {
      std::ostringstream cell;
      cell << classify_glyph(v, options) << std::fixed
           << std::setprecision(cw - 3) << v;
      if (options.use_color) {
        const char* color = v < options.low_threshold  ? kGreen
                            : v > options.high_threshold ? kRed
                                                          : "";
        os << "  " << color << cell.str() << (*color ? kReset : "");
      } else {
        os << "  " << cell.str();
      }
    }
    os << '\n';
  }
  os << std::string(label_width + 1, ' ')
     << "legend: .=masked(<" << options.low_threshold << ")  o=dubious  #=silent-error(>"
     << options.high_threshold << ")\n";
  return os.str();
}

std::string ascii_histogram(std::span<const double> bin_centers,
                            std::span<const double> values, int max_width) {
  require(bin_centers.size() == values.size(),
          "ascii_histogram: size mismatch");
  double peak = 0.0;
  for (double v : values) peak = std::max(peak, v);
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int bar =
        peak > 0 ? static_cast<int>(std::lround(values[i] / peak * max_width))
                 : 0;
    os << std::fixed << std::setprecision(3) << std::setw(7) << bin_centers[i]
       << " | " << std::string(static_cast<std::size_t>(bar), '#') << ' '
       << std::setprecision(4) << values[i] << '\n';
  }
  return os.str();
}

std::string ascii_grouped_bars(std::span<const std::string> categories,
                               std::span<const std::string> series_names,
                               const std::vector<std::vector<double>>& values,
                               double hi, int max_width) {
  require(values.size() == series_names.size(),
          "ascii_grouped_bars: series count mismatch");
  std::size_t name_width = 0;
  for (const auto& s : series_names) name_width = std::max(name_width, s.size());

  std::ostringstream os;
  for (std::size_t c = 0; c < categories.size(); ++c) {
    os << categories[c] << ":\n";
    for (std::size_t s = 0; s < series_names.size(); ++s) {
      require(values[s].size() == categories.size(),
              "ascii_grouped_bars: category count mismatch");
      const double v = values[s][c];
      const int bar = hi > 0
                          ? static_cast<int>(std::lround(
                                std::clamp(v / hi, 0.0, 1.0) * max_width))
                          : 0;
      os << "  " << std::setw(static_cast<int>(name_width)) << series_names[s]
         << " | " << std::string(static_cast<std::size_t>(bar), '=') << ' '
         << std::fixed << std::setprecision(4) << v << '\n';
    }
  }
  return os.str();
}

}  // namespace qufi::util
