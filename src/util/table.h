// Aligned console tables for bench output ("the same rows the paper reports").
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace flash {

/// Collects rows of string cells and renders them with aligned columns.
///
/// Used by the fig* bench binaries to print paper-style result tables.
class TextTable {
 public:
  /// Sets the header row.
  void header(std::vector<std::string> cells);

  /// Appends a data row.
  void row(std::vector<std::string> cells);

  /// Renders with a separator line under the header.
  std::string render() const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style helpers for numeric cells.
std::string fmt(double v, int precision = 3);
std::string fmt_pct(double fraction, int precision = 1);  // 0.42 -> "42.0%"
/// Like fmt_pct with an explicit sign: 0.42 -> "+42.0%", -0.008 -> "-0.8%".
std::string fmt_signed_pct(double fraction, int precision = 1);
std::string fmt_sci(double v, int precision = 3);         // 1.2e+06
std::string fmt_ratio(double v, int precision = 2);       // 2.31 -> "2.31x"

}  // namespace flash
