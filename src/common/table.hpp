// ASCII table rendering used by the bench binaries to print paper-style
// tables (paper value vs measured value side by side).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vlsip {

/// Column-aligned ASCII table. Numeric formatting is up to the caller;
/// the table only handles layout.
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header);

  /// Appends a row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Appends a horizontal separator line at this position.
  void add_separator();

  /// Renders with single-space-padded `|` separated cells and a rule
  /// under the header.
  std::string render() const;

 private:
  struct Row {
    bool separator = false;
    std::vector<std::string> cells;
  };

  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

/// Formats `v` with `digits` significant digits (bench-table friendly).
std::string format_sig(double v, int digits = 3);

/// Formats `v` in scientific notation "a.bc x 10^k" like the paper tables.
std::string format_pow10(double v, int mantissa_digits = 2);

}  // namespace vlsip
