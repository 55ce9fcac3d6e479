// ASCII table rendering for paper-style tables (Table I/II reproductions and
// bench output rows).
#pragma once

#include <string>
#include <vector>

namespace mrl {

/// Builds and renders a left/right-aligned ASCII table:
///
///   TextTable t({"Machine", "GPUs", "Peak BW"});
///   t.add_row({"Perlmutter GPU", "4xA100", "100 GB/s"});
///   std::cout << t.render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Appends a horizontal separator line at the current position.
  void add_separator();

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const { return header_.size(); }

  /// Renders the table with a title line (optional) and box-drawing rules.
  [[nodiscard]] std::string render(const std::string& title = "") const;

 private:
  std::vector<std::string> header_;
  // A row with the sentinel single cell "\x01" renders as a separator.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mrl
