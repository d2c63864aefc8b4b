// ASCII table + CSV rendering for bench/paper_figures: each figure prints a
// paper-style table to stdout and optionally mirrors it to CSV.
#pragma once

#include <string>
#include <vector>

namespace caps {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Render with aligned columns.
  std::string to_string() const;
  /// Comma-separated (no escaping needed for our cell contents).
  std::string to_csv() const;

  /// Write CSV to `path`; returns false (with a note on stderr) on failure.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers for table cells.
std::string fmt_double(double v, int precision = 3);
std::string fmt_percent(double ratio, int precision = 1);

/// The command line of the paper driver.
struct BenchArgs {
  bool quick = false;  ///< `--quick`: the four-kernel smoke subset
  bool full = false;   ///< `--full`: Fig. 11 on the whole suite
  std::string csv;     ///< `--csv PATH`: mirror tables to CSV (empty: off)
};

/// Parse `--quick`, `--csv PATH` and `--full`. Any other argument, or
/// `--csv` without a path, prints usage to stderr and exits with status 2.
BenchArgs parse_bench_args(int argc, char** argv);

}  // namespace caps
