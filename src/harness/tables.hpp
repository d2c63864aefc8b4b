// ASCII table + CSV rendering for the bench binaries. Every figure binary
// prints a paper-style table to stdout and optionally mirrors it to CSV.
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

/// Format helpers used by all bench binaries.
std::string fmt_double(double v, int precision = 3);
std::string fmt_percent(double ratio, int precision = 1);

/// The bench CLI shared by every figure binary.
struct BenchArgs {
  bool quick = false;  ///< `--quick`: the four-kernel smoke subset
  bool full = false;   ///< `--full`: the whole suite (drivers that allow it)
  std::string csv;     ///< `--csv PATH`: mirror tables to CSV (empty: off)
};

/// Parse `--quick`, `--csv PATH` and, with `allow_full`, `--full`. Any other
/// argument, or `--csv` without a path, prints usage to stderr and exits
/// with status 2.
BenchArgs parse_bench_args(int argc, char** argv, bool allow_full = false);

}  // namespace caps
