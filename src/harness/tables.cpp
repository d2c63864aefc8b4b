#include "harness/tables.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace caps {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c];
      os << std::string(widths[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << std::string(widths[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << (c == 0 ? "" : ",") << row[c];
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

bool Table::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "warning: cannot write CSV to " << path << '\n';
    return false;
  }
  f << to_csv();
  return true;
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_percent(double ratio, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, ratio * 100.0);
  return buf;
}

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a.quick = true;
    } else if (arg == "--full") {
      a.full = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      a.csv = argv[++i];
    } else {
      std::fprintf(stderr,
                   "%s: unexpected argument '%s'\n"
                   "usage: %s [--quick] [--csv PATH] [--full]\n",
                   argv[0], arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  return a;
}

}  // namespace caps
