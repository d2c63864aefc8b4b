// Human- and machine-readable renderings of a KernelAnalysis, shared by the
// capsim-analyze CLI and any harness code that wants to log a report.
#pragma once

#include <string>
#include <vector>

#include "analysis/kernel_analyzer.hpp"
#include "analysis/schedule_advisor.hpp"

namespace caps::analysis {

/// Fixed-width per-load table plus the predicted CAP table summary.
std::string text_report(const KernelAnalysis& ka);

/// Deterministic JSON object (no external dependencies; keys are emitted in
/// a fixed order so reports diff cleanly across runs; string values are
/// JSON-escaped).
std::string json_report(const KernelAnalysis& ka);

/// Schedule advisor renderings (DESIGN.md §12): predicted leading warp,
/// discovery orders, prefetch distances and timeliness classes.
std::string text_schedule_report(const ScheduleAdvice& adv);
std::string json_schedule_report(const ScheduleAdvice& adv);

/// Shared formatters, also used by the oracle diagnostics: "0x" + lowercase
/// hex, and a space-separated bracketed list such as "[0 3 6]".
std::string hex_addr(Addr a);
std::string cta_list(const std::vector<u32>& v);

/// JSON string escaping (quotes, backslashes, control characters) for the
/// names these reports and capsim-bench's emit verbatim.
std::string json_escape(const std::string& s);

}  // namespace caps::analysis
