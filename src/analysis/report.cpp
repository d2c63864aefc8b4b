#include "analysis/report.hpp"

#include <cstdio>
#include <iomanip>
#include <sstream>

namespace caps::analysis {
namespace {

std::string flags_of(const LoadAnalysis& l) {
  std::string f;
  auto add = [&](const char* tag) {
    if (!f.empty()) f += ',';
    f += tag;
  };
  if (l.loop_variant) add("loop-variant");
  else if (l.in_loop) add("in-loop");
  if (l.wrap_hazard) add("wrap-hazard");
  else if (l.wrap_engaged) add("wrap-aliased");
  if (l.partial_tail_warp) add("partial-warp");
  if (!l.uniform_line_count) add("varying-lines");
  return f.empty() ? std::string(1, '-') : f;
}

void json_str(std::ostringstream& os, const char* key, const std::string& v,
              bool comma = true) {
  os << '"' << key << "\":\"" << json_escape(v) << '"' << (comma ? "," : "");
}

template <typename T>
void json_num(std::ostringstream& os, const char* key, T v,
              bool comma = true) {
  os << '"' << key << "\":" << v << (comma ? "," : "");
}

void json_bool(std::ostringstream& os, const char* key, bool v,
               bool comma = true) {
  os << '"' << key << "\":" << (v ? "true" : "false") << (comma ? "," : "");
}

void json_u32_array(std::ostringstream& os, const char* key,
                    const std::vector<u32>& v, bool comma = true) {
  os << '"' << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << v[i] << (i + 1 < v.size() ? "," : "");
  os << "]" << (comma ? "," : "");
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string cta_list(const std::vector<u32>& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << " ";
    os << v[i];
  }
  os << "]";
  return os.str();
}

std::string hex_addr(Addr a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

std::string text_report(const KernelAnalysis& ka) {
  std::ostringstream os;
  os << "kernel " << ka.kernel << "  grid " << format_dim3(ka.grid)
     << "  block " << format_dim3(ka.block) << "  warps/CTA "
     << ka.warps_per_cta << "\n";
  os << "  " << std::left << std::setw(8) << "pc" << std::setw(14) << "class"
     << std::setw(8) << "delta" << std::setw(7) << "lines" << std::setw(9)
     << "issues" << std::setw(30) << "theta(c)" << "flags\n";
  for (const LoadAnalysis& l : ka.loads) {
    std::ostringstream pc, delta, theta;
    pc << "0x" << std::hex << l.pc;
    if (l.prefetchable())
      delta << l.line_stride;
    else
      delta << "-";
    if (l.cls == LoadClass::kIndirect) {
      theta << "hash[0x" << std::hex << l.pattern.base << std::dec << " +"
            << l.pattern.region_bytes << ")";
    } else {
      theta << "0x" << std::hex << l.theta_base << std::dec;
      if (l.theta_cta_x != 0) theta << " + " << l.theta_cta_x << "*cx";
      if (l.theta_cta_y != 0) theta << " + " << l.theta_cta_y << "*cy";
    }
    os << "  " << std::left << std::setw(8) << pc.str() << std::setw(14)
       << to_string(l.cls) << std::setw(8) << delta.str() << std::setw(7)
       << l.lines_per_warp << std::setw(9) << l.dynamic_issues
       << std::setw(30) << theta.str() << flags_of(l) << "\n";
  }
  os << "  predicted: DIST valid " << ka.predicted_dist_valid
     << ", PerCTA peak " << ka.predicted_percta_peak
     << ", excluded_indirect " << ka.predicted_excluded_indirect
     << ", excluded_uncoalesced " << ka.predicted_excluded_uncoalesced
     << "\n";
  return os.str();
}

std::string json_report(const KernelAnalysis& ka) {
  std::ostringstream os;
  os << "{";
  json_str(os, "kernel", ka.kernel);
  json_str(os, "grid", format_dim3(ka.grid));
  json_str(os, "block", format_dim3(ka.block));
  json_num(os, "warps_per_cta", ka.warps_per_cta);
  json_num(os, "line_size", ka.line_size);
  os << "\"loads\":[";
  for (std::size_t i = 0; i < ka.loads.size(); ++i) {
    const LoadAnalysis& l = ka.loads[i];
    os << "{";
    json_num(os, "pc", l.pc);
    json_str(os, "class", to_string(l.cls));
    json_bool(os, "prefetchable", l.prefetchable());
    json_num(os, "line_stride", l.line_stride);
    json_num(os, "warp_stride_bytes", l.warp_stride_bytes);
    json_num(os, "lines_per_warp", l.lines_per_warp);
    json_num(os, "dynamic_issues", l.dynamic_issues);
    json_num(os, "theta_base", l.theta_base);
    json_num(os, "theta_cta_x", l.theta_cta_x);
    json_num(os, "theta_cta_y", l.theta_cta_y);
    json_bool(os, "in_loop", l.in_loop);
    json_bool(os, "loop_variant", l.loop_variant);
    json_bool(os, "wrap_engaged", l.wrap_engaged);
    json_bool(os, "wrap_hazard", l.wrap_hazard);
    json_bool(os, "partial_tail_warp", l.partial_tail_warp);
    json_bool(os, "uniform_line_count", l.uniform_line_count, false);
    os << "}" << (i + 1 < ka.loads.size() ? "," : "");
  }
  os << "],";
  json_num(os, "predicted_dist_valid", ka.predicted_dist_valid);
  json_num(os, "predicted_percta_peak", ka.predicted_percta_peak);
  json_num(os, "predicted_excluded_indirect", ka.predicted_excluded_indirect);
  json_num(os, "predicted_excluded_uncoalesced",
           ka.predicted_excluded_uncoalesced, false);
  os << "}";
  return os.str();
}

std::string text_schedule_report(const ScheduleAdvice& adv) {
  std::ostringstream os;
  os << "schedule " << adv.kernel << "  warps/CTA " << adv.warps_per_cta
     << "  CTAs/SM " << adv.max_concurrent_ctas << "  initial wave "
     << adv.initial_wave_ctas << "  leading warp "
     << adv.predicted_leading_warp << "\n";
  os << "  round " << adv.round_cycles << " cyc, fill round trip "
     << adv.fill_round_trip << " cyc, pending warps/SM " << adv.pending_warps
     << ", eager-wakeup opportunity "
     << (adv.wakeup_opportunity ? "yes" : "no") << "\n";
  if (!adv.has_global_load) {
    os << "  no global load: no base-address discovery\n";
  } else if (adv.order_reliable) {
    os << "  discovery of first load " << hex_addr(adv.first_load_pc)
       << " across the initial wave (SM 0 shown; all SMs in JSON):\n";
    for (const SmWave& w : adv.waves) {
      if (w.sm_id != 0) continue;
      os << "    PAS " << cta_list(w.discovery_pas) << "  PAS-GTO "
         << cta_list(w.discovery_pas_gto) << "\n";
    }
  } else {
    os << "  discovery order unreliable: " << adv.order_caveat << "\n";
  }
  os << "  " << std::left << std::setw(8) << "pc" << std::setw(17)
     << "timeliness" << std::setw(25) << "rule" << std::setw(6) << "body"
     << std::setw(11) << "ready-gap" << "wakeup-gap\n";
  for (const PcSchedule& ps : adv.pcs) {
    os << "  " << std::left << std::setw(8) << hex_addr(ps.pc)
       << std::setw(17) << to_string(ps.timeliness) << std::setw(25)
       << ps.rule << std::setw(6) << ps.loop_body_cycles << std::setw(11)
       << ps.ready_gap_rounds << ps.wakeup_gap_rounds << "\n";
  }
  return os.str();
}

std::string json_schedule_report(const ScheduleAdvice& adv) {
  std::ostringstream os;
  os << "{";
  json_str(os, "kernel", adv.kernel);
  json_num(os, "warps_per_cta", adv.warps_per_cta);
  json_num(os, "max_concurrent_ctas", adv.max_concurrent_ctas);
  json_num(os, "initial_wave_ctas", adv.initial_wave_ctas);
  json_num(os, "predicted_leading_warp", adv.predicted_leading_warp);
  json_bool(os, "has_global_load", adv.has_global_load);
  json_num(os, "first_load_pc", adv.first_load_pc);
  json_bool(os, "order_reliable", adv.order_reliable);
  json_str(os, "order_caveat", adv.order_caveat);
  json_num(os, "pending_warps", adv.pending_warps);
  json_bool(os, "wakeup_opportunity", adv.wakeup_opportunity);
  json_num(os, "round_cycles", adv.round_cycles);
  json_num(os, "fill_round_trip", adv.fill_round_trip);
  os << "\"pcs\":[";
  for (std::size_t i = 0; i < adv.pcs.size(); ++i) {
    const PcSchedule& ps = adv.pcs[i];
    os << "{";
    json_num(os, "pc", ps.pc);
    json_bool(os, "prefetchable", ps.prefetchable);
    json_bool(os, "wrap_hazard", ps.wrap_hazard);
    json_bool(os, "in_loop", ps.in_loop);
    json_bool(os, "barrier_in_loop", ps.barrier_in_loop);
    json_bool(os, "stall_adjacent", ps.stall_adjacent);
    json_num(os, "loop_body_cycles", ps.loop_body_cycles);
    json_num(os, "ready_gap_rounds", ps.ready_gap_rounds);
    json_num(os, "wakeup_gap_rounds", ps.wakeup_gap_rounds);
    json_str(os, "timeliness", to_string(ps.timeliness));
    json_str(os, "rule", ps.rule, false);
    os << "}" << (i + 1 < adv.pcs.size() ? "," : "");
  }
  os << "],";
  os << "\"waves\":[";
  for (std::size_t i = 0; i < adv.waves.size(); ++i) {
    const SmWave& w = adv.waves[i];
    os << "{";
    json_num(os, "sm", w.sm_id);
    json_u32_array(os, "ctas", w.ctas);
    json_u32_array(os, "discovery_pas", w.discovery_pas);
    json_u32_array(os, "discovery_pas_gto", w.discovery_pas_gto, false);
    os << "}" << (i + 1 < adv.waves.size() ? "," : "");
  }
  os << "]}";
  return os.str();
}

}  // namespace caps::analysis
