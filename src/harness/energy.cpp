#include "harness/energy.hpp"

#include "core/hw_cost.hpp"

namespace caps {

double EnergyModel::total_uj(const GpuStats& s, const GpuConfig& cfg,
                             bool caps_tables_present) const {
  const double seconds =
      static_cast<double>(s.cycles) / (cfg.core_clock_mhz * 1e6);

  double dynamic_pj = 0.0;
  dynamic_pj += instr_pj * static_cast<double>(s.sm.issued_instructions);
  dynamic_pj += l1_access_pj * static_cast<double>(s.sm.l1_accesses +
                                                   s.sm.pf_issued_to_mem);
  dynamic_pj += l2_access_pj * static_cast<double>(s.l2.accesses);
  dynamic_pj +=
      dram_access_pj * static_cast<double>(s.dram.reads + s.dram.writes);
  dynamic_pj += xbar_msg_pj * static_cast<double>(s.core_requests() * 2);

  double total_uj = dynamic_pj * 1e-6 + static_watts * seconds * 1e6;

  if (caps_tables_present) {
    const u64 table_events = s.pf_engine.table_reads + s.pf_engine.table_writes;
    const CapsHardwareCost caps;  // the published Section V-D costs
    total_uj +=
        caps.energy_per_access_pj * static_cast<double>(table_events) * 1e-6;
    total_uj += caps.static_power_uw * 1e-6 * cfg.num_sms * seconds * 1e6;
  }
  return total_uj;
}

}  // namespace caps
