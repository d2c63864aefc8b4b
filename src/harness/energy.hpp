// First-order energy account (Fig. 15), GPUWattch-style: per-event dynamic
// energies plus chip static power, with the paper's published CAPS table
// costs (CapsHardwareCost: 15.07 pJ/access, 550 uW static per SM) added on
// top for CAPS runs.
#pragma once

#include "common/config.hpp"
#include "gpu/gpu.hpp"

namespace caps {

struct EnergyModel {
  // Dynamic energy per event, picojoules. Magnitudes follow the usual
  // GPUWattch breakdown for a Fermi-class part; only relative energy is
  // reported, so the shape (static share ~40%, DRAM-dominated dynamic)
  // matters more than the absolute scale.
  double instr_pj = 3000.0;        ///< one warp instruction through the pipe
  double l1_access_pj = 2000.0;
  double l2_access_pj = 5000.0;
  double dram_access_pj = 30000.0; ///< one 128B line to/from GDDR5
  double xbar_msg_pj = 1000.0;

  double static_watts = 8.0;       ///< whole-chip leakage + constant clocks

  /// Total energy in microjoules for one finished run.
  double total_uj(const GpuStats& s, const GpuConfig& cfg,
                  bool caps_tables_present) const;
};

}  // namespace caps
