// Tables I & II: storage layout of the PerCTA/DIST entries and the total
// per-SM hardware budget of CAPS, plus the published synthesis numbers the
// energy model consumes.
#include <cstdio>

#include "core/hw_cost.hpp"
#include "harness/tables.hpp"

using namespace caps;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const GpuConfig cfg;
  const CapsHardwareCost cost = compute_caps_hardware_cost(cfg);

  std::printf("Table I — database entry size of the prefetcher\n\n");
  Table t1({"table", "fields", "total"});
  const PerCtaEntryLayout pe;
  const DistEntryLayout de;
  t1.add_row({"PerCTA",
              "PC (4B), leading warp id (1B), base address (4x4B)",
              std::to_string(pe.total()) + "B"});
  t1.add_row({"DIST", "PC (4B), stride (4B), mispredict counter (1B)",
              std::to_string(de.total()) + "B"});
  std::printf("%s\n", t1.to_string().c_str());

  std::printf("Table II — required hardware for tables (per SM)\n\n");
  Table t2({"table", "configuration", "total"});
  t2.add_row({"DIST",
              std::to_string(de.total()) + " bytes per entry, " +
                  std::to_string(cfg.caps.dist_entries) + " entries",
              std::to_string(cost.dist_bytes) + " bytes"});
  t2.add_row({"PerCTA",
              std::to_string(pe.total()) + " bytes per entry, " +
                  std::to_string(cfg.caps.percta_entries) + " entries, " +
                  std::to_string(cfg.max_ctas_per_sm) + " CTAs",
              std::to_string(cost.percta_bytes) + " bytes"});
  t2.add_row({"total", "", std::to_string(cost.total_bytes) + " bytes"});
  std::printf("%s\n", t2.to_string().c_str());

  std::printf("Synthesis estimates (Section V-D, used by the Fig. 15 energy "
              "model):\n");
  std::printf("  area            : %.3f mm^2 (%.2f%% of a %.0f mm^2 SM)\n",
              cost.area_mm2, 100.0 * cost.area_fraction_of_sm(),
              cost.sm_area_mm2);
  std::printf("  energy/access   : %.2f pJ\n", cost.energy_per_access_pj);
  std::printf("  static power    : %.0f uW\n", cost.static_power_uw);
  std::printf("\nExpected: 21B/9B entries, 36 + 672 = 708 bytes per SM.\n");

  if (!args.csv.empty()) t2.write_csv(args.csv);
  return 0;
}
