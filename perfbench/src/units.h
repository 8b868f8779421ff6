// The benchmark's workloads and the code that drives one repetition of each.
//
// A repetition ("rep") runs every unit of a workload once: a unit is one
// simulated device driven to its stop condition (a campaign run, or a whole
// fleet). Its inputs are a campaign spec generated from the seed, so the
// same seed gives the same simulation. Block and phone units mirror the
// campaign runner's ExecuteRun step by step, but build the stack themselves
// so the traced run can slip the pass-through decorators of trace.h between
// the layers (the self-test proves the two paths simulate identically).

#ifndef PERFBENCH_SRC_UNITS_H_
#define PERFBENCH_SRC_UNITS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/campaign/spec.h"
#include "src/ftl/ftl_interface.h"
#include "src/fs/filesystem.h"
#include "src/workload/driver.h"
#include "trace.h"

namespace perfbench {

// NAND chip counters summed over a device's chips.
struct NandTotals {
  uint64_t programs = 0;
  uint64_t reads = 0;
  uint64_t erases = 0;
  uint64_t uncorrectable_reads = 0;
};

// One block- or phone-layer unit: a campaign run driven to its stop level.
struct UnitResult {
  std::string label;  // device slug, or the file system for phone units
  double setup_s = 0.0;
  double wall_s = 0.0;
  flashsim::WorkloadRunResult run;
  flashsim::FtlStats ftl;            // cumulative since device construction
  uint64_t timed_host_pages = 0;     // host pages read + written while timed
  double nand_per_app_byte = 0.0;    // NAND bytes programmed per byte issued
  NandTotals nand;
  bool has_fs = false;
  flashsim::FsStats fs;
  uint64_t digest_samples = 0;       // latency-digest samples recorded
  double volume_factor = 1.0;
  uint64_t digest = 0;               // FNV-1a over every simulated number
  std::vector<std::string> failures;
  Tracer trace;                      // filled only by traced units
};

// Executes one block- or phone-layer campaign run. With `traced` the
// workload, device and file system are wrapped in the timing decorators.
UnitResult RunUnit(const flashsim::RunSpec& run, bool traced);

// Everything one rep of a workload produced.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  uint64_t units = 0;
  uint64_t failed_units = 0;
  double sim_pages = 0.0;
  double paper_gap_pct = 0.0;
  uint64_t digest = 0;
  std::vector<std::string> failures;
  // Traced reps only: per-layer metrics by name, and the span accounting
  // check (sum of every layer's self time against the root wall time).
  std::map<std::string, double> layers;
  double traced_root_s = 0.0;
  double self_sum_s = 0.0;
  // fleet_mixed's traced reps: wall of the untraced and the traced replay of
  // every device, which stand in for the fleet in trace.overhead_pct.
  double replay_plain_s = 0.0;
  double replay_traced_s = 0.0;
};

const std::vector<std::string>& WorkloadNames();

// Runs one rep of `workload` on inputs generated from `seed`.
Rep RunRep(const std::string& workload, uint64_t seed, bool traced);

double Median(std::vector<double> values);

// Per-layer metric names, in report order; every traced rep sets each one.
const std::vector<std::string>& LayerMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_UNITS_H_
