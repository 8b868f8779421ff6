// flashbench: runs one benchmark workload for a fixed host-time budget and
// prints its metrics.
//
//   flashbench --workload <attack_eol|mixed_queued|phone_fs|fleet_mixed>
//              --seed N --seconds S --trace 0|1 [--commit ID]
//
// After one warm-up rep it repeats the workload's rep (see units.h) until S
// seconds have passed, and reports medians over the reps. With --trace 0 the
// reps run undecorated and the end-to-end metrics are printed; with
// --trace 1 untraced and traced reps alternate, and the per-layer metrics
// are printed, with trace.overhead_pct comparing the two. Every rep's
// outcome digest must equal the first's, traced or not. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exit code 0 means every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "units.h"

namespace {

using perfbench::Median;
using perfbench::Rep;
using Clock = std::chrono::steady_clock;

// At least kMinReps reps are measured, as long as that takes no more than
// kMinRepsBudget times --seconds (slow workloads on a slow host still finish
// well inside the run's time limit).
constexpr int kMinReps = 3;
constexpr double kMinRepsBudget = 2.0;

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_pct")) return "%";
  if (ends("_ns") || name.find("ns_per_") != std::string::npos) return "ns";
  if (ends("_s")) return "s";
  if (ends("_bytes_mean")) return "B";
  if (ends(".wa") || name.find("_per_") != std::string::npos || ends("_share")) {
    return "ratio";
  }
  return "count";
}

// The base of every ratio metric, printed beside it in the layer table.
const std::map<std::string, std::string>& RatioBases() {
  static const std::map<std::string, std::string> bases = [] {
    std::map<std::string, std::string> b = {
        {"device.ns_per_request", "device.submit_s / device.requests"},
        {"ftl.wa", "ftl.nand_pages / host pages written"},
        {"ftl.gc_candidates_per_pick", "GC candidates examined / ftl.gc_picks"},
        {"nand.reads_per_host_page", "nand.reads / ftl.host_pages"},
        {"fleet.overhead_share", "fleet.overhead_s / fleet.run_s"},
        {"trace.overhead_pct", "traced / untraced wall - 1"},
        {"trace.self_coverage_pct", "sum of layer self times / traced wall"},
        {"trace.span_ns", "wall of 100000 empty spans / 100000"},
    };
    for (const char* fs : {"ext4", "f2fs", "cowfs"}) {
      const std::string p = std::string("fs.") + fs + ".";
      b[p + "ns_per_app_write"] = p + "write_s / " + p + "write_calls";
      b[p + "wa"] = "device bytes / app bytes written";
      b[p + "cleaner_candidates_per_pick"] = "cleaner candidates / cleaner picks";
    }
    return b;
  }();
  return bases;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val);
    } else if (key == "--trace") {
      a->trace = std::atoi(val) != 0;
    } else if (key == "--commit") {
      a->commit = val;
    } else {
      return false;
    }
  }
  const auto& names = perfbench::WorkloadNames();
  return argc % 2 == 1 &&
         std::find(names.begin(), names.end(), a->workload) != names.end() &&
         a->seconds > 0;
}

void PrintNumber(double v) {
  std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: flashbench --workload <attack_eol|mixed_queued|phone_fs|"
                 "fleet_mixed> --seed N --seconds S --trace 0|1 [--commit ID]\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "flashbench: refusing to report numbers from an unoptimised or "
               "assert-enabled build (build type '%s')\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  std::printf("provenance: commit=%s compiler=\"%s\" build_type=%s nproc=%u\n",
              args.commit.c_str(), PERFBENCH_CXX_COMPILER, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  std::printf("workload: %s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  std::vector<Rep> plain;
  std::vector<Rep> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  uint64_t digest = 0;
  bool have_digest = false;
  auto record = [&](Rep&& rep, bool was_traced, bool keep) {
    attempted += rep.units;
    failed += rep.failed_units;
    for (const std::string& f : rep.failures) problems.push_back(f);
    if (!have_digest) {
      digest = rep.digest;
      have_digest = true;
    } else if (rep.digest != digest) {
      problems.push_back(std::string(was_traced ? "traced" : "untraced") +
                         " rep digest differs from the first rep's");
    }
    if (keep) (was_traced ? traced : plain).push_back(std::move(rep));
  };

  record(perfbench::RunRep(args.workload, args.seed, false), false, false);  // warm-up
  const Clock::time_point start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  do {
    record(perfbench::RunRep(args.workload, args.seed, false), false, true);
    if (args.trace) {
      record(perfbench::RunRep(args.workload, args.seed, true), true, true);
    }
  } while (elapsed() < args.seconds ||
           (static_cast<int>(plain.size()) < kMinReps &&
            elapsed() < kMinRepsBudget * args.seconds));

  std::printf("digest: %016" PRIx64 " (every rep%s)\n", digest,
              args.trace ? ", traced and untraced" : "");

  std::map<std::string, std::pair<double, std::string>> metrics;  // value, unit
  if (!args.trace) {
    std::vector<double> wall, setup, pages, devices, gap;
    for (const Rep& r : plain) {
      wall.push_back(r.wall_s);
      setup.push_back(r.setup_s);
      pages.push_back(r.sim_pages / r.wall_s);
      devices.push_back(static_cast<double>(r.units) / r.wall_s);
      gap.push_back(r.paper_gap_pct);
    }
    metrics["wall_s"] = {Median(wall), "s"};
    metrics["setup_s"] = {Median(setup), "s"};
    metrics["sim_pages_per_s"] = {Median(pages), "1/s"};
    metrics["devices_per_s"] = {Median(devices), "1/s"};
    metrics["peak_rss_mib"] = {PeakRssMiB(), "MiB"};
    // A fidelity guard, not a speed metric: it is a pure function of the
    // seed, and near zero it swings by whole factors from seed to seed.
    std::printf("paper gap: %.4f%% (see perfbench/README.md)\n", Median(gap));
    std::printf("reps: %zu, %" PRIu64 " units each\n", plain.size(),
                plain.front().units);
    std::printf("wall_s per rep:");
    for (double w : wall) std::printf(" %.4f", w);
    std::printf("\n");
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> overhead, coverage;
    for (size_t i = 0; i < traced.size(); ++i) {
      const Rep& t = traced[i];
      const Rep& p = plain[i];
      for (const auto& [name, v] : t.layers) samples[name].push_back(v);
      const bool replayed = t.replay_plain_s > 0;
      const double traced_s = replayed ? t.replay_traced_s : t.setup_s + t.wall_s;
      const double plain_s = replayed ? t.replay_plain_s : p.setup_s + p.wall_s;
      overhead.push_back((traced_s / plain_s - 1.0) * 100.0);
      coverage.push_back(t.self_sum_s / t.traced_root_s * 100.0);
    }
    samples["trace.overhead_pct"] = overhead;
    samples["trace.self_coverage_pct"] = coverage;
    for (const std::string& name : perfbench::LayerMetricNames()) {
      auto it = samples.find(name);
      metrics[name] = {it == samples.end() ? 0.0 : Median(it->second),
                       LayerUnit(name)};
    }
    const double cov = metrics["trace.self_coverage_pct"].first;
    if (std::fabs(cov - 100.0) > 5.0) {
      problems.push_back("layer self times cover " + std::to_string(cov) +
                         "% of the traced wall time (must be within 5%)");
    }
    std::printf("reps: %zu untraced + %zu traced\n", plain.size(), traced.size());
    std::printf("%-40s %16s %-6s %s\n", "per-layer metric (median)", "value", "unit",
                "base");
    for (const std::string& name : perfbench::LayerMetricNames()) {
      const auto& [v, unit] = metrics[name];
      auto base = RatioBases().find(name);
      std::printf("%-40s %16.6g %-6s %s\n", name.c_str(), v, unit.c_str(),
                  base == RatioBases().end() ? "" : base->second.c_str());
    }
  }

  for (const std::string& p : problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", name.c_str());
    PrintNumber(vu.first);
    std::printf(", \"unit\": \"%s\"}", vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
