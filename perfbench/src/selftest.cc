// Pass-through proof for the benchmark's timing decorators.
//
// Each decorator (TimedWorkload, TimedBlockDevice, TimedFilesystem) must
// forward every call unchanged: driving a stack through it must leave the
// simulation bit-identical to driving the bare stack. The checks compare
// full device snapshots, file-system stats and workload streams, and finally
// whole benchmark units, traced against untraced and against the campaign
// runner's own ExecuteRun. Exits non-zero on the first mismatch.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/campaign/runner.h"
#include "src/device/catalog.h"
#include "src/fs/cowfs.h"
#include "src/fs/extfs.h"
#include "src/fs/logfs.h"
#include "src/simcore/snapshot.h"
#include "src/simcore/units.h"
#include "src/workload/generators.h"
#include "trace.h"
#include "units.h"

using namespace flashsim;
using perfbench::Tracer;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<uint8_t> Snapshot(const FlashDevice& device) {
  SnapshotWriter w;
  device.SaveState(w);
  return w.buffer();
}

SyntheticWorkloadConfig MixedConfig() {
  SyntheticWorkloadConfig c;
  c.pattern = AccessPattern::kRandom;
  c.request_bytes = 4096;
  c.total_bytes = 8 * kMiB;
  c.span_fraction = 0.5;
  c.read_fraction = 0.3;
  return c;
}

void WorkloadStreamUnchanged() {
  SyntheticWorkload bare(MixedConfig());
  SyntheticWorkload inner(MixedConfig());
  Tracer tracer;
  perfbench::TimedWorkload timed(inner, tracer);
  bare.Reset(11);
  timed.Reset(11);
  bool same = bare.MayRead() == timed.MayRead() && bare.name() == timed.name();
  uint64_t n = 0;
  for (;; ++n) {
    WorkloadOp a;
    WorkloadOp b;
    const bool more_a = bare.Next(64 * kMiB, &a);
    const bool more_b = timed.Next(64 * kMiB, &b);
    same = same && more_a == more_b;
    if (!more_a || !more_b) break;
    same = same && a.kind == b.kind && a.offset == b.offset &&
           a.length == b.length && a.pre_idle.nanos() == b.pre_idle.nanos();
  }
  Expect(same && n > 0, "TimedWorkload yields the identical op stream");
  Expect(tracer.totals(perfbench::Layer::kWorkloadNext).calls == n + 2,
         "TimedWorkload times every Next and Reset");
}

void DeviceStateUnchanged() {
  auto bare = MakeEmmc8(SimScale{64, 64}, 5);
  auto inner = MakeEmmc8(SimScale{64, 64}, 5);
  bare->ConfigureQueue(2, 8, false);
  inner->ConfigureQueue(2, 8, false);
  Tracer tracer;
  perfbench::TimedBlockDevice timed(*inner, tracer);
  WorkloadDriveOptions opts;
  opts.loop = true;
  opts.stop_at_level = 3;
  opts.max_bytes = 1 * kGiB;
  SyntheticWorkload wa(MixedConfig());
  SyntheticWorkload wb(MixedConfig());
  const WorkloadRunResult ra = RunWorkloadOnDevice(wa, *bare, opts);
  const WorkloadRunResult rb = RunWorkloadOnDevice(wb, timed, opts);
  Expect(ra.requests == rb.requests && ra.levels.size() == rb.levels.size() &&
             ra.reached_level && rb.reached_level,
         "TimedBlockDevice run result matches the bare device");
  Expect(Snapshot(*bare) == Snapshot(*inner),
         "TimedBlockDevice leaves a byte-identical device snapshot");
  Expect(tracer.device_requests > ra.requests,
         "TimedBlockDevice counts prefill and workload requests");
}

template <typename Fs>
void FsStateUnchanged(const char* name) {
  auto dev_a = MakeMotoE8(SimScale{128, 64}, 9);
  auto dev_b = MakeMotoE8(SimScale{128, 64}, 9);
  Fs bare(*dev_a);
  Fs inner(*dev_b);
  Tracer tracer;
  perfbench::TimedFilesystem timed(inner, tracer);
  SyntheticWorkloadConfig c;
  c.pattern = AccessPattern::kRandom;
  c.total_bytes = 4 * kMiB;
  FileLayerLayout layout;
  layout.file_bytes = 256 * kKiB;
  WorkloadDriveOptions opts;
  SyntheticWorkload wa(c);
  SyntheticWorkload wb(c);
  const WorkloadRunResult ra = RunWorkloadOnFilesystem(wa, bare, layout, opts);
  const WorkloadRunResult rb = RunWorkloadOnFilesystem(wb, timed, layout, opts);
  const FsStats& sa = bare.stats();
  const FsStats& sb = timed.stats();
  Expect(ra.status.ok() && rb.status.ok() && ra.requests == rb.requests &&
             sa.app_bytes_written == sb.app_bytes_written &&
             sa.DeviceBytesTotal() == sb.DeviceBytesTotal() &&
             sa.metadata_commits == sb.metadata_commits,
         std::string("TimedFilesystem keeps ") + name + " stats identical");
  Expect(Snapshot(*dev_a) == Snapshot(*dev_b),
         std::string("TimedFilesystem leaves a byte-identical device under ") + name);
  Expect(tracer.totals(perfbench::Layer::kFsWrite).calls >= ra.requests,
         std::string("TimedFilesystem times every ") + name + " write");
}

// Whole benchmark units: traced == untraced, and both equal the campaign
// runner's ExecuteRun on the same RunSpec.
void UnitsMatchCampaignRunner() {
  const char* text = R"(
campaign selftest seed=7
workload w pattern=random request=4KiB total=8MiB span=50% read_fraction=0.3
workload s pattern=random request=4KiB total=2MiB
grid b layer=block metric=wear devices=emmc8 workloads=w scale=64x64 target_level=4 channels=2 depth=8
grid p layer=phone metric=wear devices=moto_e8 fs=ext4,f2fs,cowfs workloads=s scale=128x64 utilization=0.55 target_level=3
)";
  Result<CampaignSpec> spec = ParseCampaignSpec(text);
  if (!spec.ok()) {
    Expect(false, "self-test spec parses: " + spec.status().ToString());
    return;
  }
  for (const RunSpec& run : ExpandRuns(spec.value())) {
    const perfbench::UnitResult plain = perfbench::RunUnit(run, false);
    const perfbench::UnitResult traced = perfbench::RunUnit(run, true);
    const RunRecord ref = ExecuteRun(run);
    const std::string id = run.grid + "/" + plain.label;
    Expect(plain.failures.empty() && traced.failures.empty(),
           id + ": unit checks pass" +
               (plain.failures.empty() ? "" : " (" + plain.failures[0] + ")"));
    Expect(plain.digest == traced.digest, id + ": traced digest == untraced digest");
    bool levels_same = ref.levels.size() == plain.run.levels.size();
    for (size_t i = 0; levels_same && i < ref.levels.size(); ++i) {
      levels_same = ref.levels[i].host_bytes == plain.run.levels[i].host_bytes;
    }
    Expect(ref.requests == plain.run.requests &&
               ref.bytes_written == plain.run.bytes_written &&
               ref.bytes_read == plain.run.bytes_read &&
               ref.device_wa == plain.ftl.WriteAmplification() &&
               ref.gc_picks == plain.ftl.gc_victim_picks &&
               ref.fs_commits == plain.fs.metadata_commits &&
               ref.write_lat_count + ref.read_lat_count == plain.digest_samples &&
               levels_same,
           id + ": unit simulates exactly what ExecuteRun does");
  }
}

}  // namespace

int main() {
  WorkloadStreamUnchanged();
  DeviceStateUnchanged();
  FsStateUnchanged<ExtFs>("ext4");
  FsStateUnchanged<LogFs>("f2fs");
  FsStateUnchanged<CowFs>("cowfs");
  UnitsMatchCampaignRunner();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
