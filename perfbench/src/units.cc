#include "units.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "src/campaign/runner.h"
#include "src/device/catalog.h"
#include "src/fleet/report.h"
#include "src/fleet/runner.h"
#include "src/fleet/shard.h"
#include "src/fs/cowfs.h"
#include "src/fs/extfs.h"
#include "src/fs/logfs.h"
#include "src/ftl/block_map_ftl.h"
#include "src/ftl/hybrid_ftl.h"
#include "src/ftl/page_map_ftl.h"
#include "src/simcore/rng.h"
#include "src/simcore/units.h"
#include "src/wearlab/paper_targets.h"
#include "src/workload/generators.h"

namespace perfbench {

using flashsim::BlockDevice;
using flashsim::CampaignSpec;
using flashsim::Filesystem;
using flashsim::FlashDevice;
using flashsim::FtlStats;
using flashsim::PaperTargets;
using flashsim::RunSpec;
using flashsim::Status;
using flashsim::SyntheticWorkload;
using flashsim::WorkloadDriveOptions;
using flashsim::WorkloadRunResult;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Campaign specs of the four workloads; "SEED" is replaced by the seed.
//
// Scales are chosen so one rep takes one to a few seconds of host time: long
// enough that timer and start-up noise vanish, short enough that a run
// repeats it several times and reports medians.
constexpr const char* kAttackEolSpec = R"(
campaign attack_eol seed=SEED
workload attack pattern=random request=4KiB total=64MiB span=3%
grid fig2 layer=block metric=wear devices=emmc8 workloads=attack scale=16x16 target_level=11
)";

constexpr const char* kMixedQueuedSpec = R"(
campaign mixed_queued seed=SEED
workload mixed pattern=random request=4KiB total=64MiB span=90% read_fraction=0.3
grid queued layer=block metric=wear devices=emmc8 workloads=mixed scale=16x32 target_level=11 channels=2 depth=8
)";

// Figure 4's phone, once per file system, at Figure 4's 32x32 scale. F2FS
// costs ~100x more host time per app write than Ext4 or CowFs, so it runs
// only through its first wear level; the others run to level 11.
constexpr const char* kPhoneFsSpec = R"(
campaign phone_fs seed=SEED
workload sync4k pattern=random request=4KiB total=64MiB
grid ext4 layer=phone metric=wear devices=moto_e8 fs=ext4 workloads=sync4k scale=32x32 utilization=0.55 target_level=11 files=4x100MiB sync=1
grid f2fs layer=phone metric=wear devices=moto_e8 fs=f2fs workloads=sync4k scale=32x32 utilization=0.55 target_level=2 files=4x100MiB sync=1
grid cowfs layer=phone metric=wear devices=moto_e8 fs=cowfs workloads=sync4k scale=32x32 utilization=0.55 target_level=11 files=4x100MiB sync=1
)";

// examples/specs/fleet_smoke.spec's population, fewer devices.
constexpr const char* kFleetMixedSpec = R"(
campaign fleet_mixed seed=SEED
workload attack4k pattern=random request=4KiB total=8MiB span=50%
workload daily pattern=hotcold request=64KiB total=16MiB span=75% hot_fraction=0.1 hot_probability=0.9 read_fraction=0.6 idle=50ms
fleet mixed count=64 devices=blu512,emmc8 workloads=attack4k,daily scale=256x256 shard=64 slice=16MiB max_device_bytes=768MiB
)";

const char* SpecTemplate(const std::string& workload) {
  if (workload == "attack_eol") return kAttackEolSpec;
  if (workload == "mixed_queued") return kMixedQueuedSpec;
  if (workload == "phone_fs") return kPhoneFsSpec;
  if (workload == "fleet_mixed") return kFleetMixedSpec;
  return nullptr;
}

CampaignSpec ParseSpec(const std::string& workload, uint64_t seed) {
  std::string text = SpecTemplate(workload);
  text.replace(text.find("SEED"), 4, std::to_string(seed));
  flashsim::Result<CampaignSpec> spec = flashsim::ParseCampaignSpec(text);
  if (!spec.ok()) {
    // The templates are constants; a parse error is a benchmark bug.
    std::fprintf(stderr, "perfbench: bad built-in spec: %s\n",
                 spec.status().ToString().c_str());
    std::abort();
  }
  return std::move(spec).value();
}

// FNV-1a over raw values.
class Hasher {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

void AddChip(const flashsim::NandChip& chip, NandTotals* t) {
  const flashsim::CounterSet& c = chip.counters();
  t->programs += c.Get("nand.programs");
  t->reads += c.Get("nand.reads");
  t->erases += c.Get("nand.erases");
  t->uncorrectable_reads += c.Get("nand.uncorrectable_reads");
}

NandTotals NandOf(const FlashDevice& device) {
  NandTotals t;
  const flashsim::FtlInterface* ftl = &device.ftl();
  if (const auto* pm = dynamic_cast<const flashsim::PageMapFtl*>(ftl)) {
    AddChip(pm->chip(), &t);
  } else if (const auto* hy = dynamic_cast<const flashsim::HybridFtl*>(ftl)) {
    AddChip(hy->cache_chip(), &t);
    AddChip(hy->mlc_pool().chip(), &t);
  } else if (const auto* bm = dynamic_cast<const flashsim::BlockMapFtl*>(ftl)) {
    AddChip(bm->chip(), &t);
  }
  return t;
}

uint64_t HostPages(const FtlStats& s) {
  return s.host_pages_written + s.host_pages_read;
}

// ExecuteRun's drive options for a campaign run (src/campaign/runner.cc).
WorkloadDriveOptions DriveOptionsFor(const RunSpec& run) {
  WorkloadDriveOptions opts;
  opts.batch_requests = run.batch_requests;
  opts.seed = flashsim::DeriveSeed(run.seed, 1);
  if (run.metric == flashsim::RunMetric::kWear) {
    opts.loop = true;
    opts.stop_at_level = run.target_level;
    opts.max_bytes = run.max_bytes > 0 ? run.max_bytes : 1 * flashsim::kTiB;
  }
  return opts;
}

std::unique_ptr<Filesystem> MountFs(flashsim::PhoneFsType type,
                                    BlockDevice& device) {
  switch (type) {
    case flashsim::PhoneFsType::kExtFs:
      return std::make_unique<flashsim::ExtFs>(device);
    case flashsim::PhoneFsType::kCowFs:
      return std::make_unique<flashsim::CowFs>(device);
    case flashsim::PhoneFsType::kLogFs:
    default:
      return std::make_unique<flashsim::LogFs>(device);
  }
}

// Phone::FillStaticData on a bare file system.
Status FillStaticData(Filesystem& fs, double utilization) {
  constexpr uint64_t kChunk = 4 * flashsim::kMiB;
  utilization = std::clamp(utilization, 0.0, 0.95);
  const uint64_t target = std::min(
      static_cast<uint64_t>(utilization *
                            static_cast<double>(fs.device().CapacityBytes())),
      fs.FreeBytes() > kChunk ? fs.FreeBytes() - kChunk : 0);
  if (target == 0) {
    return Status::Ok();
  }
  FLASHSIM_RETURN_IF_ERROR(fs.Create("system/os.img"));
  for (uint64_t off = 0; off < target; off += kChunk) {
    flashsim::Result<flashsim::SimDuration> w =
        fs.Write("system/os.img", off, std::min(kChunk, target - off), false);
    if (!w.ok()) {
      return w.status();
    }
  }
  flashsim::Result<flashsim::SimDuration> sync = fs.Fsync("system/os.img");
  return sync.ok() ? Status::Ok() : sync.status();
}

// Digest of a unit's simulated outcome (stats, level rows, counters).
uint64_t UnitDigest(const UnitResult& u) {
  Hasher h;
  const WorkloadRunResult& r = u.run;
  h.U64(r.requests);
  h.U64(r.bytes_written);
  h.U64(r.bytes_read);
  h.U64(static_cast<uint64_t>(r.elapsed.nanos()));
  h.U64(static_cast<uint64_t>(r.io_time.nanos()));
  h.U64(r.reached_level);
  h.U64(r.bricked);
  for (const flashsim::WorkloadLevelRow& row : r.levels) {
    h.U64(row.level);
    h.U64(row.host_bytes);
    h.F64(row.hours);
  }
  const FtlStats& f = u.ftl;
  for (uint64_t v : {f.host_pages_written, f.nand_pages_written, f.gc_pages_migrated,
                     f.erases, f.host_pages_read, uint64_t{f.free_blocks},
                     f.valid_pages, f.gc_victim_picks, f.gc_victim_candidates,
                     f.victim_index_rebuilds, f.victim_seq_hash,
                     f.cache_evict_picks, f.cache_evict_candidates,
                     f.cache_victim_seq_hash}) {
    h.U64(v);
  }
  for (uint64_t v : {u.nand.programs, u.nand.reads, u.nand.erases,
                     u.nand.uncorrectable_reads, u.digest_samples}) {
    h.U64(v);
  }
  if (u.has_fs) {
    const flashsim::FsStats& s = u.fs;
    for (uint64_t v : {s.app_bytes_written, s.device_data_bytes,
                       s.device_metadata_bytes, s.device_journal_bytes, s.fsyncs,
                       s.cleaner_bytes_moved, s.metadata_commits, s.cleaner_picks,
                       s.cleaner_candidates_examined, s.cleaner_victim_hash}) {
      h.U64(v);
    }
  }
  return h.value();
}

// Accounting identities and end-state checks shared by every unit.
// `written` is what the layer the workload drove accepted: device bytes at
// the block layer, app bytes at the file layer.
void CheckUnit(const FlashDevice& device, uint64_t issued_writes,
               uint64_t written, uint64_t device_reads, bool wear_run,
               UnitResult* u) {
  const WorkloadRunResult& r = u->run;
  if (!r.status.ok() && !r.bricked) {
    u->failures.push_back(u->label + ": hard error: " + r.status.ToString());
  }
  if (wear_run && !r.reached_level && !r.bricked) {
    u->failures.push_back(u->label + ": stopped before its target level");
  }
  const Status valid = device.ftl().ValidateInvariants();
  if (!valid.ok()) {
    u->failures.push_back(u->label + ": ValidateInvariants: " + valid.ToString());
  }
  if (written != issued_writes) {
    u->failures.push_back(u->label + ": bytes written " + std::to_string(written) +
                          " != bytes issued " + std::to_string(issued_writes));
  }
  if (!u->has_fs && device_reads != r.bytes_read) {
    u->failures.push_back(u->label + ": device read bytes " +
                          std::to_string(device_reads) + " != issued " +
                          std::to_string(r.bytes_read));
  }
  if (u->ftl.nand_pages_written < u->ftl.host_pages_written) {
    u->failures.push_back(u->label + ": nand_pages < host_pages");
  }
}

// Per-level volumes of a wear run, in full-device-equivalent GiB: the bytes
// between consecutive wear-indicator transitions, the first counted from the
// start of the drive.
std::vector<double> GiBPerLevel(const UnitResult& u) {
  std::vector<double> out;
  uint64_t prev = 0;
  for (const flashsim::WorkloadLevelRow& row : u.run.levels) {
    out.push_back(static_cast<double>(row.host_bytes - prev) * u.volume_factor /
                  static_cast<double>(flashsim::kGiB));
    prev = row.host_bytes;
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Layer metrics common to every workload, from traced units.
void AddUnitLayers(const std::vector<UnitResult>& units,
                   std::map<std::string, double>* m) {
  auto& L = *m;
  double host_w = 0, host_r = 0, nand_w = 0, gc_mig = 0, erases = 0, picks = 0,
         cands = 0;
  NandTotals nand;
  for (const UnitResult& u : units) {
    const Tracer& t = u.trace;
    L["workload.next_calls"] += t.totals(Layer::kWorkloadNext).calls;
    L["workload.next_s"] += t.totals(Layer::kWorkloadNext).total_s;
    L["driver.self_s"] += t.totals(Layer::kDriver).self_s;
    L["setup.device_s"] += t.totals(Layer::kSetupDevice).total_s;
    L["setup.fs_fill_s"] += t.totals(Layer::kSetupFsFill).total_s;
    L["device.submit_calls"] += t.totals(Layer::kDeviceSubmit).calls;
    L["device.requests"] += t.device_requests;
    L["device.submit_s"] += t.totals(Layer::kDeviceSubmit).total_s;
    L["device.health_calls"] += t.totals(Layer::kDeviceHealth).calls;
    L["device.health_s"] += t.totals(Layer::kDeviceHealth).total_s;
    L["device.digest_samples"] += u.digest_samples;
    host_w += u.ftl.host_pages_written;
    host_r += u.ftl.host_pages_read;
    nand_w += u.ftl.nand_pages_written;
    gc_mig += u.ftl.gc_pages_migrated;
    erases += u.ftl.erases;
    picks += u.ftl.gc_victim_picks;
    cands += u.ftl.gc_victim_candidates;
    nand.programs += u.nand.programs;
    nand.reads += u.nand.reads;
    nand.erases += u.nand.erases;
    nand.uncorrectable_reads += u.nand.uncorrectable_reads;
    if (u.has_fs) {
      const std::string p = "fs." + u.label + ".";
      const LayerTotals& w = t.totals(Layer::kFsWrite);
      const LayerTotals& f = t.totals(Layer::kFsFsync);
      const LayerTotals& o = t.totals(Layer::kFsOther);
      L[p + "write_calls"] = w.calls;
      L[p + "write_s"] = w.total_s;
      L[p + "fsync_s"] = f.total_s;
      L[p + "self_s"] = w.self_s + f.self_s + o.self_s;
      L[p + "ns_per_app_write"] = Ratio(w.total_s * 1e9, w.calls);
      L[p + "wa"] = u.fs.FsWriteAmplification();
      L[p + "commits"] = u.fs.metadata_commits;
      L[p + "cleaner_candidates_per_pick"] =
          Ratio(u.fs.cleaner_candidates_examined, u.fs.cleaner_picks);
    }
  }
  L["device.ns_per_request"] =
      Ratio(L["device.submit_s"] * 1e9, L["device.requests"]);
  L["ftl.host_pages"] = host_w + host_r;
  L["ftl.nand_pages"] = nand_w;
  L["ftl.wa"] = Ratio(nand_w, host_w);
  L["ftl.gc_pages_migrated"] = gc_mig;
  L["ftl.erases"] = erases;
  L["ftl.gc_picks"] = picks;
  L["ftl.gc_candidates_per_pick"] = Ratio(cands, picks);
  L["nand.programs"] = nand.programs;
  L["nand.reads"] = nand.reads;
  L["nand.erases"] = nand.erases;
  L["nand.uncorrectable_reads"] = nand.uncorrectable_reads;
  L["nand.reads_per_host_page"] = Ratio(nand.reads, host_w + host_r);
}

// Sum of all layers' self times and the root span's wall, over units.
void AddSpanAccounting(const std::vector<UnitResult>& units, Rep* rep) {
  for (const UnitResult& u : units) {
    rep->traced_root_s += u.trace.totals(Layer::kDriver).total_s;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      rep->self_sum_s += u.trace.totals(static_cast<Layer>(l)).self_s;
    }
  }
}

void FoldUnits(const std::vector<UnitResult>& units, bool traced, Rep* rep) {
  Hasher h;
  for (const UnitResult& u : units) {
    rep->setup_s += u.setup_s;
    rep->wall_s += u.wall_s;
    rep->sim_pages += static_cast<double>(u.timed_host_pages);
    ++rep->units;
    if (!u.failures.empty()) {
      ++rep->failed_units;
    }
    rep->failures.insert(rep->failures.end(), u.failures.begin(), u.failures.end());
    h.U64(u.digest);
  }
  rep->digest = h.value();
  if (traced) {
    AddUnitLayers(units, &rep->layers);
    AddSpanAccounting(units, rep);
  }
}

// A paper-band violation fails every unit of the rep.
void FailRep(const std::string& why, Rep* rep) {
  rep->failures.push_back(why);
  rep->failed_units = rep->units;
}

Rep RunCampaignRep(const std::string& workload, uint64_t seed, bool traced) {
  Rep rep;
  const Clock::time_point parse_start = Clock::now();
  const std::vector<RunSpec> runs =
      flashsim::ExpandRuns(ParseSpec(workload, seed));
  const double parse_s = Since(parse_start);

  std::vector<UnitResult> units;
  for (const RunSpec& run : runs) {
    units.push_back(RunUnit(run, traced));
  }
  FoldUnits(units, traced, &rep);
  rep.setup_s += parse_s;

  if (workload == "attack_eol") {
    // Figure 2: at most 992 GiB of 4 KiB random rewrites per wear level.
    const std::vector<double> per_level = GiBPerLevel(units[0]);
    const double worst =
        per_level.empty() ? 0.0 : *std::max_element(per_level.begin(), per_level.end());
    const double target = PaperTargets::kEmmc8MaxGiBPerLevel;
    rep.paper_gap_pct = std::fabs(worst - target) / target * 100.0;
    if (worst > target || worst < 0.6 * target) {
      FailRep("attack_eol: max GiB/level " + std::to_string(worst) +
                  " outside the Figure 2 band [0.6*992, 992]",
              &rep);
    }
  } else if (workload == "mixed_queued") {
    // A wear level is a fixed share of rated P/E cycles, so the NAND volume
    // per level under GC traffic should match Figure 2's WA~1 host volume.
    const UnitResult& u = units[0];
    const double nand_gib = static_cast<double>(u.ftl.nand_pages_written) * 4096.0 *
                            u.volume_factor / static_cast<double>(flashsim::kGiB);
    const double per_level = Ratio(nand_gib, static_cast<double>(u.run.levels.size()));
    const double target = PaperTargets::kEmmc8MaxGiBPerLevel;
    rep.paper_gap_pct = std::fabs(per_level - target) / target * 100.0;
  } else if (workload == "phone_fs") {
    // Figure 4: F2FS needs about half of Ext4's app I/O per wear level. A
    // level is a fixed NAND volume on one phone, so the app volume per level
    // is inversely proportional to the NAND bytes written per app byte; that
    // amplification is averaged over every write of the run, which makes the
    // ratio far less seed-sensitive than the volume of a single level.
    double ext4 = 0.0;
    double f2fs = 0.0;
    for (const UnitResult& u : units) {
      if (u.label == "ext4") ext4 = u.nand_per_app_byte;
      if (u.label == "f2fs") f2fs = u.nand_per_app_byte;
    }
    const double ratio = Ratio(ext4, f2fs);
    rep.paper_gap_pct = std::fabs(ratio - 0.5) / 0.5 * 100.0;
    if (ratio < PaperTargets::kF2fsOverExt4RatioMin ||
        ratio > PaperTargets::kF2fsOverExt4RatioMax) {
      FailRep("phone_fs: F2FS/Ext4 volume ratio " + std::to_string(ratio) +
                  " outside the Figure 4 band [0.30, 0.75]",
              &rep);
    }
  }
  return rep;
}

// ---- fleet_mixed -----------------------------------------------------------

// Drives fleet device `index` standalone, the way FleetShard::RunSlice
// drives it across slices. Used for time attribution only.
UnitResult ReplayFleetDevice(const CampaignSpec& spec,
                             const flashsim::FleetSpec& fleet, uint64_t index,
                             bool traced) {
  const flashsim::FleetDeviceRef ref = flashsim::FleetDeviceAt(spec, fleet, index);
  UnitResult u;
  u.label = ref.model->slug;
  Tracer* tr = traced ? &u.trace : nullptr;
  const Clock::time_point start = Clock::now();
  {
    Span root(tr, Layer::kDriver);
    std::unique_ptr<FlashDevice> device;
    {
      Span s(tr, Layer::kSetupDevice);
      device = ref.model->make(fleet.scale, flashsim::DeriveSeed(ref.seed, 0));
    }
    SyntheticWorkload workload(ref.workload);
    WorkloadDriveOptions opts;
    opts.batch_requests = fleet.batch_requests;
    opts.loop = true;
    opts.stop_at_level = fleet.target_level;
    opts.max_bytes = fleet.max_device_bytes;
    opts.seed = flashsim::DeriveSeed(ref.seed, 1);
    if (tr != nullptr) {
      TimedWorkload tw(workload, *tr);
      TimedBlockDevice td(*device, *tr);
      u.run = flashsim::RunWorkloadOnDevice(tw, td, opts);
    } else {
      u.run = flashsim::RunWorkloadOnDevice(workload, *device, opts);
    }
    u.ftl = device->ftl().Stats();
    u.nand = NandOf(*device);
  }
  u.wall_s = Since(start);
  return u;
}

Rep RunFleetRep(uint64_t seed, bool traced) {
  Rep rep;
  const Clock::time_point parse_start = Clock::now();
  const CampaignSpec spec = ParseSpec("fleet_mixed", seed);
  const flashsim::FleetSpec& fleet = spec.fleets.at(0);
  rep.setup_s = Since(parse_start);

  const Clock::time_point run_start = Clock::now();
  flashsim::Result<flashsim::FleetOutcome> ran =
      flashsim::RunFleet(spec, fleet, flashsim::FleetRunOptions{});
  rep.wall_s = Since(run_start);
  rep.units = fleet.device_count;
  if (!ran.ok()) {
    FailRep("fleet_mixed: RunFleet: " + ran.status().ToString(), &rep);
    return rep;
  }
  const flashsim::FleetOutcome& out = ran.value();
  if (!out.completed || out.acc.DevicesDone() != fleet.device_count) {
    FailRep("fleet_mixed: devices done " + std::to_string(out.acc.DevicesDone()) +
                " != device count " + std::to_string(fleet.device_count),
            &rep);
  }

  std::ostringstream json;
  flashsim::WriteFleetJson(out, json);
  const std::string bytes = json.str();
  Hasher h;
  h.Bytes(bytes.data(), bytes.size());
  rep.digest = h.value();

  // Host pages written, from the per-model host-volume sketches (the fleet
  // report keeps no per-device FTL stats).
  double host_gib = 0.0;
  double blu_brick_days = 0.0;
  for (size_t m = 0; m < out.acc.models().size(); ++m) {
    const flashsim::FleetModelStats& s = out.acc.models()[m];
    host_gib += s.host_gib.Mean() * static_cast<double>(s.host_gib.count());
    if (out.acc.model_slugs()[m] == "blu512") {
      blu_brick_days = s.brick_days.Quantile(0.5);
    }
  }
  rep.sim_pages = host_gib / fleet.scale.VolumeFactor() *
                  static_cast<double>(flashsim::kGiB) / 4096.0;
  // §4.4: the attacked budget phones bricked within two weeks.
  const double target = PaperTargets::kBudgetPhoneBrickDaysMax;
  rep.paper_gap_pct = std::fabs(blu_brick_days - target) / target * 100.0;

  if (!traced) {
    return rep;
  }
  // Attribution: replay every device standalone, untraced (the fleet's own
  // simulation time) and traced (its layer split).
  std::vector<UnitResult> plain;
  std::vector<UnitResult> timed;
  for (uint64_t i = 0; i < fleet.device_count; ++i) {
    plain.push_back(ReplayFleetDevice(spec, fleet, i, false));
  }
  for (uint64_t i = 0; i < fleet.device_count; ++i) {
    timed.push_back(ReplayFleetDevice(spec, fleet, i, true));
  }
  double sim_s = 0.0;
  for (const UnitResult& u : plain) sim_s += u.wall_s;
  double timed_s = 0.0;
  for (const UnitResult& u : timed) timed_s += u.wall_s;

  AddUnitLayers(timed, &rep.layers);
  AddSpanAccounting(timed, &rep);
  auto& L = rep.layers;
  L["fleet.run_s"] = rep.wall_s;
  L["fleet.device_sim_s"] = sim_s;
  L["fleet.overhead_s"] = rep.wall_s - sim_s;
  L["fleet.overhead_share"] = Ratio(rep.wall_s - sim_s, rep.wall_s);
  L["fleet.slices"] = out.sched.slices;
  L["fleet.park_events"] = out.park.park_events;
  L["fleet.park_stored_bytes_mean"] = out.park.StoredMean();
  L["fleet.park_raw_bytes_mean"] =
      out.park.park_events == 0
          ? 0.0
          : static_cast<double>(out.park.raw_bytes) / out.park.park_events;
  rep.replay_plain_s = sim_s;
  rep.replay_traced_s = timed_s;
  return rep;
}

// Host cost of one span (Begin + End), measured on empty spans: the
// per-call inflation the traced run adds to a layer's time.
double SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer t;
  t.Begin(Layer::kDriver);
  for (int i = 0; i < kSpans; ++i) {
    Span s(&t, Layer::kWorkloadNext);
  }
  t.End();
  return t.totals(Layer::kDriver).total_s / kSpans * 1e9;
}

}  // namespace

UnitResult RunUnit(const RunSpec& run, bool traced) {
  UnitResult u;
  u.label = run.has_fs ? (run.fs == flashsim::PhoneFsType::kExtFs   ? "ext4"
                          : run.fs == flashsim::PhoneFsType::kCowFs ? "cowfs"
                                                                    : "f2fs")
                       : run.device;
  u.has_fs = run.has_fs;
  u.volume_factor = run.scale.VolumeFactor();
  Tracer* tr = traced ? &u.trace : nullptr;
  const flashsim::CampaignDevice* entry = flashsim::FindCampaignDevice(run.device);
  if (entry == nullptr) {
    u.failures.push_back("unknown device " + run.device);
    return u;
  }
  const WorkloadDriveOptions opts = DriveOptionsFor(run);
  SyntheticWorkload workload(run.workload);
  const bool wear_run = run.metric == flashsim::RunMetric::kWear;

  std::unique_ptr<FlashDevice> device;
  std::unique_ptr<Filesystem> fs;
  FtlStats before;
  uint64_t writes_before = 0;
  uint64_t reads_before = 0;
  uint64_t app_before = 0;
  uint64_t fs_device_before = 0;
  uint64_t issued_writes = 0;
  {
    const Clock::time_point setup_start = Clock::now();
    Span root(tr, Layer::kDriver);
    {
      Span s(tr, Layer::kSetupDevice);
      device = entry->make(run.scale, flashsim::DeriveSeed(run.seed, 0));
      device->ConfigureQueue(run.channels, run.queue_depth, run.force_event_engine);
      device->EnableLatencyDigests();
    }
    // The traced run mounts the file system on the timing decorator, so its
    // device traffic nests under the file system's spans.
    std::unique_ptr<TimedBlockDevice> timed_device;
    std::unique_ptr<TimedWorkload> timed_workload;
    if (tr != nullptr) {
      timed_device = std::make_unique<TimedBlockDevice>(*device, *tr);
      timed_workload = std::make_unique<TimedWorkload>(workload, *tr);
    }
    BlockDevice& host_device =
        timed_device ? static_cast<BlockDevice&>(*timed_device) : *device;
    flashsim::Workload& host_workload =
        timed_workload ? static_cast<flashsim::Workload&>(*timed_workload)
                       : workload;
    if (run.has_fs) {
      Span s(tr, Layer::kSetupFsFill);
      fs = MountFs(run.fs, host_device);
      if (run.utilization > 0.0) {
        const Status filled = FillStaticData(*fs, run.utilization);
        if (!filled.ok()) {
          u.failures.push_back(u.label + ": static fill: " + filled.ToString());
          return u;
        }
      }
    }
    before = device->ftl().Stats();
    writes_before = device->write_meter().total_bytes();
    reads_before = device->read_meter().total_bytes();
    app_before = fs ? fs->stats().app_bytes_written : 0;
    fs_device_before = fs ? fs->stats().DeviceBytesTotal() : 0;
    u.setup_s = Since(setup_start);

    const Clock::time_point run_start = Clock::now();
    if (!run.has_fs) {
      u.run = flashsim::RunWorkloadOnDevice(host_workload, host_device, opts);
      if (opts.prefill_for_reads && workload.MayRead()) {
        uint64_t start = 0;
        uint64_t length = 0;
        workload.TouchRange(device->CapacityBytes(), &start, &length);
        issued_writes = std::min(start + length, device->CapacityBytes()) - start;
      }
      issued_writes += u.run.bytes_written;
    } else {
      flashsim::FileLayerLayout layout;
      layout.file_count = run.file_count;
      layout.file_bytes = std::max<uint64_t>(run.workload.request_bytes,
                                             run.file_bytes / run.scale.capacity_div);
      layout.sync = run.sync;
      std::unique_ptr<TimedFilesystem> timed_fs;
      if (tr != nullptr) {
        timed_fs = std::make_unique<TimedFilesystem>(*fs, *tr);
      }
      Filesystem& host_fs = timed_fs ? static_cast<Filesystem&>(*timed_fs) : *fs;
      u.run = flashsim::RunWorkloadOnFilesystem(host_workload, host_fs, layout, opts);
      // Install writes every working file once before the workload starts.
      issued_writes = layout.TargetBytes() + u.run.bytes_written;
    }
    u.wall_s = Since(run_start);
  }

  u.ftl = device->ftl().Stats();
  u.timed_host_pages = HostPages(u.ftl) - HostPages(before);
  u.nand_per_app_byte =
      Ratio(static_cast<double>(u.ftl.nand_pages_written - before.nand_pages_written) *
                device->PageSizeBytes(),
            static_cast<double>(issued_writes));
  u.nand = NandOf(*device);
  if (fs) {
    u.fs = fs->stats();
  }
  if (const flashsim::WearDigest* d = device->write_latency_digest()) {
    u.digest_samples += d->count();
  }
  if (const flashsim::WearDigest* d = device->read_latency_digest()) {
    u.digest_samples += d->count();
  }
  const uint64_t written = fs ? u.fs.app_bytes_written - app_before
                              : device->write_meter().total_bytes() - writes_before;
  const uint64_t device_reads = device->read_meter().total_bytes() - reads_before;
  CheckUnit(*device, issued_writes, written, device_reads, wear_run, &u);
  if (fs) {
    const uint64_t fs_device = u.fs.DeviceBytesTotal() - fs_device_before;
    const uint64_t device_written = device->write_meter().total_bytes() - writes_before;
    if (fs_device != device_written) {
      u.failures.push_back(u.label + ": FS device bytes " + std::to_string(fs_device) +
                           " != device bytes written " +
                           std::to_string(device_written));
    }
  }
  u.digest = UnitDigest(u);
  return u;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"attack_eol", "mixed_queued",
                                                 "phone_fs", "fleet_mixed"};
  return names;
}

Rep RunRep(const std::string& workload, uint64_t seed, bool traced) {
  Rep rep = workload == "fleet_mixed" ? RunFleetRep(seed, traced)
                                      : RunCampaignRep(workload, seed, traced);
  if (traced) {
    rep.layers["trace.span_ns"] = SpanCostNs();
  }
  return rep;
}

const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "workload.next_calls", "workload.next_s", "driver.self_s",
        "setup.device_s", "setup.fs_fill_s",
        "device.submit_calls", "device.requests", "device.submit_s",
        "device.ns_per_request", "device.health_calls", "device.health_s",
        "device.digest_samples",
        "ftl.host_pages", "ftl.nand_pages", "ftl.wa", "ftl.gc_pages_migrated",
        "ftl.erases", "ftl.gc_picks", "ftl.gc_candidates_per_pick",
        "nand.programs", "nand.reads", "nand.erases",
        "nand.uncorrectable_reads", "nand.reads_per_host_page"};
    for (const char* fs : {"ext4", "f2fs", "cowfs"}) {
      for (const char* m : {"write_calls", "write_s", "fsync_s", "self_s",
                            "ns_per_app_write", "wa", "commits",
                            "cleaner_candidates_per_pick"}) {
        n.push_back(std::string("fs.") + fs + "." + m);
      }
    }
    for (const char* m : {"run_s", "device_sim_s", "overhead_s", "overhead_share",
                          "slices", "park_events", "park_stored_bytes_mean",
                          "park_raw_bytes_mean"}) {
      n.push_back(std::string("fleet.") + m);
    }
    n.push_back("trace.overhead_pct");
    n.push_back("trace.self_coverage_pct");
    n.push_back("trace.span_ns");
    return n;
  }();
  return names;
}

}  // namespace perfbench
