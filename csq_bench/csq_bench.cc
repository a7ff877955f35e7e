// csq_bench — the repository benchmark (README.md in this directory).
//
//   csq_bench --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//
// Drives the system only through its public calls: rt::MakeRuntime(...)->Run
// with the rt::ThreadApi it hands to workloads, rt::RunResult, and the serve
// front end (GenerateLoad, RouteLog, Shard::Serve, ShardServer::Serve).
//
// Every pass runs each of the workload's programs (or the serving log) on
// cons-ic and then on pthreads, so each cons-ic run has a baseline run of the
// same input measured moments later on the same host.
//
// An untraced run has three phases. Set-up, timed as setup_s: build the
// inputs, run one reference pass on the serial engine, then the warm-up
// passes; it is repeated and the median reported. Measured: timed passes
// until the run length has elapsed. Every pass is checked against the
// reference, and the last line of stdout is the result object.
//
// A traced run (--trace 1) interleaves passes bound through bench::TimedApi
// with untraced ones and reports the per-layer metrics instead; the
// difference between the two kinds of pass is the tracing overhead.
//
// The seed sets the cost-model jitter; no input is read from anywhere else.
// CSQ_QUICK=1 runs one set-up with one warm-up and two measured passes (one
// traced pair under --trace 1).
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "csq_bench/timed_api.h"
#include "src/harness/harness.h"
#include "src/race/report.h"
#include "src/rt/api.h"
#include "src/serve/loadgen.h"
#include "src/serve/serve.h"
#include "src/util/json.h"
#include "src/util/stats.h"
#include "src/wl/workloads.h"

using namespace csq;  // NOLINT

namespace {

using bench::Layer;
using rt::Backend;

constexpr u32 kSimThreads = 4;
constexpr u32 kJitterBp = 100;  // ±1% cost-model jitter on the program workloads

// ---- Metric declarations -------------------------------------------------------
//
// `sim` metrics are deterministic for a seed and compare exactly; `host`
// metrics are measured on the host and compare within `bound`.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* cls;
  double bound = 0.0;  // allowed relative worsening; 0 for per-layer metrics
};

// The result object of an untraced run, and BENCHMARK.json's end_to_end.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", "lower", "host", 0.25},
    {"sim_slowdown_geomean", "ratio", "lower", "sim", 0.10},
    {"sim_slowdown_max", "ratio", "lower", "sim", 0.10},
    {"latency_p50_vt", "cycles", "lower", "sim", 0.10},
    {"latency_p999_vt", "cycles", "lower", "sim", 0.10},
};

// Host measurements. On a shared host they drift between runs minutes apart
// by more than any allowed bound (README.md), so they are reported and
// compared in pairs run moments apart (compare.py), not in the result object.
const std::vector<MetricDef> kHostTimes = {
    {"host_slowdown", "ratio", "lower", "host", 0.10},
    {"pass_ms_quiet", "ms", "lower", "host", 0.10},
    {"pass_ms_p50", "ms", "lower", "host", 0.10},
    {"pass_ms_p75", "ms", "lower", "host", 0.10},
    {"cpu_ms_p50", "ms", "lower", "host", 0.10},
    {"ops_per_s", "1/s", "higher", "host", 0.10},
    {"peak_rss_mb", "MB", "lower", "host", 0.10},
};

const std::vector<MetricDef> kPerLayer = {
    // Traced: shares of the traced pass wall time, and per-call costs.
    {"trace.pass_ms", "ms", "lower", "host"},
    {"trace.overhead_frac", "frac", "lower", "host"},
    {"ledger.residue_frac", "frac", "lower", "host"},
    {"ledger.wl_frac", "frac", "lower", "host"},
    {"ledger.rt_sync_frac", "frac", "lower", "host"},
    {"ledger.rt_sync_wait_frac", "frac", "lower", "host"},
    {"ledger.rt_mem_frac", "frac", "lower", "host"},
    {"ledger.rt_work_frac", "frac", "lower", "host"},
    {"ledger.rt_thread_frac", "frac", "lower", "host"},
    {"ledger.rt_run_overhead_frac", "frac", "lower", "host"},
    {"ledger.serve_route_frac", "frac", "lower", "host"},
    {"ledger.serve_shard_frac", "frac", "lower", "host"},
    {"ledger.serve_pool_overhead_frac", "frac", "lower", "host"},
    {"rt.sync_calls", "count", "lower", "sim"},
    {"rt.sync_ns_per_call", "ns/call", "lower", "host"},
    {"rt.mem_calls", "count", "lower", "sim"},
    {"rt.mem_ns_per_call", "ns/call", "lower", "host"},
    {"rt.work_calls", "count", "lower", "sim"},
    {"rt.thread_calls", "count", "lower", "sim"},
    {"rt.thread_ns_per_call", "ns/call", "lower", "host"},
    // Read exactly from RunResult, summed per pass over the cons-ic runs
    // (the shard runs on serve_zipf).
    {"clock.token_acquires", "count", "lower", "sim"},
    {"clock.fast_forwards", "count", "higher", "sim"},
    {"clock.overflows", "count", "lower", "sim"},
    {"clock.vt_determ_wait", "cycles", "lower", "sim"},
    {"rt.vt_library", "cycles", "lower", "sim"},
    {"conv.commits", "count", "lower", "sim"},
    {"conv.pages_committed", "count", "lower", "sim"},
    {"conv.pages_propagated", "count", "lower", "sim"},
    {"conv.pages_merged", "count", "lower", "sim"},
    {"conv.cow_faults", "count", "lower", "sim"},
    {"conv.vt_commit", "cycles", "lower", "sim"},
    {"conv.vt_fault", "cycles", "lower", "sim"},
    {"conv.vt_gc", "cycles", "lower", "sim"},
    {"conv.peak_mem_mb", "MB", "lower", "sim"},
    {"sim.ordering_events", "count", "lower", "sim"},
    {"sim.vt_barrier_wait", "cycles", "lower", "sim"},
    {"wl.vt_chunk", "cycles", "lower", "sim"},
    {"race.ww", "count", "lower", "sim"},
    {"race.rw", "count", "lower", "sim"},
    {"race.records", "count", "lower", "sim"},
    {"race.racy", "count", "lower", "sim"},
    {"race.ordered", "count", "lower", "sim"},
    // Host facts of the untraced passes' cons-ic runs, medians over passes.
    {"sim.ns_per_ordering_event", "ns/event", "lower", "host"},
    {"sim.floor_grants", "count", "lower", "host"},
    {"sim.lease_hit_rate", "frac", "higher", "host"},
    {"sim.lazy_retains", "count", "higher", "host"},
    {"sim.condvar_handoff_frac", "frac", "lower", "host"},
    {"sim.affinity_hit_rate", "frac", "higher", "host"},
    {"sim.slot_steals", "count", "lower", "host"},
    {"sim.floor_held_frac", "frac", "lower", "host"},
    {"conv.floor_held_commit_ms", "ms", "lower", "host"},
    {"conv.offfloor_commit_frac", "frac", "higher", "host"},
    {"conv.offfloor_pages", "count", "higher", "host"},
    {"race.overhead_ratio", "ratio", "lower", "host"},
    {"serve.shard_imbalance", "ratio", "lower", "host"},
    {"serve.shard_busy_sum_frac", "frac", "higher", "host"},
};

// ---- Workloads -----------------------------------------------------------------

struct Program {
  const wl::WorkloadInfo* info;
  u32 scale;
};

struct Workload {
  std::string_view name;
  std::vector<Program> programs;  // empty for serve_zipf
  u32 host_workers = 1;           // engine of the measured cons-ic runs
  bool race = false;              // analyzer attached to the measured cons-ic runs
};

std::vector<Program> Programs(std::initializer_list<std::pair<const char*, u32>> list) {
  std::vector<Program> out;
  for (const auto& [name, scale] : list) {
    const wl::WorkloadInfo* w = wl::FindWorkload(name);
    CSQ_CHECK_MSG(w != nullptr, "unknown program " << name);
    out.push_back({w, scale});
  }
  return out;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Program> kDataParallel =
      Programs({{"histogram", 16}, {"kmeans", 16}, {"linear_regression", 16},
                {"string_match", 16}, {"pca", 16}, {"radix", 16}, {"canneal", 16},
                {"matrix_multiply", 16}, {"lu_ncb", 16}, {"ocean_cp", 16}, {"fft", 16},
                {"barnes", 16}, {"water_spatial", 16}});
  static const std::vector<Workload> kAll = {
      {"sync_hard",
       Programs({{"reverse_index", 1}, {"dedup", 1}, {"ferret", 1}, {"water_nsquared", 1},
                 {"word_count", 1}})},
      {"data_parallel", kDataParallel},
      // 3 slot holders plus the slotless floor holder fit in a 4-CPU host.
      {"threaded_mix",
       Programs({{"reverse_index", 1}, {"water_nsquared", 1}, {"radix", 16}, {"canneal", 16},
                 {"kmeans", 16}, {"pca", 16}}),
       /*host_workers=*/3},
      {"race_rw", kDataParallel, /*host_workers=*/1, /*race=*/true},
      {"serve_zipf", {}},
  };
  return kAll;
}

rt::RuntimeConfig ProgramConfig(u64 seed, u32 host_workers, bool race) {
  rt::RuntimeConfig c;
  c.nthreads = kSimThreads;
  c.segment.size_bytes = 16 << 20;
  c.costs.jitter_bp = kJitterBp;
  c.costs.jitter_seed = seed;
  c.host_workers = host_workers;
  c.race.enabled = race;
  c.race.track_reads = race;
  return c;
}

// bench/serve_shards' log: 19,340 requests. The log stays fixed and the seed
// moves only the jitter, because logs drawn from other seeds differ in size
// and skew enough to move pass time and memory by ±10% between seeds.
serve::LoadSpec ServeLoad() {
  serve::LoadSpec spec;
  spec.tenants = 96;
  spec.tenant_zipf_s = 1.1;
  spec.users = 2 << 20;
  spec.sessions = 1200;
  spec.min_requests = 4;
  spec.max_requests = 28;
  spec.keys_per_tenant = 512;
  spec.put_pct = 25;
  spec.scan_pct = 5;
  spec.churn_window = 48;
  spec.seed = 2026;
  return spec;
}

serve::ServeConfig ServeCfg(u64 seed, Backend backend) {
  serve::ServeConfig cfg;
  cfg.shards = 4;
  cfg.serve_threads = 4;
  cfg.max_live_sessions = 8;
  cfg.kv_buckets = 512;
  cfg.record_trace = false;
  cfg.jitter_seed = seed;
  cfg.backend = backend;
  return cfg;
}

// ---- Helpers -------------------------------------------------------------------

u64 ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ULL + static_cast<u64>(ts.tv_nsec);
}

u64 WallNs() { return ClockNs(CLOCK_MONOTONIC); }
u64 CpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

// CPUs this process may run on, which is what nproc reports;
// std::thread::hardware_concurrency() ignores the affinity mask.
u32 HostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<u32>(std::max(1, CPU_COUNT(&set)));
}

double Pct(const std::vector<double>& xs, double p) {
  SampleSet s;
  for (double x : xs) {
    s.Add(x);
  }
  return s.Count() == 0 ? 0.0 : s.Percentile(p);
}

double Ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

// The shortest text that reads back as exactly `v`.
std::string Num(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), std::isfinite(v) ? v : 0.0);
  return std::string(buf, res.ptr);
}

bool SameSim(const rt::RunResult& a, const rt::RunResult& b) {
  return a.vtime == b.vtime && a.checksum == b.checksum && a.trace_digest == b.trace_digest;
}

bool SameShards(const std::vector<serve::ShardResult>& a,
                const std::vector<serve::ShardResult>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (usize i = 0; i < a.size(); ++i) {
    if (a[i].response_digest != b[i].response_digest || a[i].state_digest != b[i].state_digest ||
        !SameSim(a[i].run, b[i].run)) {
      return false;
    }
  }
  return true;
}

// ---- The benchmark -------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 15.0;
  bool trace = false;
};

struct RunSpec {
  usize program;
  Backend backend;
};

// Host time of one pass.
struct PassTimes {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;
  double ic_ns = 0.0;                            // wall of the cons-ic runs
  std::vector<std::pair<Backend, double>> runs;  // wall ns of each run, in pass order
};

// One span of the Chrome trace written for the first traced pass. A span with
// a negative timestamp names the process `pid` instead.
struct TimelineSpan {
  std::string name;
  u32 pid;
  u32 tid;
  double ts_us;
  double dur_us;
};

class Bench {
 public:
  Bench(const Workload& w, const Options& opt) : w_(w), opt_(opt), quick_(harness::QuickMode()) {}

  int Main();

 private:
  bool Serving() const { return w_.programs.empty(); }
  std::vector<RunSpec> PassSpecs() const;
  // The pthreads baseline ignores the engine and analyzer settings of `cfg`.
  rt::RunResult RunProgram(const RunSpec& s, const rt::RuntimeConfig& cfg,
                           bench::TraceRun* tr = nullptr) const;

  double Setup();
  void ReferencePass();
  PassTimes UntracedPass(bool analyzer);
  void CheckPrograms(const std::vector<RunSpec>& specs, const std::vector<rt::RunResult>& rs,
                     bool analyzer);
  void CheckServe(const std::vector<serve::ShardResult>& shards,
                  const std::vector<serve::ShardResult>& ref);
  std::vector<const rt::RunResult*> LastIcRuns() const;
  void AddHostFacts(const PassTimes& t);
  void TracedProgramPass(bool record);
  void TracedServePass(bool record);
  void AddTrace(const char* name, double v) { trace_samples_[name].push_back(v); }

  std::map<std::string, double> EndToEnd(const std::vector<double>& setups) const;
  std::map<std::string, double> PerLayer() const;
  int Emit(const std::map<std::string, double>& values,
           const std::vector<const std::vector<MetricDef>*>& tables) const;
  void WriteTimeline() const;

  const Workload& w_;
  const Options opt_;
  const bool quick_;

  // References: the first set-up's results, reproduced by every later pass.
  bool have_ref_ = false;
  std::vector<rt::RunResult> ref_ic_, ref_pt_;  // per program, serial engine
  std::vector<u8> ref_ok_;                      // per program: backends agree
  std::vector<std::string> ref_lines_;  // per program: the first analyzer-on pass's race lines
  bool have_lines_ = false;
  std::vector<serve::Request> log_;
  std::vector<serve::ShardResult> ref_shards_, ref_pt_shards_;

  u64 attempted_ = 0;  // operations checked: program runs or requests
  u64 failed_ = 0;
  u64 ops_per_pass_ = 0;

  // The latest untraced pass's cons-ic results, for the per-layer counters.
  std::vector<rt::RunResult> last_runs_;
  std::vector<serve::ShardResult> last_shards_;
  double last_serve_wall_ns_ = 0.0;  // ShardServer drain wall, after routing

  std::vector<PassTimes> passes_;  // measured untraced passes
  std::vector<double> analyzer_off_ic_ms_;
  std::map<std::string, std::vector<double>> host_samples_;   // per untraced pass
  std::map<std::string, std::vector<double>> trace_samples_;  // per traced pass
  std::vector<double> ledger_sums_;
  std::vector<TimelineSpan> timeline_;
};

std::vector<RunSpec> Bench::PassSpecs() const {
  std::vector<RunSpec> out;
  for (usize p = 0; p < w_.programs.size(); ++p) {
    out.push_back({p, Backend::kConsequenceIC});
    out.push_back({p, Backend::kPthreads});
  }
  return out;
}

rt::RunResult Bench::RunProgram(const RunSpec& s, const rt::RuntimeConfig& cfg,
                                bench::TraceRun* tr) const {
  const Program& p = w_.programs[s.program];
  wl::WlParams params;
  params.workers = kSimThreads;
  params.scale = p.scale;
  if (tr == nullptr) {
    return rt::MakeRuntime(s.backend, cfg)->Run(wl::Bind(*p.info, params));
  }
  auto fn = p.info->fn;
  return rt::MakeRuntime(s.backend, cfg)->Run([&](rt::ThreadApi& api) {
    return bench::TimedApi::RunBody(api, *tr, /*main_thread=*/true,
                                    [&](rt::ThreadApi& t) { return fn(t, params); });
  });
}

double Bench::Setup() {
  const u64 t0 = WallNs();
  if (Serving()) {
    log_ = serve::GenerateLoad(ServeLoad());
  }
  ReferencePass();
  const int warmups = quick_ ? 1 : 2;
  for (int i = 0; i < warmups; ++i) {
    UntracedPass(w_.race);
  }
  return static_cast<double>(WallNs() - t0) / 1e9;
}

// Serial engine, analyzer off, both backends: the reference every later run
// of the same input and backend must reproduce bit for bit.
void Bench::ReferencePass() {
  if (Serving()) {
    std::vector<serve::ShardResult> ic =
        serve::ShardServer(ServeCfg(opt_.seed, Backend::kConsequenceIC)).Serve(log_).shards;
    std::vector<serve::ShardResult> pt =
        serve::ShardServer(ServeCfg(opt_.seed, Backend::kPthreads)).Serve(log_).shards;
    if (have_ref_) {
      CheckServe(ic, ref_shards_);
      CheckServe(pt, ref_pt_shards_);
      return;
    }
    attempted_ += 2 * log_.size();
    ref_shards_ = std::move(ic);
    ref_pt_shards_ = std::move(pt);
    have_ref_ = true;
    return;
  }
  const rt::RuntimeConfig cfg = ProgramConfig(opt_.seed, 1, false);
  std::vector<rt::RunResult> ic, pt;
  for (usize p = 0; p < w_.programs.size(); ++p) {
    ic.push_back(RunProgram({p, Backend::kConsequenceIC}, cfg));
    pt.push_back(RunProgram({p, Backend::kPthreads}, cfg));
  }
  attempted_ += 2 * w_.programs.size();
  if (have_ref_) {
    for (usize p = 0; p < w_.programs.size(); ++p) {
      failed_ += (SameSim(ic[p], ref_ic_[p]) ? 0 : 1) + (SameSim(pt[p], ref_pt_[p]) ? 0 : 1);
    }
    return;
  }
  ref_ic_ = std::move(ic);
  ref_pt_ = std::move(pt);
  ref_ok_.assign(w_.programs.size(), 1);
  ref_lines_.assign(w_.programs.size(), std::string());
  for (usize p = 0; p < w_.programs.size(); ++p) {
    if (!w_.programs[p].info->racy && ref_ic_[p].checksum != ref_pt_[p].checksum) {
      std::fprintf(stderr, "FAIL %s: cons-ic checksum differs from pthreads\n",
                   std::string(w_.programs[p].info->name).c_str());
      ref_ok_[p] = 0;
      failed_ += 2;
    }
  }
  have_ref_ = true;
}

void Bench::CheckPrograms(const std::vector<RunSpec>& specs,
                          const std::vector<rt::RunResult>& rs, bool analyzer) {
  attempted_ += specs.size();
  for (usize i = 0; i < specs.size(); ++i) {
    const RunSpec& s = specs[i];
    const bool ic = s.backend == Backend::kConsequenceIC;
    bool ok = ref_ok_[s.program] != 0 &&
              SameSim(rs[i], ic ? ref_ic_[s.program] : ref_pt_[s.program]);
    if (ok && analyzer && ic) {
      std::string lines = race::CanonicalLines(rs[i].races);
      if (have_lines_) {
        ok = lines == ref_lines_[s.program];
      } else {
        ref_lines_[s.program] = std::move(lines);
      }
    }
    if (!ok) {
      std::fprintf(stderr, "FAIL %s/%s: differs from the reference\n",
                   std::string(w_.programs[s.program].info->name).c_str(),
                   std::string(rt::BackendName(s.backend)).c_str());
      ++failed_;
    }
  }
  have_lines_ = have_lines_ || analyzer;
}

// A serve whose shard results differ from the reference fails all its requests.
void Bench::CheckServe(const std::vector<serve::ShardResult>& shards,
                       const std::vector<serve::ShardResult>& ref) {
  attempted_ += log_.size();
  if (!SameShards(shards, ref)) {
    std::fprintf(stderr, "FAIL serve: shard results differ from the reference\n");
    failed_ += log_.size();
  }
}

PassTimes Bench::UntracedPass(bool analyzer) {
  PassTimes t;
  // Runs `fn`, charging its wall and CPU time to backend `b`.
  const auto timed = [&t](Backend b, const auto& fn) {
    const u64 cpu0 = CpuNs();
    const u64 wall0 = WallNs();
    auto r = fn();
    const double wall = static_cast<double>(WallNs() - wall0);
    t.wall_ns += wall;
    t.cpu_ns += static_cast<double>(CpuNs() - cpu0);
    t.ic_ns += b == Backend::kConsequenceIC ? wall : 0.0;
    t.runs.emplace_back(b, wall);
    return r;
  };
  if (Serving()) {
    serve::ServeResult ic = timed(Backend::kConsequenceIC, [&] {
      return serve::ShardServer(ServeCfg(opt_.seed, Backend::kConsequenceIC)).Serve(log_);
    });
    serve::ServeResult pt = timed(Backend::kPthreads, [&] {
      return serve::ShardServer(ServeCfg(opt_.seed, Backend::kPthreads)).Serve(log_);
    });
    CheckServe(ic.shards, ref_shards_);
    CheckServe(pt.shards, ref_pt_shards_);
    ops_per_pass_ = 2 * log_.size();
    last_serve_wall_ns_ = static_cast<double>(ic.wall_ns);
    last_shards_ = std::move(ic.shards);
  } else {
    const rt::RuntimeConfig cfg = ProgramConfig(opt_.seed, w_.host_workers, analyzer);
    const std::vector<RunSpec> specs = PassSpecs();
    std::vector<rt::RunResult> rs;
    for (const RunSpec& s : specs) {
      rs.push_back(timed(s.backend, [&] { return RunProgram(s, cfg); }));
    }
    CheckPrograms(specs, rs, analyzer);
    ops_per_pass_ = specs.size();
    last_runs_.clear();
    for (rt::RunResult& r : rs) {
      if (r.backend == Backend::kConsequenceIC) {
        last_runs_.push_back(std::move(r));
      }
    }
  }
  return t;
}

// Host facts of the latest untraced pass's cons-ic runs: engine scheduling
// counters and host-time shares the runtime measures itself.
std::vector<const rt::RunResult*> Bench::LastIcRuns() const {
  std::vector<const rt::RunResult*> runs;
  for (const rt::RunResult& r : last_runs_) {
    runs.push_back(&r);
  }
  for (const serve::ShardResult& s : last_shards_) {
    runs.push_back(&s.run);
  }
  return runs;
}

void Bench::AddHostFacts(const PassTimes& t) {
  double events = 0, grants = 0, lease_hits = 0, lazy = 0, condvar = 0, wakeup_free = 0;
  double acquires = 0, affinity = 0, steals = 0, held_ns = 0, commit_floor_ns = 0;
  double offfloor_ns = 0, offfloor_pages = 0, busy_max = 0, busy_sum = 0;
  for (const rt::RunResult* r : LastIcRuns()) {
    events += static_cast<double>(r->trace_events);
    grants += static_cast<double>(r->floor.floor_grants);
    lease_hits += static_cast<double>(r->floor.lease_hits);
    lazy += static_cast<double>(r->floor.lazy_retains);
    condvar += static_cast<double>(r->floor.condvar_handoffs);
    wakeup_free += static_cast<double>(r->floor.wakeup_free_handoffs);
    acquires += static_cast<double>(r->sched.slot_acquires);
    affinity += static_cast<double>(r->sched.affinity_hits);
    steals += static_cast<double>(r->sched.steals);
    for (const sim::EngineDomainFloorStat& d : r->domain_floors) {
      held_ns += static_cast<double>(d.floor_held_ns);
    }
    commit_floor_ns += static_cast<double>(r->floor_held_commit_ns);
    offfloor_ns += static_cast<double>(r->offfloor_commit_ns);
    offfloor_pages += static_cast<double>(r->offfloor_pages_installed);
  }
  for (const serve::ShardResult& s : last_shards_) {
    busy_max = std::max(busy_max, static_cast<double>(s.run.host_wall_ns));
    busy_sum += static_cast<double>(s.run.host_wall_ns);
  }
  auto add = [&](const char* name, double v) { host_samples_[name].push_back(v); };
  add("sim.ns_per_ordering_event", Ratio(t.ic_ns, events));
  add("sim.floor_grants", grants);
  add("sim.lease_hit_rate", Ratio(lease_hits, lease_hits + grants));
  add("sim.lazy_retains", lazy);
  add("sim.condvar_handoff_frac", Ratio(condvar, condvar + wakeup_free));
  add("sim.affinity_hit_rate", Ratio(affinity, acquires));
  add("sim.slot_steals", steals);
  add("sim.floor_held_frac", Ratio(held_ns, t.ic_ns));
  add("conv.floor_held_commit_ms", commit_floor_ns / 1e6);
  add("conv.offfloor_commit_frac", Ratio(offfloor_ns, t.ic_ns));
  add("conv.offfloor_pages", offfloor_pages);
  add("serve.shard_imbalance",
      Ratio(busy_max * static_cast<double>(last_shards_.size()), busy_sum));
  add("serve.shard_busy_sum_frac", Ratio(busy_sum, last_serve_wall_ns_));
}

void Bench::TracedProgramPass(bool record) {
  const rt::RuntimeConfig cfg = ProgramConfig(opt_.seed, w_.host_workers, w_.race);
  const std::vector<RunSpec> specs = PassSpecs();
  std::vector<rt::RunResult> rs;
  std::vector<std::unique_ptr<bench::TraceRun>> trs;
  std::vector<bench::RunLedger> ledgers;
  double in_runs = 0.0;

  const u64 wall0 = WallNs();
  const u64 tsc0 = bench::ReadTsc();
  for (const RunSpec& s : specs) {
    trs.push_back(std::make_unique<bench::TraceRun>(record));
    bench::tl_cursor = {};
    const u64 t0 = bench::ReadTsc();
    rs.push_back(RunProgram(s, cfg, trs.back().get()));
    const u64 t1 = bench::ReadTsc();
    bench::tl_cursor = {};
    ledgers.push_back(trs.back()->Ledger(t0, t1));
    in_runs += static_cast<double>(t1 - t0);
  }
  const double pass_tsc = static_cast<double>(bench::ReadTsc() - tsc0);
  const double pass_ns = static_cast<double>(WallNs() - wall0);
  const double ns_per_tick = pass_ns / pass_tsc;
  CheckPrograms(specs, rs, w_.race);

  // Layers are charged wall-time shares: each run's tilings are divided by
  // its mean concurrency (exactly 1 on the serial engine).
  std::array<double, bench::kNumLayers> norm{}, raw{};
  std::array<u64, bench::kNumLayers> calls{};
  double run_overhead = 0.0;
  double sync_wait_ns = 0.0;
  for (const bench::RunLedger& l : ledgers) {
    for (usize k = 0; k < bench::kNumLayers; ++k) {
      raw[k] += l.layer_tsc[k];
      norm[k] += l.layer_tsc[k] / l.concurrency;
      calls[k] += l.calls[k];
    }
    run_overhead += l.run_overhead_tsc;
    const double sync_ns = l.layer_tsc[static_cast<usize>(Layer::kSync)] * ns_per_tick;
    sync_wait_ns += std::max(0.0, sync_ns - l.sync_cpu_ns) / l.concurrency;
  }
  const auto layer = [&](Layer l) { return norm[static_cast<usize>(l)] / pass_tsc; };
  const auto count = [&](Layer l) { return static_cast<double>(calls[static_cast<usize>(l)]); };
  const auto per_call = [&](Layer l) {
    return Ratio(raw[static_cast<usize>(l)] * ns_per_tick, count(l));
  };
  const double residue = pass_tsc - in_runs;
  AddTrace("trace.pass_ms", pass_ns / 1e6);
  AddTrace("ledger.residue_frac", residue / pass_tsc);
  AddTrace("ledger.wl_frac", layer(Layer::kWl));
  AddTrace("ledger.rt_sync_frac", layer(Layer::kSync));
  AddTrace("ledger.rt_sync_wait_frac", sync_wait_ns / pass_ns);
  AddTrace("ledger.rt_mem_frac", layer(Layer::kMem));
  AddTrace("ledger.rt_work_frac", layer(Layer::kWork));
  AddTrace("ledger.rt_thread_frac", layer(Layer::kThread));
  AddTrace("ledger.rt_run_overhead_frac", run_overhead / pass_tsc);
  AddTrace("ledger.serve_route_frac", 0.0);
  AddTrace("ledger.serve_shard_frac", 0.0);
  AddTrace("ledger.serve_pool_overhead_frac", 0.0);
  AddTrace("rt.sync_calls", count(Layer::kSync));
  AddTrace("rt.sync_ns_per_call", per_call(Layer::kSync));
  AddTrace("rt.mem_calls", count(Layer::kMem));
  AddTrace("rt.mem_ns_per_call", per_call(Layer::kMem));
  AddTrace("rt.work_calls", count(Layer::kWork));
  AddTrace("rt.thread_calls", count(Layer::kThread));
  AddTrace("rt.thread_ns_per_call", per_call(Layer::kThread));
  double sum = residue + run_overhead;
  for (double v : norm) {
    sum += v;
  }
  ledger_sums_.push_back(sum / pass_tsc);

  for (usize r = 0; record && r < specs.size(); ++r) {
    const Program& p = w_.programs[specs[r].program];
    timeline_.push_back(
        {std::string(p.info->name) + "/" + std::string(rt::BackendName(specs[r].backend)),
         static_cast<u32>(r), 0, -1.0, 0.0});
    for (const bench::ThreadStats& t : trs[r]->Threads()) {
      for (const bench::Span& s : t.spans) {
        timeline_.push_back({std::string(bench::kOpNames[static_cast<usize>(s.op)]),
                             static_cast<u32>(r), t.tid,
                             static_cast<double>(s.begin_tsc - tsc0) * ns_per_tick / 1e3,
                             static_cast<double>(s.end_tsc - s.begin_tsc) * ns_per_tick / 1e3});
      }
    }
  }
}

// The serving front end traced from outside, once per backend: route, then
// one host thread per shard running Shard::Serve, as ShardServer does when
// serve_threads equals the shard count.
void Bench::TracedServePass(bool record) {
  double route = 0.0, slowest_sum = 0.0, pool_overhead = 0.0;
  const u64 t0 = WallNs();
  for (const Backend b : {Backend::kConsequenceIC, Backend::kPthreads}) {
    const serve::ServeConfig cfg = ServeCfg(opt_.seed, b);
    const u64 s0 = WallNs();
    const std::vector<std::vector<serve::Request>> queues = serve::RouteLog(log_, cfg.shards);
    const u64 routed = WallNs();
    std::vector<serve::ShardResult> shards(cfg.shards);
    std::vector<u64> begin(cfg.shards), end(cfg.shards);
    {
      std::vector<std::thread> pool;
      for (u32 i = 0; i < cfg.shards; ++i) {
        pool.emplace_back([&, i] {
          begin[i] = WallNs();
          shards[i] = serve::Shard(i, cfg).Serve(queues[i]);
          end[i] = WallNs();
        });
      }
      for (std::thread& t : pool) {
        t.join();
      }
    }
    const u64 drained = WallNs();
    CheckServe(shards, b == Backend::kPthreads ? ref_pt_shards_ : ref_shards_);
    double slowest = 0.0;
    for (u32 i = 0; i < cfg.shards; ++i) {
      slowest = std::max(slowest, static_cast<double>(end[i] - begin[i]));
    }
    route += static_cast<double>(routed - s0);
    slowest_sum += slowest;
    pool_overhead += static_cast<double>(drained - routed) - slowest;
    const u32 pid = b == Backend::kPthreads ? 1 : 0;
    if (record) {
      timeline_.push_back({std::string("serve/") + std::string(rt::BackendName(b)), pid, 0,
                           -1.0, 0.0});
      timeline_.push_back({"RouteLog", pid, 0, static_cast<double>(s0 - t0) / 1e3,
                           static_cast<double>(routed - s0) / 1e3});
      for (u32 i = 0; i < cfg.shards; ++i) {
        timeline_.push_back({"Shard::Serve", pid, i + 1, static_cast<double>(begin[i] - t0) / 1e3,
                             static_cast<double>(end[i] - begin[i]) / 1e3});
      }
    }
  }
  const double pass_ns = static_cast<double>(WallNs() - t0);
  const double residue = pass_ns - route - slowest_sum - pool_overhead;
  AddTrace("trace.pass_ms", pass_ns / 1e6);
  AddTrace("ledger.residue_frac", residue / pass_ns);
  for (const char* name : {"ledger.wl_frac", "ledger.rt_sync_frac", "ledger.rt_sync_wait_frac",
                           "ledger.rt_mem_frac", "ledger.rt_work_frac", "ledger.rt_thread_frac",
                           "ledger.rt_run_overhead_frac", "rt.sync_calls", "rt.sync_ns_per_call",
                           "rt.mem_calls", "rt.mem_ns_per_call", "rt.work_calls",
                           "rt.thread_calls", "rt.thread_ns_per_call"}) {
    AddTrace(name, 0.0);
  }
  AddTrace("ledger.serve_route_frac", route / pass_ns);
  AddTrace("ledger.serve_shard_frac", slowest_sum / pass_ns);
  AddTrace("ledger.serve_pool_overhead_frac", pool_overhead / pass_ns);
  ledger_sums_.push_back((route + slowest_sum + pool_overhead + residue) / pass_ns);
}

std::map<std::string, double> Bench::EndToEnd(const std::vector<double>& setups) const {
  std::vector<double> slowdowns;
  std::vector<u64> latencies;
  if (Serving()) {
    for (usize i = 0; i < ref_shards_.size(); ++i) {
      slowdowns.push_back(harness::Slowdown(ref_shards_[i].run.vtime, ref_pt_shards_[i].run.vtime));
      latencies.insert(latencies.end(), ref_shards_[i].latencies.begin(),
                       ref_shards_[i].latencies.end());
    }
  } else {
    for (usize p = 0; p < ref_ic_.size(); ++p) {
      slowdowns.push_back(harness::Slowdown(ref_ic_[p].vtime, ref_pt_[p].vtime));
      latencies.push_back(ref_ic_[p].vtime);
    }
  }
  std::vector<double> wall_ms, cpu_ms;
  for (const PassTimes& t : passes_) {
    wall_ms.push_back(t.wall_ns / 1e6);
    cpu_ms.push_back(t.cpu_ns / 1e6);
  }
  // A run's host time is the 5th percentile of its wall times over the
  // measured passes: what it takes when the rest of the host leaves it alone,
  // without resting on one lucky pass.
  double best_ic = 0.0, best_pt = 0.0;
  for (usize i = 0; i < passes_.front().runs.size(); ++i) {
    std::vector<double> xs;
    for (const PassTimes& t : passes_) {
      xs.push_back(t.runs[i].second);
    }
    (passes_.front().runs[i].first == Backend::kPthreads ? best_pt : best_ic) += Pct(xs, 5.0);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double p50 = Pct(wall_ms, 50.0);
  return {
      {"setup_s", Pct(setups, 50.0)},
      {"host_slowdown", Ratio(best_ic, best_pt)},
      {"pass_ms_quiet", (best_ic + best_pt) / 1e6},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"sim_slowdown_geomean", harness::GeoMean(slowdowns)},
      {"sim_slowdown_max", *std::max_element(slowdowns.begin(), slowdowns.end())},
      {"latency_p50_vt", static_cast<double>(Percentile(latencies, 50.0))},
      {"latency_p999_vt", static_cast<double>(Percentile(latencies, 99.9))},
      {"pass_ms_p50", p50},
      {"pass_ms_p75", Pct(wall_ms, 75.0)},
      {"cpu_ms_p50", Pct(cpu_ms, 50.0)},
      {"ops_per_s", Ratio(static_cast<double>(ops_per_pass_) * 1e3, p50)},
  };
}

std::map<std::string, double> Bench::PerLayer() const {
  std::map<std::string, double> v;
  for (const auto& [name, xs] : trace_samples_) {
    v[name] = Pct(xs, 50.0);
  }
  for (const auto& [name, xs] : host_samples_) {
    v[name] = Pct(xs, 50.0);
  }
  std::vector<double> wall_ms, ic_ms;
  for (const PassTimes& t : passes_) {
    wall_ms.push_back(t.wall_ns / 1e6);
    ic_ms.push_back(t.ic_ns / 1e6);
  }
  v["trace.overhead_frac"] = Ratio(v["trace.pass_ms"], Pct(wall_ms, 50.0)) - 1.0;
  v["race.overhead_ratio"] = Ratio(Pct(ic_ms, 50.0), Pct(analyzer_off_ic_ms_, 50.0));

  // Simulated counters of the latest untraced pass's cons-ic runs.
  const auto cat = [](const rt::RunResult& r, sim::TimeCat c) {
    return static_cast<double>(r.cat_totals[static_cast<usize>(c)]);
  };
  for (const rt::RunResult* r : LastIcRuns()) {
    v["clock.token_acquires"] += static_cast<double>(r->token_acquires);
    v["clock.fast_forwards"] += static_cast<double>(r->fast_forwards);
    v["clock.overflows"] += static_cast<double>(r->overflows);
    v["clock.vt_determ_wait"] += cat(*r, sim::TimeCat::kDetermWait);
    v["rt.vt_library"] += cat(*r, sim::TimeCat::kLibrary);
    v["conv.commits"] += static_cast<double>(r->commits);
    v["conv.pages_committed"] += static_cast<double>(r->pages_committed);
    v["conv.pages_propagated"] += static_cast<double>(r->pages_propagated);
    v["conv.pages_merged"] += static_cast<double>(r->pages_merged);
    v["conv.cow_faults"] += static_cast<double>(r->cow_faults);
    v["conv.vt_commit"] += cat(*r, sim::TimeCat::kCommit);
    v["conv.vt_fault"] += cat(*r, sim::TimeCat::kFault);
    v["conv.vt_gc"] += cat(*r, sim::TimeCat::kGc);
    v["conv.peak_mem_mb"] =
        std::max(v["conv.peak_mem_mb"], static_cast<double>(r->peak_mem_bytes) / (1 << 20));
    v["sim.ordering_events"] += static_cast<double>(r->trace_events);
    v["sim.vt_barrier_wait"] += cat(*r, sim::TimeCat::kBarrierWait);
    v["wl.vt_chunk"] += cat(*r, sim::TimeCat::kChunk);
    v["race.ww"] += static_cast<double>(r->race_ww);
    v["race.rw"] += static_cast<double>(r->race_rw);
    v["race.records"] += static_cast<double>(r->races.size());
    v["race.racy"] += static_cast<double>(r->race_racy);
    v["race.ordered"] += static_cast<double>(r->race_ordered);
  }
  return v;
}

// Prints a table, writes BENCH_csq_bench[_trace]_<workload>.json with every
// metric of `tables`, and prints the result object, which holds the first
// table's metrics, as the last line of stdout.
int Bench::Emit(const std::map<std::string, double>& values,
                const std::vector<const std::vector<MetricDef>*>& tables) const {
  const std::string wname(w_.name);
  std::string result, detail;
  std::printf("csq_bench %s seed=%llu%s: %zu passes, %llu/%llu ops failed\n", wname.c_str(),
              static_cast<unsigned long long>(opt_.seed), opt_.trace ? " (traced)" : "",
              opt_.trace ? ledger_sums_.size() : passes_.size(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  for (const std::vector<MetricDef>* table : tables) {
    for (const MetricDef& d : *table) {
      const auto it = values.find(d.name);
      CSQ_CHECK_MSG(it != values.end(), "metric " << d.name << " was not measured");
      const std::string v = Num(it->second);
      std::printf("  %-32s %24s %s\n", d.name, v.c_str(), d.unit);
      const std::string head =
          util::JsonQuote(d.name) + ": {\"value\": " + v + ", \"unit\": " + util::JsonQuote(d.unit);
      if (table == tables.front()) {
        result += (result.empty() ? "" : ", ") + head + "}";
      }
      detail += (detail.empty() ? "" : ", ") + head + ", \"better\": \"" + d.better +
                "\", \"class\": \"" + d.cls + "\", \"bound\": " + Num(d.bound) + "}";
    }
  }
  std::string pass_ms;
  for (const PassTimes& t : passes_) {
    pass_ms += (pass_ms.empty() ? "" : ", ") + Num(t.wall_ns / 1e6);
  }
  std::string sums;
  for (double s : ledger_sums_) {
    sums += (sums.empty() ? "" : ", ") + Num(s);
  }
  const u32 cores = HostCores();
  const std::string path =
      "BENCH_csq_bench_" + std::string(opt_.trace ? "trace_" : "") + wname + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(
        f,
        "{\"bench\": \"csq_bench\", \"workload\": %s, \"seed\": %llu, \"trace\": %s, "
        "\"quick\": %s, \"host_cores\": %u, \"single_core_caveat\": %s, \"attempted\": %llu, "
        "\"failed\": %llu, \"error_rate\": %s, \"ops_per_pass\": %llu, \"pass_ms\": [%s], "
        "\"ledger_sums\": [%s], \"metrics\": {%s}}\n",
        util::JsonQuote(wname).c_str(), static_cast<unsigned long long>(opt_.seed),
        opt_.trace ? "true" : "false", quick_ ? "true" : "false", cores,
        cores < 2 ? "true" : "false", static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_),
        Num(Ratio(static_cast<double>(failed_), static_cast<double>(attempted_))).c_str(),
        static_cast<unsigned long long>(ops_per_pass_), pass_ms.c_str(), sums.c_str(),
        detail.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              failed_ == 0 ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), result.c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

void Bench::WriteTimeline() const {
  const std::string path = "TRACE_csq_bench_" + std::string(w_.name) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (usize i = 0; i < timeline_.size(); ++i) {
    const TimelineSpan& s = timeline_[i];
    const char* sep = i + 1 < timeline_.size() ? "," : "";
    if (s.ts_us < 0.0) {
      std::fprintf(f,
                   "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %u, \"args\": "
                   "{\"name\": %s}}%s\n",
                   s.pid, util::JsonQuote(s.name).c_str(), sep);
    } else {
      std::fprintf(f,
                   "{\"name\": %s, \"ph\": \"X\", \"pid\": %u, \"tid\": %u, \"ts\": %.3f, "
                   "\"dur\": %.3f}%s\n",
                   util::JsonQuote(s.name).c_str(), s.pid, s.tid, s.ts_us, s.dur_us, sep);
    }
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu spans)\n", path.c_str(), timeline_.size());
}

int Bench::Main() {
  const u64 budget_ns = static_cast<u64>(opt_.seconds * 1e9);
  if (!opt_.trace) {
    std::vector<double> setups;
    for (int i = 0; i < (quick_ ? 1 : 3); ++i) {
      setups.push_back(Setup());
    }
    const u64 start = WallNs();
    const usize min_passes = quick_ ? 2 : 3;
    while (passes_.size() < min_passes || (!quick_ && WallNs() - start < budget_ns)) {
      passes_.push_back(UntracedPass(w_.race));
    }
    return Emit(EndToEnd(setups), {&kEndToEnd, &kHostTimes});
  }

  Setup();
  const u64 start = WallNs();
  do {
    const bool record = ledger_sums_.empty();
    if (Serving()) {
      TracedServePass(record);
    } else {
      TracedProgramPass(record);
    }
    if (w_.race) {
      analyzer_off_ic_ms_.push_back(UntracedPass(false).ic_ns / 1e6);
    }
    // Last, so the host facts and counters read the measured configuration.
    passes_.push_back(UntracedPass(w_.race));
    AddHostFacts(passes_.back());
  } while (!quick_ && WallNs() - start < budget_ns);
  for (double s : ledger_sums_) {
    if (std::fabs(s - 1.0) > 1e-9) {
      std::fprintf(stderr, "FAIL ledger: a traced pass sums to %.12f of its wall time\n", s);
      ++failed_;
    }
  }
  WriteTimeline();
  return Emit(PerLayer(), {&kPerLayer});
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "csq_bench: %s\n", msg);
  std::fprintf(stderr,
               "usage: csq_bench --workload <name> [--seed S] [--seconds T] [--trace 0|1]\n"
               "workloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", std::string(w.name).c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  if (argc % 2 == 0) {
    Usage("every option takes one value");
  }
  for (int i = 1; i < argc; i += 2) {
    const std::string_view a = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || v[0] == '-') {
        Usage("--seed takes a non-negative integer");
      }
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0 && o.seconds <= 600.0)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (a == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") {
        Usage("--trace takes 0 or 1");
      }
      o.trace = std::string_view(v) == "1";
    } else {
      Usage("unknown option");
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  for (const Workload& w : Workloads()) {
    if (w.name == opt.workload) {
      return Bench(w, opt).Main();
    }
  }
  Usage("unknown workload");
}
