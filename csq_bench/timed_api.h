// Bench-side tracing decorator of rt::ThreadApi: a per-layer host-time ledger
// built only from the public API boundary.
//
// Every ThreadApi call a workload makes is a boundary event. Each event reads
// the time-stamp counter, and a thread_local cursor per HOST thread charges
// the interval since that host thread's previous event:
//
//   * to the layer of the op just entered, if the previous event was an
//     enter (the interval ran inside the runtime);
//   * otherwise to `wl`, the workload's own code between calls.
//
// Because the cursor is per host thread rather than per simulated thread, the
// intervals tile a Run() exactly on the serial engine, where every simulated
// thread is a fiber of one host thread: a fiber switch inside Lock() is
// charged to Lock until the next fiber's next event. On the threaded engine
// each simulated thread owns a host thread, and the per-thread tilings run
// concurrently (TraceRun::Ledger normalizes them to wall time).
//
// Sync ops also read the thread CPU clock, splitting their self time into
// busy and waiting. Memory and Work calls are only counted and timed; every
// other call can be kept as a span for a Chrome trace.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "src/rt/api.h"
#include "src/util/types.h"

namespace csq::bench {

// Layers of the ledger, as the bench sees them from outside the runtime.
enum class Layer : u8 {
  kWl,      // workload code between API calls (the control)
  kSync,    // Lock .. Fence: clock, lock protocol, commit ordering
  kMem,     // LoadBytes / StoreBytes: conv load/store, CoW faults
  kWork,    // Work: the modelled computation's clock charge
  kThread,  // Spawn, Join, SharedAlloc, Create*, and thread exit
  kCount,
};
inline constexpr usize kNumLayers = static_cast<usize>(Layer::kCount);

enum class Op : u8 {
  kLock,
  kUnlock,
  kCondWait,
  kCondSignal,
  kCondBroadcast,
  kBarrierWait,
  kAtomicRmw,
  kFence,
  kLoad,
  kStore,
  kWork,
  kSpawn,
  kJoin,
  kSharedAlloc,
  kCreateMutex,
  kCreateCond,
  kCreateBarrier,
  kThreadExit,  // pseudo-op: a child's exit protocol after its body returns
  kCount,
};

inline constexpr std::array<std::string_view, static_cast<usize>(Op::kCount)> kOpNames = {
    "Lock",        "Unlock",       "CondWait",     "CondSignal",    "CondBroadcast",
    "BarrierWait", "AtomicRmw",    "Fence",        "LoadBytes",     "StoreBytes",
    "Work",        "SpawnThread",  "JoinThread",   "SharedAlloc",   "CreateMutex",
    "CreateCond",  "CreateBarrier", "ThreadExit",
};

constexpr Layer LayerOf(Op op) {
  switch (op) {
    case Op::kLoad:
    case Op::kStore:
      return Layer::kMem;
    case Op::kWork:
      return Layer::kWork;
    case Op::kSpawn:
    case Op::kJoin:
    case Op::kSharedAlloc:
    case Op::kCreateMutex:
    case Op::kCreateCond:
    case Op::kCreateBarrier:
    case Op::kThreadExit:
      return Layer::kThread;
    default:
      return Layer::kSync;
  }
}

inline u64 ReadTsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<u64>(std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

inline u64 ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ULL + static_cast<u64>(ts.tv_nsec);
}

// One call kept for the timeline (sync and thread ops of a recorded pass).
struct Span {
  Op op = Op::kLock;
  u64 begin_tsc = 0;
  u64 end_tsc = 0;
};

// Per simulated thread. Written only by events charged to this thread; read
// after Run() returns (the engine has joined every host thread by then).
struct ThreadStats {
  u32 tid = 0;
  std::array<u64, kNumLayers> self_tsc{};
  std::array<u64, kNumLayers> calls{};
  u64 sync_cpu_ns = 0;  // thread CPU time inside sync-charged intervals
  u64 first_tsc = 0;
  u64 last_tsc = 0;
  std::vector<Span> spans;
};

// The interval currently open on this host thread. `owner` is null before a
// host thread's first event of a run and after the run's last one.
struct Cursor {
  ThreadStats* owner = nullptr;
  Layer layer = Layer::kWl;
  u64 tsc = 0;
  u64 cpu_ns = 0;
};
inline thread_local Cursor tl_cursor;

// Closes the open interval on this host thread, charging it to the previous
// event's layer, and opens one of layer `next` owned by `st`.
inline u64 Mark(ThreadStats* st, Layer next) {
  const u64 now = ReadTsc();
  Cursor& c = tl_cursor;
  if (c.owner != nullptr) {
    c.owner->self_tsc[static_cast<usize>(c.layer)] += now - c.tsc;
    if (c.layer == Layer::kSync) {
      c.owner->sync_cpu_ns += ThreadCpuNs() - c.cpu_ns;
    }
  }
  if (st->first_tsc == 0) {
    st->first_tsc = now;
  }
  st->last_tsc = now;
  c.owner = st;
  c.layer = next;
  c.tsc = now;
  if (next == Layer::kSync) {
    c.cpu_ns = ThreadCpuNs();
  }
  return now;
}

// Per-layer totals of one Run(), in TSC ticks. `layer_tsc / concurrency`
// summed over layers, plus `run_overhead_tsc`, equals the Run's span.
struct RunLedger {
  std::array<double, kNumLayers> layer_tsc{};  // summed over host threads
  std::array<u64, kNumLayers> calls{};
  double sync_cpu_ns = 0.0;
  double run_overhead_tsc = 0.0;
  double concurrency = 1.0;  // mean number of host threads with an open interval
};

// Registry of one traced Run(): the stats of every simulated thread.
class TraceRun {
 public:
  explicit TraceRun(bool record_spans) : record_spans_(record_spans) {}

  TraceRun(const TraceRun&) = delete;
  TraceRun& operator=(const TraceRun&) = delete;

  ThreadStats& NewThread(u32 tid) {
    std::lock_guard<std::mutex> lk(mu_);
    ThreadStats& st = threads_.emplace_back();
    st.tid = tid;
    return st;
  }

  bool RecordSpans() const { return record_spans_; }
  const std::deque<ThreadStats>& Threads() const { return threads_; }

  // The Run's ledger, given TSC readings taken on the calling host thread just
  // before the runtime was built and just after it was destroyed. Time before
  // the first event and after the last one is run overhead. Between them the
  // per-thread tilings sum to the covered span times the mean concurrency, so
  // dividing each layer by that concurrency makes the layers add up to the
  // covered span. On the serial engine the concurrency is exactly 1.
  RunLedger Ledger(u64 begin_tsc, u64 end_tsc) const {
    RunLedger out;
    u64 first = ~0ULL;
    u64 last = 0;
    double tiled = 0.0;
    for (const ThreadStats& t : threads_) {
      if (t.first_tsc == 0) {
        continue;
      }
      first = std::min(first, t.first_tsc);
      last = std::max(last, t.last_tsc);
      for (usize l = 0; l < kNumLayers; ++l) {
        out.layer_tsc[l] += static_cast<double>(t.self_tsc[l]);
        out.calls[l] += t.calls[l];
        tiled += static_cast<double>(t.self_tsc[l]);
      }
      out.sync_cpu_ns += static_cast<double>(t.sync_cpu_ns);
    }
    if (tiled == 0.0) {
      out.run_overhead_tsc = static_cast<double>(end_tsc - begin_tsc);
      return out;
    }
    out.concurrency = tiled / static_cast<double>(last - first);
    out.run_overhead_tsc =
        static_cast<double>(first - begin_tsc) + static_cast<double>(end_tsc - last);
    return out;
  }

 private:
  const bool record_spans_;
  std::mutex mu_;  // guards threads_ growth (children register concurrently)
  std::deque<ThreadStats> threads_;
};

class TimedApi final : public rt::ThreadApi {
 public:
  TimedApi(rt::ThreadApi& inner, TraceRun& run, ThreadStats& st)
      : inner_(inner), run_(run), st_(st) {}

  // Runs `fn` as the body of the simulated thread `api` belongs to, bracketed
  // by its first event and, for children, the exit pseudo-op that charges the
  // runtime's exit protocol to the thread layer.
  template <typename Fn>
  static auto RunBody(rt::ThreadApi& api, TraceRun& run, bool main_thread, Fn&& fn) {
    ThreadStats& st = run.NewThread(api.Tid());
    TimedApi timed(api, run, st);
    Mark(&st, Layer::kWl);
    if constexpr (std::is_void_v<decltype(fn(timed))>) {
      fn(timed);
      timed.Finish(main_thread);
    } else {
      auto r = fn(timed);
      timed.Finish(main_thread);
      return r;
    }
  }

  u32 Tid() const override { return inner_.Tid(); }
  u32 NumThreads() const override { return inner_.NumThreads(); }
  u64 Now() const override { return inner_.Now(); }

  void Work(u64 units) override {
    Enter(Op::kWork);
    inner_.Work(units);
    Mark(&st_, Layer::kWl);
  }

  void LoadBytes(u64 addr, void* out, usize n) override {
    Enter(Op::kLoad);
    inner_.LoadBytes(addr, out, n);
    Mark(&st_, Layer::kWl);
  }
  void StoreBytes(u64 addr, const void* in, usize n) override {
    Enter(Op::kStore);
    inner_.StoreBytes(addr, in, n);
    Mark(&st_, Layer::kWl);
  }

  u64 AtomicRmw(u64 addr, rt::RmwOp op, u64 operand) override {
    return Call(Op::kAtomicRmw, [&] { return inner_.AtomicRmw(addr, op, operand); });
  }
  void Fence() override {
    Call(Op::kFence, [&] { inner_.Fence(); });
  }
  u64 SharedAlloc(usize n, usize align, std::string_view tag) override {
    return Call(Op::kSharedAlloc, [&] { return inner_.SharedAlloc(n, align, tag); });
  }
  rt::MutexId CreateMutex() override {
    return Call(Op::kCreateMutex, [&] { return inner_.CreateMutex(); });
  }
  rt::CondId CreateCond() override {
    return Call(Op::kCreateCond, [&] { return inner_.CreateCond(); });
  }
  rt::BarrierId CreateBarrier(u32 parties) override {
    return Call(Op::kCreateBarrier, [&] { return inner_.CreateBarrier(parties); });
  }
  void Lock(rt::MutexId m) override {
    Call(Op::kLock, [&] { inner_.Lock(m); });
  }
  void Unlock(rt::MutexId m) override {
    Call(Op::kUnlock, [&] { inner_.Unlock(m); });
  }
  void CondWait(rt::CondId c, rt::MutexId m) override {
    Call(Op::kCondWait, [&] { inner_.CondWait(c, m); });
  }
  void CondSignal(rt::CondId c) override {
    Call(Op::kCondSignal, [&] { inner_.CondSignal(c); });
  }
  void CondBroadcast(rt::CondId c) override {
    Call(Op::kCondBroadcast, [&] { inner_.CondBroadcast(c); });
  }
  void BarrierWait(rt::BarrierId b) override {
    Call(Op::kBarrierWait, [&] { inner_.BarrierWait(b); });
  }

  rt::ThreadHandle SpawnThread(std::function<void(rt::ThreadApi&)> fn) override {
    TraceRun* run = &run_;
    return Call(Op::kSpawn, [&] {
      return inner_.SpawnThread([run, fn = std::move(fn)](rt::ThreadApi& child) {
        RunBody(child, *run, /*main_thread=*/false, fn);
      });
    });
  }
  void JoinThread(rt::ThreadHandle h) override {
    Call(Op::kJoin, [&] { inner_.JoinThread(h); });
  }

 private:
  u64 Enter(Op op) {
    ++st_.calls[static_cast<usize>(LayerOf(op))];
    return Mark(&st_, LayerOf(op));
  }

  template <typename Fn>
  std::invoke_result_t<Fn&> Call(Op op, Fn&& fn) {
    const u64 begin = Enter(op);
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      Exit(op, begin);
    } else {
      auto r = fn();
      Exit(op, begin);
      return r;
    }
  }

  void Exit(Op op, u64 begin) {
    const u64 end = Mark(&st_, Layer::kWl);
    if (run_.RecordSpans()) {
      st_.spans.push_back(Span{op, begin, end});
    }
  }

  // The body returned. A child's exit protocol (final commit, joiner wakeup)
  // runs after this, inside the runtime: charge it to the thread layer. The
  // main thread's last event ends the tiling; what follows is run overhead.
  void Finish(bool main_thread) {
    if (main_thread) {
      Mark(&st_, Layer::kWl);
      tl_cursor.owner = nullptr;
    } else {
      Enter(Op::kThreadExit);
    }
  }

  rt::ThreadApi& inner_;
  TraceRun& run_;
  ThreadStats& st_;
};

}  // namespace csq::bench
