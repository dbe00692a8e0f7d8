// Per-thread ring-buffer span tracer with near-zero cost when disabled.
//
// Every pipeline stage wraps itself in PDW_TRACE_SPAN("name", node, pic);
// when tracing is off (the default) the macro costs one relaxed atomic load
// and nothing is recorded. When enabled (Tracer::global().enable(), or any
// tool honouring the PDW_TRACE environment variable), each thread appends
// fixed-size events to its own ring buffer — no locks, no allocation on the
// hot path after the ring is registered — and collect() merges the rings
// into one timeline for the Chrome-trace / text exporters in obs/export.h.
//
// Two clock domains share the same event stream:
//   * real-time spans (the RAII Span/macro path) stamp steady-clock ns since
//     the tracer epoch — the threaded pipeline and the lockstep reference;
//   * virtual-time spans (add_complete) carry modeled seconds — the
//     discrete-event simulator emits its per-stage schedule this way, with
//     pids offset by sim::kSimTracePidBase so the modeled cluster shows up
//     as its own process group in Perfetto.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pdw::obs {

struct TraceEvent {
  const char* name = nullptr;  // static string (span / event name)
  uint64_t ts_ns = 0;          // start, ns since tracer epoch
  uint64_t dur_ns = 0;         // 0 for instant events
  int32_t pid = 0;             // node id (process lane in Perfetto)
  int32_t tid = 0;             // thread ordinal within the trace
  uint32_t arg_pic = 0xFFFFFFFFu;  // picture index (kNoPic: none)
  char ph = 'X';               // 'X' complete span, 'i' instant
};

class Tracer {
 public:
  static constexpr uint32_t kNoPic = 0xFFFFFFFFu;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Start recording. `capacity_per_thread` bounds each thread's ring; when a
  // ring wraps, the oldest events are overwritten (dropped() reports how
  // many). Resets the epoch and clears previously collected events.
  void enable(size_t capacity_per_thread = size_t(1) << 18);
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // ns since the tracer epoch (real-time clock domain), shifted by the
  // configured epoch offset.
  uint64_t now_ns() const {
    const int64_t raw =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count();
    const int64_t shifted =
        raw + epoch_offset_ns_.load(std::memory_order_relaxed);
    return shifted > 0 ? uint64_t(shifted) : 0;
  }

  // Rebase this tracer's real-time clock domain: every subsequent now_ns()
  // (and therefore every span/instant timestamp) is shifted by `off`. The
  // telemetry layer uses this to slide a process's trace domain onto a
  // collector's (obs/telemetry.h estimates the offset); tests use it to
  // model a skewed node clock.
  void set_epoch_offset_ns(int64_t off) {
    epoch_offset_ns_.store(off, std::memory_order_relaxed);
  }
  int64_t epoch_offset_ns() const {
    return epoch_offset_ns_.load(std::memory_order_relaxed);
  }

  // Record a completed real-time span (what ~Span calls).
  void record(const char* name, int pid, uint64_t start_ns, uint64_t dur_ns,
              uint32_t pic = kNoPic);
  // Instant event (retransmit, death notice, adoption).
  void instant(const char* name, int pid, uint32_t pic = kNoPic);
  // Virtual-time span in seconds (DES emission); `tid` names the modeled
  // execution lane.
  void add_complete(const char* name, int pid, int tid, double start_s,
                    double dur_s, uint32_t pic = kNoPic);

  // Merge every thread's ring into one timeline sorted by start time. Not
  // synchronized with concurrently recording threads — call after the traced
  // run finished (live tools poll the metrics registry instead).
  std::vector<TraceEvent> collect() const;

  // Incremental, non-destructive drain for the telemetry exporter: append
  // every event recorded since the cursors were last advanced to `out`
  // (unsorted) and advance the cursors. `cursors` must be reused across
  // calls on the same tracer (it grows as threads register rings). Events
  // lost to ring wrap between drains are skipped. Each ring's write cursor
  // is released by the recording thread, so fully drained events are safe
  // to read; a ring being lapped mid-drain can still tear — the exporter
  // runs while the wall decodes and accepts that the sideband is lossy.
  void drain_new(std::vector<uint64_t>* cursors,
                 std::vector<TraceEvent>* out) const;

  // Total events lost to ring wrap-around across all threads.
  uint64_t dropped() const;

  // Per-(name, pid) aggregate of completed spans.
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };
  std::map<std::pair<std::string, int>, Agg> aggregate() const;

  static Tracer& global();

 private:
  struct Ring {
    std::vector<TraceEvent> events;  // fixed capacity
    // Total appended (wraps the ring). Written only by the owning thread;
    // the release store publishes the event just written so drain_new() can
    // read fully written slots with an acquire load.
    std::atomic<uint64_t> written{0};
    int tid = 0;
  };

  Ring& ring();  // this thread's ring (registers on first use)
  void append(Ring& r, const TraceEvent& e) {
    const uint64_t w = r.written.load(std::memory_order_relaxed);
    r.events[size_t(w % r.events.size())] = e;
    r.written.store(w + 1, std::memory_order_release);
  }

  std::atomic<bool> enabled_{false};
  // Process-unique instance id: the per-thread ring cache keys on (address,
  // id) so a new tracer reusing a destroyed one's address can never resolve
  // to the old tracer's (freed) rings.
  const uint64_t id_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<int64_t> epoch_offset_ns_{0};

  mutable std::mutex mu_;  // guards rings_ registration and collect()
  std::vector<std::unique_ptr<Ring>> rings_;
  size_t capacity_ = size_t(1) << 18;
};

// RAII span: stamps start on construction, records on destruction. All work
// is skipped when the global tracer is disabled.
class Span {
 public:
  Span(const char* name, int pid, uint32_t pic = Tracer::kNoPic) {
    Tracer& t = Tracer::global();
    if (!t.enabled()) return;
    tracer_ = &t;
    name_ = name;
    pid_ = pid;
    pic_ = pic;
    start_ns_ = t.now_ns();
  }
  ~Span() {
    if (tracer_)
      tracer_->record(name_, pid_, start_ns_, tracer_->now_ns() - start_ns_,
                      pic_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  int pid_ = 0;
  uint32_t pic_ = 0;
  uint64_t start_ns_ = 0;
};

#define PDW_OBS_CONCAT_(a, b) a##b
#define PDW_OBS_CONCAT(a, b) PDW_OBS_CONCAT_(a, b)

// PDW_TRACE_SPAN("decode_sp", node, pic): trace the enclosing scope.
#define PDW_TRACE_SPAN(...) \
  ::pdw::obs::Span PDW_OBS_CONCAT(pdw_trace_span_, __COUNTER__)(__VA_ARGS__)

// PDW_TRACE_INSTANT("retransmit", node): mark a point event.
#define PDW_TRACE_INSTANT(...) ::pdw::obs::Tracer::global().instant(__VA_ARGS__)

// Canonical span names. The decoder five map 1:1 onto the paper's Fig. 7
// categories (Work / Serve / Receive / Wait / Ack); every engine emits the
// same names so one exporter serves all three. decode_band nests inside
// decode_sp, one per row band on whichever thread ran it; it is part of
// Work, not a category of its own. split_part likewise nests inside
// split_pic, one per slice part of the macroblock splitter.
namespace span {
inline constexpr char kCopyPic[] = "copy_pic";          // root
inline constexpr char kGoAheadWait[] = "goahead_wait";  // root
inline constexpr char kSplitPic[] = "split_pic";        // splitter
inline constexpr char kSplitPart[] = "split_part";      // splitter: in split
inline constexpr char kAnidWait[] = "anid_wait";        // splitter
inline constexpr char kRouteSp[] = "route_sp";          // splitter
inline constexpr char kRecvSp[] = "recv_sp";            // decoder: Receive
inline constexpr char kServeSp[] = "serve_sp";          // decoder: Serve
inline constexpr char kWaitHalo[] = "wait_halo";        // decoder: Wait
inline constexpr char kDecodeSp[] = "decode_sp";        // decoder: Work
inline constexpr char kDecodeBand[] = "decode_band";    // decoder: in Work
inline constexpr char kAckPic[] = "ack_pic";            // decoder: Ack
inline constexpr char kRetransmit[] = "retransmit";     // transport instant
inline constexpr char kAbandon[] = "abandon";           // transport instant
inline constexpr char kDeath[] = "death_declared";      // root instant
inline constexpr char kAdopt[] = "adopt_tile";          // decoder instant
inline constexpr char kRebalance[] = "rebalance";       // root instant
}  // namespace span

}  // namespace pdw::obs
