#include "obs/trace.h"

#include <algorithm>
#include <cmath>

namespace pdw::obs {

Tracer::Tracer() : id_([] {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}()) {}

void Tracer::enable(size_t capacity_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(capacity_per_thread, 16);
  for (auto& r : rings_) {
    r->events.assign(capacity_, TraceEvent{});
    r->written.store(0, std::memory_order_release);
  }
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

uint64_t Tracer::epoch_ns() const {
  std::lock_guard<std::mutex> lock(mu_);  // enable() moves the epoch
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      epoch_.time_since_epoch())
                      .count());
}

Tracer::Ring& Tracer::ring() {
  // Each thread caches its ring per tracer instance; the rings themselves
  // are owned by the tracer and outlive the threads, so events survive
  // thread joins until collect(). Entries match on (address, instance id):
  // the address alone is not identity, because a destroyed tracer's storage
  // can be reused by a new one, and resolving through a stale entry would
  // dereference the old tracer's freed rings.
  struct Entry {
    const Tracer* owner;
    uint64_t id;
    Ring* ring;
  };
  thread_local std::vector<Entry> cache;
  Entry* stale = nullptr;
  for (Entry& e : cache) {
    if (e.owner != this) continue;
    if (e.id == id_) return *e.ring;
    stale = &e;  // address reused; re-register below
    break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>());
  Ring& r = *rings_.back();
  r.events.assign(capacity_, TraceEvent{});
  r.tid = int(rings_.size());
  if (stale)
    *stale = Entry{this, id_, &r};
  else
    cache.push_back(Entry{this, id_, &r});
  return r;
}

void Tracer::record(const char* name, int pid, uint64_t start_ns,
                    uint64_t dur_ns, uint32_t pic) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.pid = pid;
  e.arg_pic = pic;
  e.ph = 'X';
  Ring& r = ring();
  e.tid = r.tid;
  append(r, e);
}

void Tracer::instant(const char* name, int pid, uint32_t pic) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.ts_ns = now_ns();
  e.pid = pid;
  e.arg_pic = pic;
  e.ph = 'i';
  Ring& r = ring();
  e.tid = r.tid;
  append(r, e);
}

void Tracer::add_complete(const char* name, int pid, int tid, double start_s,
                          double dur_s, uint32_t pic) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.ts_ns = uint64_t(std::max(0.0, start_s) * 1e9);
  e.dur_ns = uint64_t(std::max(0.0, dur_s) * 1e9);
  e.pid = pid;
  e.tid = tid;
  e.arg_pic = pic;
  e.ph = 'X';
  Ring& r = ring();
  append(r, e);
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : rings_) {
    const size_t cap = r->events.size();
    const uint64_t w = r->written.load(std::memory_order_acquire);
    const size_t n = size_t(std::min<uint64_t>(w, cap));
    const size_t first = w > cap ? size_t(w % cap) : 0;
    for (size_t i = 0; i < n; ++i)
      out.push_back(r->events[(first + i) % cap]);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

uint64_t Tracer::dropped() const {
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : rings_) {
    const uint64_t w = r->written.load(std::memory_order_acquire);
    if (w > r->events.size()) dropped += w - r->events.size();
  }
  return dropped;
}

void Tracer::drain_new(std::vector<uint64_t>* cursors,
                       std::vector<TraceEvent>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (cursors->size() < rings_.size()) cursors->resize(rings_.size(), 0);
  for (size_t i = 0; i < rings_.size(); ++i) {
    const Ring& r = *rings_[i];
    const size_t cap = r.events.size();
    const uint64_t w = r.written.load(std::memory_order_acquire);
    uint64_t cur = (*cursors)[i];
    if (cur > w) cur = w;             // ring was reset by enable()
    if (w - cur > cap) cur = w - cap;  // lapped: oldest survivors only
    for (; cur < w; ++cur) out->push_back(r.events[size_t(cur % cap)]);
    (*cursors)[i] = cur;
  }
}

std::map<std::pair<std::string, int>, Tracer::Agg> Tracer::aggregate() const {
  std::map<std::pair<std::string, int>, Agg> agg;
  for (const TraceEvent& e : collect()) {
    if (e.ph != 'X') continue;
    Agg& a = agg[{std::string(e.name), int(e.pid)}];
    ++a.count;
    a.total_ns += e.dur_ns;
  }
  return agg;
}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // never destroyed
  return *tracer;
}

}  // namespace pdw::obs
