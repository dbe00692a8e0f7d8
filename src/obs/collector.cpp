#include "obs/collector.h"

#include <algorithm>
#include <cmath>

#include "common/text_table.h"
#include "obs/export.h"

namespace pdw::obs {

namespace {

// Bound on retained spans per process; a full buffer drops its oldest
// quarter.
constexpr size_t kMaxSpansPerProcess = size_t(1) << 20;

// Percentile over merged (bucket index -> count), same definition as
// Histogram::percentile: lower edge of the bucket holding the
// ceil(p/100 * n)-th sample.
uint64_t bucket_percentile(const std::map<int, uint64_t>& buckets, uint64_t n,
                           double p) {
  if (n == 0) return 0;
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  const uint64_t rank =
      std::max<uint64_t>(1, uint64_t(std::ceil(clamped / 100.0 * double(n))));
  uint64_t cum = 0;
  for (const auto& [idx, c] : buckets) {
    cum += c;
    if (cum >= rank) return Histogram::bucket_lower(idx);
  }
  return Histogram::bucket_lower(Histogram::kBuckets - 1);
}

}  // namespace

Collector::Collector(uint16_t port) : sock_(port) {}

Collector::~Collector() { stop(); }

void Collector::start() {
  if (started_ || !sock_.ok()) return;
  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run_loop(); });
}

void Collector::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  started_ = false;
}

void Collector::run_loop() {
  // Short wait slices: the loop notices stop_ soon.
  while (!stop_.load(std::memory_order_relaxed))
    if (sock_.wait(0.02)) poll();
}

void Collector::poll() {
  uint8_t buf[64 * 1024];
  while (const std::optional<size_t> n = sock_.recv(buf))
    handle_datagram(buf, *n);
}

void Collector::handle_datagram(const uint8_t* data, size_t len) {
  TelemetryFrame f;
  if (!decode_frame(data, len, &f) || f.token == 0) return;

  std::lock_guard<std::mutex> lock(mu_);
  datagrams_ += 1;
  bytes_ += len;
  auto it = procs_.find(f.token);
  if (it == procs_.end()) {
    if (procs_.size() >= kMaxProcesses) {
      dropped_frames_ += 1;
      return;
    }
    it = procs_.try_emplace(f.token).first;
  }
  Proc& proc = it->second;
  proc.info.token = f.token;
  proc.info.datagrams += 1;
  proc.info.bytes += len;
  bool stale = false;  // out-of-order frame: spans still append, absolutes skip
  if (proc.seq_seen) {
    if (f.seq > proc.last_seq + 1)
      proc.info.seq_gaps += f.seq - proc.last_seq - 1;
    stale = f.seq <= proc.last_seq;
  }
  if (!stale) {
    proc.last_seq = f.seq;
    proc.seq_seen = true;
  }
  if (f.hello) {
    proc.info.os_pid = f.hello->os_pid;
    proc.info.nodes.clear();
    for (uint16_t n : f.hello->hosted) proc.info.nodes.push_back(int(n));
    if (f.hello->nodes) {
      k_ = f.hello->k;
      tiles_ = f.hello->tiles;
      nodes_expected_ = f.hello->nodes;
    }
  }
  if (f.bye) proc.info.bye = true;
  if (!stale)
    for (MetricRecord& m : f.metrics) {
      const auto key = std::make_tuple(m.family, int(m.node), int(m.stream),
                                       int(m.kind));
      if (!proc.metrics.contains(key) &&
          proc.metrics.size() >= kMaxMetricsPerProcess) {
        dropped_metrics_ += 1;
        continue;
      }
      proc.metrics[key] = std::move(m);
    }
  for (SpanRecord& s : f.spans) {
    if (proc.spans.size() >= kMaxSpansPerProcess)
      proc.spans.erase(proc.spans.begin(),
                       proc.spans.begin() + long(kMaxSpansPerProcess / 4));
    proc.info.span_events += 1;
    proc.spans.push_back(std::move(s));
  }
}

std::vector<Collector::ProcessInfo> Collector::processes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProcessInfo> out;
  out.reserve(procs_.size());
  for (const auto& [token, p] : procs_) out.push_back(p.info);
  return out;
}

int Collector::k() const {
  std::lock_guard<std::mutex> lock(mu_);
  return k_;
}
int Collector::tiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tiles_;
}
int Collector::nodes_expected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_expected_;
}

std::vector<int> Collector::nodes_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out;
  for (const auto& [token, p] : procs_)
    out.insert(out.end(), p.info.nodes.begin(), p.info.nodes.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Collector::all_nodes_seen() const {
  const int expected = nodes_expected();
  if (expected == 0) return false;
  const std::vector<int> seen = nodes_seen();
  if (int(seen.size()) < expected) return false;
  for (int n = 0; n < expected; ++n)
    if (!std::binary_search(seen.begin(), seen.end(), n)) return false;
  return true;
}

bool Collector::all_bye() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (procs_.empty()) return false;
  for (const auto& [token, p] : procs_)
    if (!p.info.bye) return false;
  return true;
}

MetricsSnapshot Collector::merged_metrics() const {
  struct Merged {
    MetricKind kind = MetricKind::kCounter;
    uint64_t count = 0;
    int64_t gauge = 0;
    uint64_t sum = 0;
    std::map<int, uint64_t> buckets;
  };
  std::map<std::tuple<std::string, int, int, int>, Merged> merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [token, p] : procs_)
      for (const auto& [key, m] : p.metrics) {
        Merged& g = merged[key];
        g.kind = m.kind;
        g.count += m.count;
        g.gauge += m.gauge;
        g.sum += m.sum;
        for (const auto& [idx, c] : m.buckets) g.buckets[idx] += c;
      }
  }
  MetricsSnapshot snap;
  for (const auto& [key, g] : merged) {
    MetricValue v;
    v.family = std::get<0>(key);
    v.labels = Labels{std::get<1>(key), std::get<2>(key)};
    v.kind = g.kind;
    v.count = g.count;
    v.gauge = g.gauge;
    v.sum = g.sum;
    if (g.kind == MetricKind::kHistogram) {
      v.p50 = bucket_percentile(g.buckets, g.count, 50);
      v.p95 = bucket_percentile(g.buckets, g.count, 95);
      v.p99 = bucket_percentile(g.buckets, g.count, 99);
      for (const auto& [idx, c] : g.buckets)
        v.buckets.emplace_back(Histogram::bucket_lower(idx), c);
    }
    snap.values.push_back(std::move(v));
  }
  std::sort(snap.values.begin(), snap.values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              if (a.family != b.family) return a.family < b.family;
              return a.labels < b.labels;
            });
  return snap;
}

uint64_t Collector::datagrams_received() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datagrams_;
}

uint64_t Collector::bytes_received() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t Collector::dropped_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_frames_;
}

uint64_t Collector::dropped_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_metrics_;
}

bool Collector::write_merged_trace(const std::string& path) const {
  using Ev = TraceJsonEvent;
  std::vector<Ev> evs;
  size_t processes = 0;
  uint64_t gaps = 0;
  int k = 0, tiles = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    k = k_;
    tiles = tiles_;
    processes = procs_.size();
    for (const auto& [token, p] : procs_) {
      gaps += p.info.seq_gaps;
      for (const SpanRecord& s : p.spans)
        evs.push_back({s.name, s.ph, s.pid, s.tid, s.ts_ns, s.dur_ns, s.pic});
    }
  }

  // Synthesize cross-process flows from the picture tags: for each picture,
  // root copy_pic -> every splitter split_pic, and each splitter split_pic
  // -> the decode_sp of the decoders it plausibly feeds (contiguous tile
  // ranges — the collector cannot recover exact SP routing from spans, and
  // the flow is a navigation aid, not accounting). Flow anchors sit at the
  // midpoint of their span so Perfetto binds them to the right slice.
  struct PicSpans {
    const Ev* copy = nullptr;
    std::map<int32_t, const Ev*> splits;   // pid -> split_pic
    std::map<int32_t, const Ev*> decodes;  // pid -> decode_sp
  };
  std::map<uint32_t, PicSpans> by_pic;
  for (const Ev& e : evs) {
    if (e.ph != 'X' || e.pic == 0xFFFFFFFFu) continue;
    PicSpans& ps = by_pic[e.pic];
    if (e.name == "copy_pic" && e.pid == 0)
      ps.copy = &e;
    else if (e.name == "split_pic")
      ps.splits[e.pid] = &e;
    else if (e.name == "decode_sp")
      ps.decodes[e.pid] = &e;
  }
  std::vector<Ev> flows;
  uint64_t next_flow = 1;
  auto link = [&](const Ev& src, const Ev& dst) {
    const uint64_t id = next_flow++;
    flows.push_back(Ev{"pic_flow", 's', src.pid, src.tid,
                       src.ts_ns + src.dur_ns / 2, 0, src.pic, id});
    flows.push_back(Ev{"pic_flow", 'f', dst.pid, dst.tid,
                       dst.ts_ns + dst.dur_ns / 2, 0, dst.pic, id});
  };
  for (const auto& [pic, ps] : by_pic) {
    for (const auto& [spid, split] : ps.splits)
      if (ps.copy) link(*ps.copy, *split);
    if (ps.splits.empty()) continue;
    std::vector<const Ev*> splits;
    for (const auto& [spid, split] : ps.splits) splits.push_back(split);
    size_t di = 0;
    const size_t per =
        (ps.decodes.size() + splits.size() - 1) / splits.size();
    for (const auto& [dpid, dec] : ps.decodes) {
      link(*splits[std::min(di / std::max<size_t>(per, 1),
                            splits.size() - 1)],
           *dec);
      ++di;
    }
  }
  for (Ev& e : flows) evs.push_back(std::move(e));

  std::stable_sort(evs.begin(), evs.end(),
                   [](const Ev& a, const Ev& b) { return a.ts_ns < b.ts_ns; });
  // Every process stamps the same host clock, so one trace-wide shift (the
  // earliest span; a flow anchor never precedes its span) starts the trace
  // at 0 and keeps every span's order and spacing exact.
  const uint64_t rebase = evs.empty() ? 0 : evs.front().ts_ns;
  for (Ev& e : evs) e.ts_ns -= rebase;

  // Process-name metadata: role from the announced wall shape.
  std::map<int, std::string> names;
  for (const Ev& e : evs) {
    if (names.count(e.pid)) continue;
    if (e.pid == 0)
      names[e.pid] = "root 0";
    else if (k > 0 && e.pid <= k)
      names[e.pid] = format("splitter %d", e.pid);
    else if (k > 0 && tiles > 0 && e.pid <= k + tiles)
      names[e.pid] = format("decoder %d (tile %d)", e.pid, e.pid - k - 1);
    else
      names[e.pid] = format("node %d", e.pid);
  }
  return write_trace_events(
      path, names, evs,
      format("\"processes\":%zu,\"sidebandSeqGaps\":%llu,"
             "\"rebaseNs\":%llu",
             processes, static_cast<unsigned long long>(gaps),
             static_cast<unsigned long long>(rebase)));
}

}  // namespace pdw::obs
