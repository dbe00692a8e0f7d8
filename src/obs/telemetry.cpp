#include "obs/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>

#include "common/bytes.h"

namespace pdw::obs {

namespace {

// Budget per exported frame: flush() packs metrics and spans into frames of
// at most 3/4 of this, well under the 64 KiB UDP datagram limit.
constexpr size_t kMaxDatagramBytes = 32 * 1024;

constexpr size_t kMaxSpansPerRecord = 2000;  // 31 B each, fits a u16 length

uint64_t steady_ticks() {
  return uint64_t(std::chrono::steady_clock::now().time_since_epoch().count());
}

// --- Field lists (common/bytes.h), in wire order ---------------------------

struct FrameHeader {
  uint64_t token = 0;
  uint32_t seq = 0;
  uint16_t records = 0;
};

template <class IO, Layout<FrameHeader> H>
void fields(IO& io, H& h) {
  uint32_t magic = kTelemetryMagic;
  uint16_t version = kTelemetryVersion, flags = 0;
  io.u32(magic);
  io.u16(version);
  io.u16(flags);
  io.check(magic == kTelemetryMagic && version == kTelemetryVersion);
  io.u64(h.token);
  io.u32(h.seq);
  io.u16(h.records);
}

template <class IO, Layout<HelloRecord> R>
void fields(IO& io, R& h) {
  io.u32(h.os_pid);
  io.u16(h.k);
  io.u16(h.tiles);
  io.u16(h.nodes);
  io.count16(h.hosted, 2);
  for (auto& n : h.hosted) io.u16(n);
}

// `family` is the string-table index of m.family.
template <class IO, Layout<MetricRecord> R>
void fields(IO& io, R& m, uint16_t& family) {
  io.u16(family);
  io.u8(m.kind);
  io.u16(m.node);
  io.u16(m.stream);
  switch (m.kind) {
    case MetricKind::kCounter:
      io.u64(m.count);
      break;
    case MetricKind::kGauge:
      io.u64(m.gauge);
      break;
    case MetricKind::kHistogram:
      io.u64(m.count);
      io.u64(m.sum);
      io.count8(m.buckets, 9);
      for (auto& [idx, cnt] : m.buckets) {
        io.u8(idx);
        io.check(idx < Histogram::kBuckets);
        io.u64(cnt);
      }
      break;
    default:
      io.check(false);
  }
}

// One span of a kSpans record; `name` is the string-table index of s.name.
template <class IO, Layout<SpanRecord> R>
void fields(IO& io, R& s, uint16_t& name) {
  io.u16(name);
  io.u8(s.ph);
  io.u32(s.pid);
  io.u32(s.tid);
  io.u64(s.ts_ns);
  io.u64(s.dur_ns);
  io.u32(s.pic);
}

// The string-table index of `s`; false (decode fails) when out of range.
bool lookup(const std::vector<std::string>& strings, uint16_t i,
            std::string* s) {
  if (i >= strings.size()) return false;
  *s = strings[i];
  return true;
}

}  // namespace

std::vector<uint8_t> encode_frame(const TelemetryFrame& f) {
  // Per-frame string table, first-use order.
  std::vector<std::string_view> strings;
  std::map<std::string_view, uint16_t> index;
  auto intern = [&](std::string_view s) {
    auto [it, fresh] = index.try_emplace(s, uint16_t(strings.size()));
    if (fresh) strings.push_back(s);
    return it->second;
  };
  for (const auto& m : f.metrics) intern(m.family);
  for (const auto& s : f.spans) intern(s.name);

  std::vector<uint8_t> body;
  ByteWriter w(&body);
  FrameHeader hdr{f.token, f.seq, 0};
  // One (type, length, payload) record; `list(io)` states the payload.
  const auto record = [&](TelemetryRecordType t, const auto& list) {
    ByteSizer len;
    list(len);
    w.u8(t);
    w.u16(len.size());
    list(w);
    ++hdr.records;
  };

  if (!strings.empty()) {
    record(TelemetryRecordType::kStrings, [&](auto& io) {
      io.u16(strings.size());
      for (std::string_view s : strings) {
        const size_t len = std::min<size_t>(s.size(), 255);
        io.u8(len);
        io.bytes({reinterpret_cast<const uint8_t*>(s.data()), len});
      }
    });
  }
  if (f.hello)
    record(TelemetryRecordType::kHello,
           [&](auto& io) { fields(io, *f.hello); });
  for (const auto& m : f.metrics) {
    uint16_t family = index.at(m.family);
    record(TelemetryRecordType::kMetric,
           [&](auto& io) { fields(io, m, family); });
  }
  for (size_t base = 0; base < f.spans.size(); base += kMaxSpansPerRecord) {
    const size_t count = std::min(kMaxSpansPerRecord, f.spans.size() - base);
    record(TelemetryRecordType::kSpans, [&](auto& io) {
      io.u16(count);
      for (size_t i = 0; i < count; ++i) {
        const SpanRecord& s = f.spans[base + i];
        uint16_t name = index.at(s.name);
        fields(io, s, name);
      }
    });
  }
  if (f.bye) record(TelemetryRecordType::kBye, [](auto&) {});

  std::vector<uint8_t> out;
  ByteWriter o(&out);
  fields(o, hdr);
  o.bytes(body);
  return out;
}

bool decode_frame(const uint8_t* data, size_t len, TelemetryFrame* out) {
  *out = TelemetryFrame{};
  ByteReader r({data, len});
  FrameHeader hdr;
  fields(r, hdr);
  out->token = hdr.token;
  out->seq = hdr.seq;

  std::vector<std::string> strings;
  for (uint16_t rec = 0; rec < hdr.records && r.ok(); ++rec) {
    uint8_t type = 0;
    uint16_t rlen = 0;
    r.u8(type);
    r.u16(rlen);
    ByteReader pr(r.bytes(rlen));
    if (!r.ok()) return false;
    switch (TelemetryRecordType(type)) {
      case TelemetryRecordType::kStrings: {
        uint16_t count = 0;
        pr.u16(count);
        for (uint16_t i = 0; i < count && pr.ok(); ++i) {
          uint8_t slen = 0;
          pr.u8(slen);
          const std::span<const uint8_t> s = pr.bytes(slen);
          strings.emplace_back(reinterpret_cast<const char*>(s.data()),
                               s.size());
        }
        break;
      }
      case TelemetryRecordType::kHello:
        fields(pr, out->hello.emplace());
        break;
      case TelemetryRecordType::kMetric: {
        MetricRecord& m = out->metrics.emplace_back();
        uint16_t family = 0;
        fields(pr, m, family);
        if (!lookup(strings, family, &m.family)) return false;
        break;
      }
      case TelemetryRecordType::kSpans: {
        uint16_t count = 0;
        pr.u16(count);
        for (uint16_t i = 0; i < count && pr.ok(); ++i) {
          SpanRecord& s = out->spans.emplace_back();
          uint16_t name = 0;
          fields(pr, s, name);
          if (!lookup(strings, name, &s.name)) return false;
        }
        break;
      }
      case TelemetryRecordType::kBye:
        out->bye = true;
        break;
      default:
        break;  // unknown record type: skip (forward compatibility)
    }
    if (!pr.ok()) return false;
  }
  return r.ok();
}

// ---------------------------------------------------------------------------
// TelemetryExporter
// ---------------------------------------------------------------------------

TelemetryExporter::TelemetryExporter(TelemetryExporterConfig cfg)
    : cfg_(std::move(cfg)) {
  token_ = (uint64_t(::getpid()) << 40) ^ steady_ticks() ^
           (uint64_t(reinterpret_cast<uintptr_t>(this)) << 17);
  if (token_ == 0) token_ = 1;
}

TelemetryExporter::~TelemetryExporter() { stop(); }

Tracer& TelemetryExporter::tracer() const {
  return cfg_.tracer ? *cfg_.tracer : Tracer::global();
}

void TelemetryExporter::start() {
  if (started_ || !sock_.ok()) return;
  started_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void TelemetryExporter::run_loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    lock.unlock();
    flush();
    lock.lock();
    stop_cv_.wait_for(
        lock, std::chrono::duration<double>(std::max(cfg_.interval_s, 0.01)),
        [this] { return stop_; });
  }
}

void TelemetryExporter::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (started_) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    thread_.join();
  }
  if (!sock_.ok()) return;
  flush();
  TelemetryFrame bye;
  bye.bye = true;
  identify(&bye);
  send_frame(&bye);
}

void TelemetryExporter::identify(TelemetryFrame* frame) const {
  frame->hello = HelloRecord{uint32_t(::getpid()), cfg_.k, cfg_.tiles,
                             cfg_.nodes, cfg_.hosted};
}

void TelemetryExporter::send_frame(TelemetryFrame* frame) {
  if (!sock_.ok()) return;
  frame->token = token_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    frame->seq = next_frame_seq_++;
  }
  sock_.send(cfg_.collector, encode_frame(*frame));  // a failure is counted
}

void TelemetryExporter::flush() {
  if (!sock_.ok()) return;

  // --- gather export payload ---
  std::vector<MetricRecord> metrics;
  const MetricsSnapshot snap = registry_or_global(cfg_.metrics).snapshot();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricValue& v : snap.values) {
      const auto key = std::make_tuple(v.family, v.labels.node,
                                       v.labels.stream, int(v.kind));
      const auto cur = std::make_tuple(v.count, v.sum, v.gauge);
      auto it = last_sent_.find(key);
      if (it != last_sent_.end() && it->second == cur) continue;
      last_sent_[key] = cur;
      MetricRecord m;
      m.family = v.family;
      m.node = int16_t(v.labels.node);
      m.stream = int16_t(v.labels.stream);
      m.kind = v.kind;
      m.count = v.count;
      m.gauge = v.gauge;
      m.sum = v.sum;
      for (const auto& [lower, cnt] : v.buckets)
        m.buckets.emplace_back(
            uint8_t(Histogram::bucket_index(lower)), cnt);
      metrics.push_back(std::move(m));
    }
  }

  std::vector<TraceEvent> fresh;
  uint64_t epoch_ns = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tracer().drain_new(&trace_cursors_, &fresh);
    epoch_ns = tracer().epoch_ns();
  }

  // --- pack into frames under the datagram budget ---
  TelemetryFrame frame;
  identify(&frame);
  size_t est = 128;
  auto maybe_ship = [&](size_t add) {
    if (est + add <= kMaxDatagramBytes * 3 / 4) {
      est += add;
      return;
    }
    send_frame(&frame);
    frame = TelemetryFrame{};
    est = 128 + add;
  };
  for (auto& m : metrics) {
    maybe_ship(32 + m.family.size() + m.buckets.size() * 9);
    frame.metrics.push_back(std::move(m));
  }
  for (const TraceEvent& e : fresh) {
    if (!e.name) continue;
    maybe_ship(48);
    SpanRecord s;
    s.name = e.name;
    s.ph = e.ph;
    s.pid = e.pid;
    s.tid = e.tid;
    s.ts_ns = epoch_ns + e.ts_ns;
    s.dur_ns = e.dur_ns;
    s.pic = e.arg_pic;
    frame.spans.push_back(std::move(s));
  }
  send_frame(&frame);
}

}  // namespace pdw::obs
