#include "net/socket_fabric.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/timing.h"

namespace pdw::net {

namespace {

constexpr uint32_t kMagic = 0x50445746u;  // 'PDWF'
constexpr size_t kFragBytes = size_t(kMaxFragmentBytes);
// Kernel socket buffer depth. Loopback bursts (a whole picture fans out as
// dozens of 56 KiB fragments) overflow the kernel default and look like
// network loss; 4 MiB absorbs them.
constexpr int kSocketBufferBytes = 4 << 20;
// The largest message must fit the u16 fragment count.
static_assert(kMaxMessageBytes / kFragBytes < 65536);

uint64_t partial_key(int src, uint32_t msg_id) {
  return (uint64_t(uint32_t(src)) << 32) | msg_id;
}

// The datagram header's fields (common/bytes.h), in wire order; the header
// CRC over them follows.
template <class IO, Layout<DatagramHeader> H>
void fields(IO& io, H& h) {
  uint32_t magic = kMagic;
  io.u32(magic);
  io.check(magic == kMagic);
  io.i32(h.header.src);
  io.i32(h.header.type);
  io.u32(h.header.seq);
  io.u16(h.header.aux);
  io.u8(h.header.stream);
  io.u8(h.header.bulk);
  io.u32(h.header.tseq);
  io.u32(h.header.crc);
  io.u32(h.msg_id);
  io.u16(h.index);
  io.u16(h.count);
  io.u32(h.total);
  io.u32(h.off);
}

constexpr size_t kCrcOffset = kDatagramHeaderBytes - 4;

}  // namespace

void encode_datagram_header(const DatagramHeader& h,
                            std::span<uint8_t, kDatagramHeaderBytes> out) {
  ByteWriter w(out.data(), out.size());
  fields(w, h);
  w.u32(crc32(out.first(kCrcOffset)));
  PDW_CHECK_EQ(w.size(), kDatagramHeaderBytes);
}

std::optional<DatagramHeader> parse_datagram_header(
    std::span<const uint8_t> dgram, int nodes) {
  ByteReader r(dgram);
  DatagramHeader h;
  fields(r, h);
  uint32_t crc = 0;
  r.u32(crc);
  if (!r.ok() || crc != crc32(dgram.first(kCrcOffset))) return std::nullopt;
  const size_t n = r.remaining();  // this fragment's bytes
  if (h.header.src < 0 || h.header.src >= nodes || h.count == 0 ||
      h.index >= h.count || h.total > kMaxMessageBytes ||
      h.off + n > h.total || (h.count == 1 && n != h.total))
    return std::nullopt;
  return h;
}

SocketFabric::SocketFabric(int self, int nodes, SocketFabricConfig cfg)
    : self_(self),
      nodes_(nodes),
      cfg_(cfg),
      fenced_(size_t(nodes)),
      traffic_(nodes),
      counters_(size_t(nodes)) {
  PDW_CHECK_GE(self, 0);
  PDW_CHECK_LT(self, nodes);
  PDW_CHECK(sock_.ok()) << std::strerror(sock_.error());
  sock_.enable_send_errors();
  sock_.set_buffer_bytes(kSocketBufferBytes);

  obs::MetricsRegistry& reg = obs::registry_or_global(cfg_.metrics);
  const obs::Labels l{self_, -1};
  m_dgram_tx_ = &reg.counter(obs::family::kSocketDatagramsTx, l);
  m_send_failures_ = &reg.counter(obs::family::kSocketSendFailures, l);
  m_dgram_rx_ = &reg.counter(obs::family::kSocketDatagramsRx, l);
  m_rx_drops_ = &reg.counter(obs::family::kSocketRxDrops, l);
  m_peer_unreachable_ = &reg.counter(obs::family::kSocketPeerUnreachable, l);
}

void SocketFabric::set_peers(std::vector<Endpoint> peers) {
  PDW_CHECK_EQ(int(peers.size()), nodes_);
  peers_ = std::move(peers);
}

void SocketFabric::post_receive(int node) {
  PDW_CHECK_EQ(node, self_);
  ++credits_;
}

SendStatus SocketFabric::send(int src, int dst, Message msg) {
  PDW_CHECK_EQ(src, self_);
  PDW_CHECK_GE(dst, 0);
  PDW_CHECK_LT(dst, nodes_);
  PDW_CHECK(!peers_.empty());
  if (fenced_[size_t(self_)].load(std::memory_order_relaxed))
    return SendStatus::kSrcDead;
  // Sends to a locally fenced peer vanish silently, same as the in-process
  // fabric's sends to a killed node.
  if (fenced_[size_t(dst)].load(std::memory_order_relaxed))
    return SendStatus::kOk;

  msg.src = src;  // stamped by the fabric, exactly as the in-process one does
  const size_t wire_bytes = msg.wire_bytes();
  const mem::Bytes payload = std::move(msg.payload);
  const size_t total = payload.size();
  PDW_CHECK_LE(total, kMaxMessageBytes);
  DatagramHeader h{std::move(msg), next_msg_id_++, 0,
                   uint16_t(total == 0 ? 1 : (total + kFragBytes - 1) /
                                                 kFragBytes),
                   uint32_t(total), 0};
  const Endpoint to = peers_[size_t(dst)];
  for (; h.index < h.count; ++h.index) {
    h.off = uint32_t(size_t(h.index) * kFragBytes);
    const size_t n = std::min(kFragBytes, total - h.off);
    uint8_t hdr[kDatagramHeaderBytes];
    encode_datagram_header(h, hdr);
    // The fragment goes out straight from the payload, behind the header.
    // A failed send (full buffer, unroutable peer) is ordinary loss to the
    // transport, recovered by retransmission; it is counted, not reported.
    if (sock_.send(to, hdr, payload.span().subspan(h.off, n)))
      m_dgram_tx_->add();
    else
      m_send_failures_->add();
  }

  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(self_, dst, wire_bytes);
    counters_[size_t(self_)].sent_bytes += wire_bytes;
    ++counters_[size_t(self_)].sent_messages;
  }
  return SendStatus::kOk;
}

void SocketFabric::finish_message(Message msg) {
  if (msg.src >= 0 && msg.src < nodes_ &&
      fenced_[size_t(msg.src)].load(std::memory_order_relaxed))
    return;
  if (msg.bulk) {
    if (credits_ == 0) {
      // Flow-control overrun. The in-process backend reports kNoCredit to
      // the sender; a socket sender cannot see our buffer state, so the
      // overrun becomes an unacked receiver-side drop that retransmission
      // recovers once a buffer is posted.
      credit_drops_.fetch_add(1, std::memory_order_relaxed);
      m_rx_drops_->add();
      return;
    }
    --credits_;
  }
  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(msg.src, self_, msg.wire_bytes());
    counters_[size_t(self_)].recv_bytes += msg.wire_bytes();
    ++counters_[size_t(self_)].recv_messages;
  }
  ready_.push_back(std::move(msg));
  queued_.fetch_add(1, std::memory_order_relaxed);
}

void SocketFabric::ingest(uint8_t* data, size_t len) {
  const std::optional<DatagramHeader> parsed =
      parse_datagram_header({data, len}, nodes_);
  if (!parsed) {
    m_rx_drops_->add();
    return;
  }
  const DatagramHeader& f = *parsed;
  const Message& h = f.header;
  uint8_t* bytes = data + kDatagramHeaderBytes;
  const size_t n = len - kDatagramHeaderBytes;

  // Faults, handled the way Fabric::send handles a message's fate.
  const FaultInjector* inj = cfg_.injector;
  if (inj) {
    const uint64_t ordinal =
        fault_ordinal_[(uint32_t(h.src) << 8) | h.stream]++;
    const FaultDecision fate =
        inj->decide(h.src, self_, ordinal, deliveries_, n, h.stream);
    if (fate.crash_dst) {
      kill(self_);
      return;
    }
    if (fate.drop) {
      std::lock_guard<std::mutex> lock(traffic_mu_);
      ++counters_[size_t(self_)].dropped_messages;
      return;
    }
    // Only the fragment bytes: the header stays routable, and
    // ReliableEndpoint's payload CRC catches the damage end to end.
    if (fate.corrupt)
      inj->corrupt_payload(h.src, self_, ordinal, {bytes, n}, h.stream);
    if (fate.dup) reassemble(f, bytes, n);
    if (fate.delay_hold > 0) {
      parked_.push_back(
          Parked{f, std::vector<uint8_t>(bytes, bytes + n), fate.delay_hold});
      parked_count_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  reassemble(f, bytes, n);
  if (inj) release_parked(/*force=*/false);
}

void SocketFabric::reassemble(const DatagramHeader& f, const uint8_t* bytes,
                              size_t n) {
  ++deliveries_;
  if (f.count == 1) {
    Message msg = f.header;
    msg.payload = mem::Bytes::copy_of({bytes, n});
    finish_message(std::move(msg));
    return;
  }

  const uint64_t key = partial_key(f.header.src, f.msg_id);
  auto it = partial_.find(key);
  if (it == partial_.end()) {
    // Evict the oldest reassembly to admit this one, so the map stays
    // bounded whatever arrives. Under loss the oldest is one whose missing
    // fragments never came (the sender retransmits under a fresh msg_id).
    if (partial_.size() >= kMaxPartials) {
      partial_.erase(std::min_element(
          partial_.begin(), partial_.end(), [](const auto& a, const auto& b) {
            return a.second.admitted < b.second.admitted;
          }));
      partial_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    Reassembly r;
    r.body = mem::Bytes::alloc(f.total);
    r.have.assign(f.count, false);
    r.missing = f.count;
    r.header = f.header;
    r.admitted = admitted_++;
    it = partial_.emplace(key, std::move(r)).first;
    partial_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Reassembly& r = it->second;
  if (r.body.size() != f.total || r.have.size() != f.count) {
    // A msg_id collision with inconsistent framing: distrust both.
    partial_.erase(it);
    partial_count_.fetch_sub(1, std::memory_order_relaxed);
    m_rx_drops_->add();
    return;
  }
  if (r.have[f.index]) return;  // duplicated fragment
  std::memcpy(r.body.mutable_data() + f.off, bytes, n);
  r.have[f.index] = true;
  if (--r.missing == 0) {
    Message out = r.header;
    out.payload = std::move(r.body);
    partial_.erase(it);
    partial_count_.fetch_sub(1, std::memory_order_relaxed);
    finish_message(std::move(out));
  }
}

void SocketFabric::release_parked(bool force) {
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (!force && --it->hold > 0) {
      ++it;
      continue;
    }
    reassemble(it->frag, it->bytes.data(), it->bytes.size());
    it = parked_.erase(it);
    parked_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void SocketFabric::drain_socket() {
  uint8_t buf[kDatagramHeaderBytes + kFragBytes];
  while (const std::optional<size_t> n = sock_.recv(buf)) {
    m_dgram_rx_->add();
    ingest(buf, *n);
  }
  drain_errqueue();
}

void SocketFabric::drain_errqueue() {
  int err = 0;
  Endpoint dst;
  while (sock_.take_error(&err, &dst)) {
    const auto peer = std::find(peers_.begin(), peers_.end(), dst);
    if (peer == peers_.end() || (err != ECONNREFUSED && err != EHOSTUNREACH &&
                                 err != ENETUNREACH))
      continue;
    const int n = int(peer - peers_.begin());
    m_peer_unreachable_->add();
    std::lock_guard<std::mutex> lock(peer_err_mu_);
    if (std::find(peer_errors_.begin(), peer_errors_.end(), n) ==
        peer_errors_.end())
      peer_errors_.push_back(n);
  }
}

std::vector<int> SocketFabric::take_peer_errors() {
  drain_errqueue();
  std::lock_guard<std::mutex> lock(peer_err_mu_);
  std::vector<int> out;
  out.swap(peer_errors_);
  return out;
}

RecvStatus SocketFabric::receive_for(int node, double timeout_s,
                                     Message* out) {
  PDW_CHECK_EQ(node, self_);
  const WallTimer timer;
  while (true) {
    if (fenced_[size_t(self_)].load(std::memory_order_relaxed))
      return RecvStatus::kDead;
    drain_socket();
    if (!ready_.empty()) {
      *out = std::move(ready_.front());
      ready_.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return RecvStatus::kOk;
    }
    if (shutdown_.load(std::memory_order_acquire)) return RecvStatus::kShutdown;
    // Nothing ready: fault-delayed datagrams arrive now, late, rather than
    // leave the receiver waiting on them.
    if (!parked_.empty()) {
      release_parked(/*force=*/true);
      if (!ready_.empty()) continue;
    }
    const double remaining = timeout_s - timer.seconds();
    if (remaining <= 0) return RecvStatus::kTimeout;
    // Short wait slices so a cross-thread kill()/shutdown() is observed
    // promptly even with nothing on the wire.
    sock_.wait(std::min(remaining, 0.02));
  }
}

void SocketFabric::kill(int node) {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  fenced_[size_t(node)].store(true, std::memory_order_relaxed);
}

bool SocketFabric::is_dead(int node) const {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  return fenced_[size_t(node)].load(std::memory_order_relaxed);
}

NodeCounters SocketFabric::counters(int node) const {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  std::lock_guard<std::mutex> lock(traffic_mu_);
  return counters_[size_t(node)];
}

TrafficMatrix SocketFabric::traffic_matrix() const {
  std::lock_guard<std::mutex> lock(traffic_mu_);
  return traffic_;
}

bool SocketFabric::quiescent() const {
  return queued_.load(std::memory_order_relaxed) == 0 &&
         partial_count_.load(std::memory_order_relaxed) == 0 &&
         parked_count_.load(std::memory_order_relaxed) == 0;
}

void SocketFabric::shutdown() { shutdown_.store(true, std::memory_order_release); }

}  // namespace pdw::net
