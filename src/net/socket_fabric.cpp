#include "net/socket_fabric.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <linux/errqueue.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace pdw::net {

namespace {

// Datagram layout (little-endian): the full Message header plus
// fragmentation fields, integrity-checked by a trailing header CRC so a
// corrupt header can never misroute bytes into the wrong reassembly slot
// (payload integrity stays end-to-end in ReliableEndpoint's envelope).
//
//   off  field
//    0   magic          u32  'PDWF'
//    4   src            i32
//    8   type           i32
//   12   seq            u32
//   16   aux            u16
//   18   stream         u8
//   19   bulk           u8
//   20   tseq           u32
//   24   crc            u32  (payload CRC-32, stamped by ReliableEndpoint)
//   28   msg_id         u32  (per-sender reassembly key)
//   32   frag_index     u16
//   34   frag_count     u16
//   36   payload_total  u32
//   40   frag_off       u32
//   44   header_crc     u32  (CRC-32 of bytes [0, 44))
//   48   payload fragment...
constexpr uint32_t kMagic = 0x50445746u;  // 'PDWF'
constexpr size_t kDgramHeaderBytes = 48;
// Largest fragment payload per datagram (= kMaxFragmentBytes): comfortably
// under the 64 KiB UDP limit. Receive buffers are sized for this maximum
// whatever this node's configured send-side fragment size is.
constexpr size_t kFragBytes = size_t(kMaxFragmentBytes);
// The largest message must fit the u16 fragment count at the smallest
// fragment size.
static_assert(kMaxMessageBytes / kMinFragmentBytes < 65536);

void put_u32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void put_u16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, 2); }
uint32_t get_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint16_t get_u16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

uint64_t partial_key(int src, uint32_t msg_id) {
  return (uint64_t(uint32_t(src)) << 32) | msg_id;
}

}  // namespace

SocketFabric::SocketFabric(int self, int nodes, SocketFabricConfig cfg)
    : self_(self),
      nodes_(nodes),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      fenced_(size_t(nodes)),
      traffic_(nodes),
      counters_(size_t(nodes)) {
  PDW_CHECK_GE(self, 0);
  PDW_CHECK_LT(self, nodes);
  frag_bytes_ = size_t(
      std::clamp(cfg_.fragment_bytes, kMinFragmentBytes, kMaxFragmentBytes));
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  PDW_CHECK_GE(fd_, 0);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_IP, IP_RECVERR, &one, sizeof(one));
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &cfg_.socket_buffer_bytes,
               sizeof(cfg_.socket_buffer_bytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &cfg_.socket_buffer_bytes,
               sizeof(cfg_.socket_buffer_bytes));
  sockaddr_in sa = to_sockaddr(Endpoint{kLoopbackIp, 0});
  PDW_CHECK_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t len = sizeof(sa);
  PDW_CHECK_EQ(
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  local_ = Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};

  obs::MetricsRegistry& reg = obs::registry_or_global(cfg_.metrics);
  const obs::Labels l{self_, -1};
  m_dgram_tx_ = &reg.counter(obs::family::kSocketDatagramsTx, l);
  m_send_failures_ = &reg.counter(obs::family::kSocketSendFailures, l);
  m_dgram_rx_ = &reg.counter(obs::family::kSocketDatagramsRx, l);
  m_rx_drops_ = &reg.counter(obs::family::kSocketRxDrops, l);
  m_peer_unreachable_ = &reg.counter(obs::family::kSocketPeerUnreachable, l);
}

SocketFabric::~SocketFabric() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketFabric::set_peers(std::vector<Endpoint> peers) {
  PDW_CHECK_EQ(int(peers.size()), nodes_);
  peers_ = std::move(peers);
}

double SocketFabric::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
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
  const uint32_t msg_id = next_msg_id_++;
  const size_t total = msg.payload.size();
  PDW_CHECK_LE(total, kMaxMessageBytes);
  const uint16_t frag_count =
      uint16_t(total == 0 ? 1 : (total + frag_bytes_ - 1) / frag_bytes_);
  sockaddr_in sa = to_sockaddr(peers_[size_t(dst)]);

  uint8_t dgram[kDgramHeaderBytes + kFragBytes];
  put_u32(dgram + 0, kMagic);
  put_u32(dgram + 4, uint32_t(msg.src));
  put_u32(dgram + 8, uint32_t(msg.type));
  put_u32(dgram + 12, msg.seq);
  put_u16(dgram + 16, msg.aux);
  dgram[18] = msg.stream;
  dgram[19] = msg.bulk ? 1 : 0;
  put_u32(dgram + 20, msg.tseq);
  put_u32(dgram + 24, msg.crc);
  put_u32(dgram + 28, msg_id);
  put_u16(dgram + 34, frag_count);
  put_u32(dgram + 36, uint32_t(total));

  for (uint16_t i = 0; i < frag_count; ++i) {
    const size_t off = size_t(i) * frag_bytes_;
    const size_t n = std::min(frag_bytes_, total - off);
    put_u16(dgram + 32, i);
    put_u32(dgram + 40, uint32_t(off));
    put_u32(dgram + 44,
            crc32(std::span<const uint8_t>(dgram, kDgramHeaderBytes - 4)));
    if (n > 0) std::memcpy(dgram + kDgramHeaderBytes, msg.payload.data() + off, n);
    // A failed send (full buffer, unroutable peer) is ordinary loss to the
    // transport, recovered by retransmission; it is counted, not reported.
    if (::sendto(fd_, dgram, kDgramHeaderBytes + n, 0,
                 reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0)
      m_send_failures_->add();
    else
      m_dgram_tx_->add();
  }

  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(self_, dst, msg.wire_bytes());
    counters_[size_t(self_)].sent_bytes += msg.wire_bytes();
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
  if (len < kDgramHeaderBytes || get_u32(data + 0) != kMagic ||
      get_u32(data + 44) !=
          crc32(std::span<const uint8_t>(data, kDgramHeaderBytes - 4))) {
    m_rx_drops_->add();
    return;
  }
  Fragment f;
  Message& h = f.header;
  h.src = int(get_u32(data + 4));
  h.type = int(get_u32(data + 8));
  h.seq = get_u32(data + 12);
  h.aux = get_u16(data + 16);
  h.stream = data[18];
  h.bulk = data[19] != 0;
  h.tseq = get_u32(data + 20);
  h.crc = get_u32(data + 24);
  f.msg_id = get_u32(data + 28);
  f.index = get_u16(data + 32);
  f.count = get_u16(data + 34);
  f.total = get_u32(data + 36);
  f.off = get_u32(data + 40);
  uint8_t* bytes = data + kDgramHeaderBytes;
  const size_t n = len - kDgramHeaderBytes;
  if (h.src < 0 || h.src >= nodes_ || f.count == 0 || f.index >= f.count ||
      f.total > kMaxMessageBytes || f.off + n > f.total ||
      (f.count == 1 && n != f.total)) {
    m_rx_drops_->add();
    return;
  }

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

void SocketFabric::reassemble(const Fragment& f, const uint8_t* bytes,
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
  uint8_t buf[kDgramHeaderBytes + kFragBytes];
  while (true) {
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    m_dgram_rx_->add();
    ingest(buf, size_t(n));
  }
  drain_errqueue();
}

void SocketFabric::drain_errqueue() {
  while (true) {
    uint8_t dummy[1];
    sockaddr_in sa{};
    uint8_t control[256];
    iovec iov{dummy, sizeof(dummy)};
    msghdr mh{};
    mh.msg_name = &sa;
    mh.msg_namelen = sizeof(sa);
    mh.msg_iov = &iov;
    mh.msg_iovlen = 1;
    mh.msg_control = control;
    mh.msg_controllen = sizeof(control);
    if (::recvmsg(fd_, &mh, MSG_ERRQUEUE) < 0) break;
    for (cmsghdr* c = CMSG_FIRSTHDR(&mh); c; c = CMSG_NXTHDR(&mh, c)) {
      if (c->cmsg_level != IPPROTO_IP || c->cmsg_type != IP_RECVERR) continue;
      sock_extended_err ee;
      std::memcpy(&ee, CMSG_DATA(c), sizeof(ee));
      if (ee.ee_errno == ECONNREFUSED || ee.ee_errno == EHOSTUNREACH ||
          ee.ee_errno == ENETUNREACH) {
        // msg_name carries the original destination of the failed send.
        note_peer_error(ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port));
      }
    }
  }
}

void SocketFabric::note_peer_error(uint32_t ip, uint16_t port) {
  for (int n = 0; n < int(peers_.size()); ++n) {
    if (peers_[size_t(n)].ip != ip || peers_[size_t(n)].port != port) continue;
    m_peer_unreachable_->add();
    std::lock_guard<std::mutex> lock(peer_err_mu_);
    if (std::find(peer_errors_.begin(), peer_errors_.end(), n) ==
        peer_errors_.end())
      peer_errors_.push_back(n);
    return;
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
  const double deadline = now() + timeout_s;
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
    const double remaining = deadline - now();
    if (remaining <= 0) return RecvStatus::kTimeout;
    // Short poll slices so a cross-thread kill()/shutdown() is observed
    // promptly even with nothing on the wire.
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, int(std::min(remaining, 0.02) * 1000) + 1);
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
