#include "net/reliable.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.h"

namespace pdw::net {

namespace {
uint64_t pending_key(int dst, uint32_t tseq) {
  return (uint64_t(uint32_t(dst)) << 32) | tseq;
}
}  // namespace

double derive_hole_timeout(const ReliableConfig& cfg) {
  // Sender's worst-case retransmission span: only after that long can a
  // missing tseq be presumed abandoned rather than still in flight. The
  // first transmission timeout can already sit at the clamp
  // (srtt + 4 * rttvar <= rto_max_s), and backoff stays there.
  const double span = (cfg.max_retries + 1) * cfg.rto_max_s;
  return 4 * span + 0.1;
}

ReliableEndpoint::ReliableEndpoint(FabricBackend* fabric, int self,
                                   ReliableConfig cfg)
    : fabric_(fabric),
      self_(self),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      next_tx_(size_t(fabric->nodes()), 0),
      rx_(size_t(fabric->nodes())),
      tx_peer_(size_t(fabric->nodes())) {
  if (cfg_.hole_timeout_s <= 0) cfg_.hole_timeout_s = derive_hole_timeout(cfg_);
  obs::MetricsRegistry& reg = obs::registry_or_global(cfg_.metrics);
  const obs::Labels l{self_, -1};
  m_retransmits_ = &reg.counter(obs::family::kRetransmits, l);
  m_abandoned_ = &reg.counter(obs::family::kAbandonedSends, l);
  m_crc_drops_ = &reg.counter(obs::family::kCrcDrops, l);
  m_rtt_ns_ = &reg.histogram(obs::family::kRttNs, l);
  m_rtt_jitter_ns_ = &reg.histogram(obs::family::kRttJitterNs, l);
}

double ReliableEndpoint::srtt_s(int dst) const {
  const TxPeer& tp = tx_peer_[size_t(dst)];
  return tp.srtt < 0 ? 0 : tp.srtt;
}

double ReliableEndpoint::rto_s(int dst) const {
  const TxPeer& tp = tx_peer_[size_t(dst)];
  return tp.rto > 0 ? tp.rto : cfg_.rto_initial_s;
}

void ReliableEndpoint::on_ack(int src, uint32_t tseq) {
  auto it = pending_.find(pending_key(src, tseq));
  if (it == pending_.end()) return;
  const Pending& p = it->second;
  // Karn's rule: an acked message that was ever retransmitted is ambiguous
  // (which copy does the ack answer?) and contributes no RTT sample.
  if (!p.retransmitted && p.first_tx >= 0) {
    const double rtt = now() - p.first_tx;
    TxPeer& tp = tx_peer_[size_t(src)];
    if (tp.srtt < 0) {
      tp.srtt = rtt;
      tp.rttvar = rtt / 2;
    } else {
      // Jacobson/Karels: alpha = 1/8, beta = 1/4.
      const double err = rtt - tp.srtt;
      m_rtt_jitter_ns_->observe(uint64_t(std::abs(err) * 1e9));
      tp.rttvar += 0.25 * (std::abs(err) - tp.rttvar);
      tp.srtt += 0.125 * err;
    }
    tp.rto = std::clamp(tp.srtt + 4 * tp.rttvar, cfg_.rto_initial_s,
                        cfg_.rto_max_s);
    m_rtt_ns_->observe(uint64_t(rtt * 1e9));
    ++stats_.rtt_samples;
  }
  pending_.erase(it);
}

double ReliableEndpoint::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void ReliableEndpoint::transmit(Pending& p) {
  const SendStatus st = fabric_->send(self_, p.dst, p.msg);
  if (st == SendStatus::kNoCredit) {
    // Receiver has not recycled a buffer yet; retry soon. Flow control is
    // not packet loss — on a busy host a receiver can legitimately sit
    // creditless for hundreds of milliseconds — so this burns retry budget
    // 64x slower. Still bounded: a receiver that never recycles cannot
    // wedge the sender forever, but a merely slow one is never falsely
    // declared suspect.
    ++stats_.no_credit;
    if (++p.nc_tries % 64 == 0) ++p.tries;
    p.deadline = now() + cfg_.rto_initial_s;
    return;
  }
  const double t = now();
  // The RTT runs from the first transmission that left, not from send():
  // a credit wait is flow control, not link delay.
  if (p.first_tx < 0) p.first_tx = t;
  ++p.tries;
  p.deadline = t + p.rto;
  p.rto = std::min(p.rto * 2, cfg_.rto_max_s);
}

void ReliableEndpoint::send(int dst, Message msg) {
  msg.tseq = next_tx_[size_t(dst)]++;
  msg.crc = crc32(msg.payload);
  Pending p;
  p.dst = dst;
  p.rto = rto_s(dst);
  p.msg = std::move(msg);
  ++stats_.sent;
  transmit(p);
  pending_.emplace(pending_key(dst, p.msg.tseq), std::move(p));
}

void ReliableEndpoint::send_unreliable(int dst, Message msg) {
  msg.tseq = kUnreliableSeq;
  msg.crc = crc32(msg.payload);
  fabric_->send(self_, dst, std::move(msg));
}

double ReliableEndpoint::service_deadlines() {
  const double t = now();
  double next = std::numeric_limits<double>::infinity();
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (p.deadline > t) {
      next = std::min(next, p.deadline);
      ++it;
      continue;
    }
    if (p.tries > cfg_.max_retries) {
      ++stats_.abandoned;
      m_abandoned_->add();
      PDW_TRACE_INSTANT(obs::span::kAbandon, self_, p.msg.seq);
      abandoned_.push_back(
          AbandonedSend{p.dst, p.msg.type, p.msg.seq, p.msg.aux});
      it = pending_.erase(it);
      continue;
    }
    if (p.tries > 0) {
      ++stats_.retransmits;
      m_retransmits_->add();
      p.retransmitted = true;
      PDW_TRACE_INSTANT(obs::span::kRetransmit, self_, p.msg.seq);
    }
    transmit(p);
    next = std::min(next, p.deadline);
    ++it;
  }
  return next;
}

bool ReliableEndpoint::handle(Message msg) {
  if (msg.type == kTransportAck) {
    on_ack(msg.src, msg.seq);
    return false;
  }
  if (msg.tseq == kUnreliableSeq) {
    // Fire-and-forget: CRC-screen and deliver out of band.
    if (crc32(msg.payload) != msg.crc) {
      ++stats_.crc_drops;
      m_crc_drops_->add();
      return false;
    }
    ready_.push_back(std::move(msg));
    return true;
  }

  // Reliable path. Corrupt payloads are dropped without an ack — the sender
  // will retransmit an intact copy.
  if (crc32(msg.payload) != msg.crc) {
    ++stats_.crc_drops;
    m_crc_drops_->add();
    if (msg.bulk) fabric_->post_receive(self_);  // return the consumed buffer
    return false;
  }

  PeerRx& rx = rx_[size_t(msg.src)];
  if (msg.tseq >= rx.next_expected &&
      msg.tseq - rx.next_expected >= kReorderWindow) {
    if (msg.bulk) fabric_->post_receive(self_);
    return false;  // past the reorder window: unacked, so resent later
  }

  // Ack receipt (even for duplicates, so a lost ack does not retransmit
  // forever).
  Message ack;
  ack.type = kTransportAck;
  ack.seq = msg.tseq;
  ack.tseq = kUnreliableSeq;
  fabric_->send(self_, msg.src, std::move(ack));

  if (msg.tseq < rx.next_expected || rx.reorder.count(msg.tseq)) {
    ++stats_.dup_drops;
    if (msg.bulk) fabric_->post_receive(self_);
    return false;
  }
  if (msg.tseq != rx.next_expected) ++stats_.reordered;
  rx.reorder.emplace(msg.tseq, std::move(msg));

  bool delivered = false;
  while (!rx.reorder.empty() &&
         rx.reorder.begin()->first == rx.next_expected) {
    ready_.push_back(std::move(rx.reorder.begin()->second));
    rx.reorder.erase(rx.reorder.begin());
    ++rx.next_expected;
    delivered = true;
  }
  // Arm the hole timer whenever the buffer head is stuck waiting for a
  // tseq that may never arrive; a further out-of-order arrival must not
  // reset a timer that is already running.
  if (rx.reorder.empty())
    rx.blocked_since = -1;
  else if (delivered || rx.blocked_since < 0)
    rx.blocked_since = now();
  return delivered;
}

void ReliableEndpoint::service_holes() {
  const double t = now();
  for (PeerRx& rx : rx_) {
    if (rx.blocked_since < 0 || t - rx.blocked_since < cfg_.hole_timeout_s)
      continue;
    // The sender must have abandoned next_expected (and any gap after it):
    // a live retransmission would have landed within hole_timeout_s. Skip
    // to what we actually hold and deliver it; a late copy of the skipped
    // tseq now falls in the duplicate path and is dropped + acked.
    ++stats_.holes;
    rx.next_expected = rx.reorder.begin()->first;
    while (!rx.reorder.empty() &&
           rx.reorder.begin()->first == rx.next_expected) {
      ready_.push_back(std::move(rx.reorder.begin()->second));
      rx.reorder.erase(rx.reorder.begin());
      ++rx.next_expected;
    }
    rx.blocked_since = rx.reorder.empty() ? -1 : t;
  }
}

ReliableEndpoint::Status ReliableEndpoint::recv(Message* out,
                                                double timeout_s) {
  const double caller_deadline = now() + timeout_s;
  while (true) {
    if (!ready_.empty()) {
      *out = std::move(ready_.front());
      ready_.pop_front();
      ++stats_.delivered;
      return Status::kMessage;
    }
    // Drain what the fabric already holds before servicing deadlines: after
    // a stall, a t-ack that is already queued must cancel its retransmit
    // (or abandonment) rather than lose the race to it.
    const RecvStatus st = drain();
    if (st == RecvStatus::kShutdown) return Status::kShutdown;
    if (st == RecvStatus::kDead) return Status::kDead;
    if (!ready_.empty()) continue;
    const double next_retx = service_deadlines();
    service_holes();
    if (!ready_.empty()) continue;
    const double t = now();
    if (t >= caller_deadline) return Status::kTimeout;
    const double wait =
        std::max(0.0, std::min(caller_deadline, next_retx) - t) + 1e-4;

    // A shutdown or death shows again in the next drain; a timeout loops to
    // service deadlines or the caller's timeout.
    Message msg;
    if (fabric_->receive_for(self_, wait, &msg) == RecvStatus::kOk)
      handle(std::move(msg));
  }
}

RecvStatus ReliableEndpoint::drain() {
  Message msg;
  RecvStatus st;
  while ((st = fabric_->receive_for(self_, 0, &msg)) == RecvStatus::kOk)
    handle(std::move(msg));
  return st == RecvStatus::kTimeout ? RecvStatus::kOk : st;
}

void ReliableEndpoint::poll() {
  if (drain() == RecvStatus::kOk) service_deadlines();
}

void ReliableEndpoint::forget_peer(int dst) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.dst == dst)
      it = pending_.erase(it);
    else
      ++it;
  }
}

std::vector<AbandonedSend> ReliableEndpoint::take_abandoned() {
  std::vector<AbandonedSend> out;
  out.swap(abandoned_);
  return out;
}

}  // namespace pdw::net
