// Reliable, ordered, exactly-once messaging over the (possibly faulty)
// fabric — the protocol hardening the paper's Table-3 design lacks.
//
// Per (sender -> receiver) stream:
//   * every reliable message carries a transport sequence number and a
//     payload CRC-32;
//   * the receiver drops corrupt payloads (the sender retransmits), acks
//     good ones, suppresses duplicates (re-posting the consumed receive
//     buffer), and delivers strictly in sequence order through a reorder
//     buffer — so the application above sees exactly the fault-free message
//     sequence on every link, which is what makes decoded output bit-exact
//     under any non-fatal fault schedule;
//   * the sender retransmits unacked messages after a timeout with capped
//     exponential backoff; after max_retries the message is abandoned and
//     the peer reported as a suspect (the health monitor decides whether
//     the node is actually dead).
//
// Heartbeats and transport acks are fire-and-forget (send_unreliable).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "net/fabric.h"
#include "obs/metrics.h"

namespace pdw::net {

// Message.type values below this are transport-internal.
inline constexpr int kTransportAck = -1;
// tseq value marking a fire-and-forget message (no ack, no ordering).
inline constexpr uint32_t kUnreliableSeq = 0xFFFFFFFFu;
// A receiver holds messages of one link out of order only within this many
// tseqs of the next one it expects. A later one is dropped unacked (its
// sender retransmits it once the window has moved), so a hostile sender
// cannot grow the reorder buffer; a sound one never has this many in
// flight (bulk messages are bounded by the receiver's posted buffers).
inline constexpr uint32_t kReorderWindow = 1024;

// The retransmission timeout is Jacobson/Karels adaptive: every ack of a
// never-retransmitted message samples the link RTT (Karn's rule keeps
// ambiguous retransmitted samples out), maintains per-destination
// srtt/rttvar, and sets rto = srtt + 4 * rttvar clamped to
// [rto_initial_s, rto_max_s]. On a real network this tracks the actual link
// instead of a compile-time guess; retransmission backoff still doubles
// from the adaptive value up to rto_max_s.
struct ReliableConfig {
  double rto_initial_s = 0.004;  // RTO before the first RTT sample; floor
  double rto_max_s = 0.064;      // backoff cap
  int max_retries = 12;          // then abandon + report suspect
  // An abandoned send punches a permanent hole in the sender's tseq space;
  // later messages on that link would wait in the receiver's reorder buffer
  // forever. If the buffer head has been blocked this long, the receiver
  // concedes the missing tseq was abandoned and advances past the hole.
  // Must exceed the sender's worst-case retransmission span (sum of backed-
  // off rtos), or a merely slow message gets declared dead and lost — 0
  // (default) derives a safe value via derive_hole_timeout() below.
  double hole_timeout_s = 0;
  // Registry the endpoint mirrors its retransmit / abandon / CRC-drop
  // counters and RTT/jitter histograms into (nullptr: the process-global
  // one).
  obs::MetricsRegistry* metrics = nullptr;
};

// The documented hole-timeout derivation, exposed so tests can pin it
// against the worst-case retransmission span:
//   span = sum of the max_retries + 1 transmission timeouts. The first
//          timeout can already be as large as rto_max_s (srtt + 4 * rttvar
//          is clamped there) and backoff never exceeds it, so every term is
//          rto_max_s: span = (max_retries + 1) * rto_max_s.
//   hole_timeout = 4 * span + 0.1   (scheduling slack)
// Only after 4x the worst-case span can a missing tseq be presumed
// abandoned rather than still in flight.
double derive_hole_timeout(const ReliableConfig& cfg);

struct ReliableStats {
  uint64_t sent = 0;
  uint64_t retransmits = 0;
  uint64_t crc_drops = 0;   // corrupt payloads detected and discarded
  uint64_t dup_drops = 0;   // duplicate deliveries suppressed
  uint64_t reordered = 0;   // messages that waited in the reorder buffer
  uint64_t abandoned = 0;   // messages given up on after max_retries
  uint64_t no_credit = 0;   // sends deferred by flow control
  uint64_t holes = 0;       // abandoned-sender holes skipped on receive
  uint64_t delivered = 0;   // in-order app messages handed to the caller
  uint64_t rtt_samples = 0; // acks that produced a clean RTT sample
};

// A reliable message the sender gave up on (retries exhausted). The
// application layer decides what to do (e.g. a splitter tells the decoder
// to skip the picture it could not deliver).
struct AbandonedSend {
  int dst = 0;
  int type = 0;
  uint32_t seq = 0;
  uint16_t aux = 0;
};

class ReliableEndpoint {
 public:
  ReliableEndpoint(FabricBackend* fabric, int self, ReliableConfig cfg = {});

  int self() const { return self_; }
  // The effective (possibly derived) hole timeout.
  double hole_timeout_s() const { return cfg_.hole_timeout_s; }

  // Adaptive-RTO state for `dst`: smoothed RTT (0 before the first sample)
  // and the RTO the next fresh send to `dst` would use.
  double srtt_s(int dst) const;
  double rto_s(int dst) const;

  // Queue a reliable send (retransmitted until acked or abandoned).
  void send(int dst, Message msg);

  // Fire-and-forget (heartbeats). Corrupt copies are silently dropped by
  // the receiver; lost copies are simply lost.
  void send_unreliable(int dst, Message msg);

  enum class Status { kMessage, kTimeout, kShutdown, kDead };

  // Pump the transport: handle acks/retransmits/dedup/reorder internally
  // and return the next in-order application message, or time out.
  Status recv(Message* out, double timeout_s);

  // Transport work without waiting and without delivering: t-ack and queue
  // what the fabric already holds, and retransmit what is due. A node
  // thread busy computing calls this so its peers' messages are not resent
  // while the application is away; recv() hands the queued ones out later.
  void poll();

  // Peers with at least one abandoned message since the last call.
  std::vector<AbandonedSend> take_abandoned();

  // Drop every in-flight message to `dst` without reporting it abandoned —
  // used when the peer is known dead (retransmitting at a corpse is noise).
  void forget_peer(int dst);

  const ReliableStats& stats() const { return stats_; }
  size_t unacked() const { return pending_.size(); }
  // Messages from `src` waiting in the reorder buffer (< kReorderWindow).
  size_t reordering(int src) const { return rx_[size_t(src)].reorder.size(); }

 private:
  struct Pending {
    Message msg;
    int dst = 0;
    double deadline = 0;
    double rto = 0;
    int tries = 0;
    int nc_tries = 0;  // flow-control (no-credit) retries
    double first_tx = -1;       // when the fabric first accepted it
    bool retransmitted = false; // Karn: ambiguous ack, no RTT sample
  };

  // Per-destination Jacobson/Karels RTT estimator.
  struct TxPeer {
    double srtt = -1;  // < 0: no sample yet
    double rttvar = 0;
    double rto = 0;    // next fresh-send RTO (0: use rto_initial_s)
  };

  struct PeerRx {
    uint32_t next_expected = 0;
    std::map<uint32_t, Message> reorder;
    double blocked_since = -1;  // head blocked on a missing tseq since then
  };

  double now() const;
  // Handle everything the fabric holds right now; kOk unless the fabric
  // reports shutdown or death.
  RecvStatus drain();
  void transmit(Pending& p);
  // Consume one transport ack: erase the pending entry and, when the ack is
  // unambiguous (never retransmitted), feed the RTT sample to the estimator.
  void on_ack(int src, uint32_t tseq);
  // Retransmit everything past deadline; returns the next deadline (or
  // +inf). Abandons messages whose retry budget is exhausted.
  double service_deadlines();
  // Skip reorder-buffer holes blocked longer than hole_timeout_s.
  void service_holes();
  // Transport-level handling of one fabric message. Returns true if an
  // application message became deliverable (pushed onto ready_).
  bool handle(Message msg);

  FabricBackend* fabric_;
  int self_;
  ReliableConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;

  std::vector<uint32_t> next_tx_;          // per-dst transport seq
  std::map<uint64_t, Pending> pending_;    // (dst<<32)|tseq -> in-flight
  std::vector<PeerRx> rx_;                 // per-src receive state
  std::vector<TxPeer> tx_peer_;            // per-dst RTT estimator
  std::deque<Message> ready_;              // in-order app messages
  std::vector<AbandonedSend> abandoned_;
  ReliableStats stats_;

  // Cached registry instruments (labels: {node = self}).
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_abandoned_ = nullptr;
  obs::Counter* m_crc_drops_ = nullptr;
  obs::Histogram* m_rtt_ns_ = nullptr;
  obs::Histogram* m_rtt_jitter_ns_ = nullptr;
};

}  // namespace pdw::net
