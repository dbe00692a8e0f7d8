// In-process message-passing fabric with GM/Myrinet-like semantics
// (paper §4.4).
//
// GM's user-level API is connectionless reliable messaging where the
// *receiver* must provide buffers: a sender may only transmit when it knows
// the receiver has a receive buffer posted. The paper builds a two-buffer
// credit scheme on top (post two buffers; after consuming a message, recycle
// the buffer and send an ack/go-ahead). We model posted buffers as credits.
// A bulk send without a posted buffer is *not* a hard abort any more: it
// returns SendStatus::kNoCredit so the reliable transport (net/reliable.h)
// can back off and retry, and so tests can exercise the overrun path.
//
// Small control messages (acks, go-aheads, heartbeats) flow without
// credits, as GM programs typically reserve a pool of small buffers for
// them.
//
// Unlike the paper's fabric, this one can be *unreliable on demand*: an
// attached FaultInjector may drop, delay (reorder), duplicate or corrupt
// any message, or crash a node outright. Delayed messages are parked in the
// destination mailbox and released after `hold` later deliveries — or when
// a receiver times out waiting, which models late arrival and guarantees
// liveness. A killed node loses its queue; sends to it succeed silently
// (the network does not tell a sender its peer died) and receives at it
// report RecvStatus::kDead so the node's thread can exit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/traffic_matrix.h"
#include "mem/bytes.h"
#include "net/fault.h"

namespace pdw::net {

struct Message {
  int src = -1;
  int type = 0;        // application-defined tag (< 0 reserved for transport)
  uint32_t seq = 0;    // picture index / sequence number
  uint16_t aux = 0;    // ANID / NSID / tile field
  uint8_t stream = 0;  // wire-level stream tag (multi-stream sessions)
  bool bulk = false;   // true: consumes a posted receive buffer
  uint32_t tseq = 0;   // transport sequence number (stamped by ReliableEndpoint)
  uint32_t crc = 0;    // payload CRC-32 (stamped by ReliableEndpoint)
  // Refcounted view of the pooled wire body: copying a Message (send,
  // retransmit-queue pin, duplicate fault) bumps a refcount instead of
  // copying payload bytes.
  mem::Bytes payload;

  // Wire size. The 16-byte header models GM's small-message header and is
  // kept unchanged from the reliable-fabric era: seq/crc framing replaces
  // padding rather than growing the header.
  size_t wire_bytes() const { return payload.size() + kHeaderBytes; }
  static constexpr size_t kHeaderBytes = 16;
};

struct NodeCounters {
  uint64_t sent_bytes = 0;
  uint64_t recv_bytes = 0;
  uint64_t sent_messages = 0;
  uint64_t recv_messages = 0;
  uint64_t dropped_messages = 0;  // lost to injected faults on this dst
};

enum class SendStatus {
  kOk,        // delivered (or silently dropped by a fault — sender can't tell)
  kNoCredit,  // bulk message, no posted receive buffer (flow-control overrun)
  kSrcDead,   // the sending node was killed
};

enum class RecvStatus {
  kOk,
  kTimeout,
  kShutdown,  // fabric shut down and queue drained
  kDead,      // this node was killed
};

// The transport surface every fabric backend provides. Two implementations:
//   * Fabric       — the in-process GM-like fabric below (one instance shared
//                    by every node thread; the fast, deterministic test path);
//   * SocketFabric — net/socket_fabric.h, real nonblocking UDP datagrams (one
//                    instance per node; besides whatever the network does,
//                    the same FaultInjector applies per received datagram).
// ReliableEndpoint and the core/ node hosts are written against this
// interface, which is what lets the same protocol machines run in one
// process or across many.
class FabricBackend {
 public:
  virtual ~FabricBackend() = default;

  virtual int nodes() const = 0;

  // Post one receive buffer at `node` (a credit for one bulk message).
  virtual void post_receive(int node) = 0;

  // Deliver a message to `dst`. Bulk messages consume a posted buffer;
  // kNoCredit means the message was not delivered (in-process backend only:
  // a socket sender cannot see the receiver's credit state, so there the
  // overrun is a receiver-side drop covered by retransmission).
  virtual SendStatus send(int src, int dst, Message msg) = 0;

  // Timed receive at `node`.
  virtual RecvStatus receive_for(int node, double timeout_s, Message* out) = 0;

  // Fence a node off the fabric. For the in-process backend this kills the
  // mailbox; a socket backend fences locally (drop its traffic both ways).
  virtual void kill(int node) = 0;
  virtual bool is_dead(int node) const = 0;

  // Per-node traffic counters and the pairwise traffic matrix (a socket
  // backend reports its local view: its own sends and receives).
  virtual NodeCounters counters(int node) const = 0;
  virtual TrafficMatrix traffic_matrix() const = 0;

  // True when nothing is queued locally — every delivered message consumed.
  virtual bool quiescent() const = 0;

  // Unblock all receivers (end of stream).
  virtual void shutdown() = 0;

  // Nodes for which the transport observed a hard peer error (ICMP port
  // unreachable — the socket analog of a crashed process) since the last
  // call. The in-process fabric never reports any; the root host feeds
  // these into the protocol's death detection.
  virtual std::vector<int> take_peer_errors() { return {}; }
};

class Fabric final : public FabricBackend {
 public:
  explicit Fabric(int nodes);

  int nodes() const override { return int(mailboxes_.size()); }

  // Attach a fault injector (borrowed; must outlive the fabric). Call before
  // concurrent use.
  void set_fault_injector(const FaultInjector* injector) {
    injector_ = injector;
  }

  // Post one receive buffer at `node` (a credit for one bulk message).
  void post_receive(int node) override;

  // Deliver a message to `dst`. Bulk messages consume a posted buffer;
  // returns kNoCredit (message not delivered) if none is available.
  SendStatus send(int src, int dst, Message msg) override;

  // Blocking receive at `node`. Returns false if the fabric was shut down
  // (and the queue drained) or the node was killed.
  bool receive(int node, Message* out);

  // Timed receive. On kTimeout, any fault-delayed messages parked at this
  // node are released (they arrive "late"), so a later call will see them.
  RecvStatus receive_for(int node, double timeout_s, Message* out) override;

  // Kill a node: its queue is lost, receives at it return kDead, sends to it
  // vanish silently. Idempotent.
  void kill(int node) override;
  bool is_dead(int node) const override;

  // Per-node traffic counters and the pairwise traffic matrix.
  NodeCounters counters(int node) const override;
  TrafficMatrix traffic_matrix() const override;

  // True when no live node has queued or fault-delayed messages — i.e. every
  // sent message has been consumed. Lets an orderly teardown wait for the
  // last in-flight acks before shutdown() discards whatever remains.
  bool quiescent() const override;

  // Unblock all receivers (end of stream).
  void shutdown() override;

 private:
  struct Delayed {
    Message msg;
    int hold = 0;  // deliveries remaining before release
  };

  struct Mailbox {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
    std::vector<Delayed> delayed;
    int credits = 0;
    bool dead = false;
    uint64_t deliveries = 0;  // messages ever delivered to this node
    NodeCounters counters;
  };

  Mailbox& box(int node) {
    PDW_CHECK_GE(node, 0);
    PDW_CHECK_LT(node, nodes());
    return *mailboxes_[size_t(node)];
  }

  // Must hold mb.mu. Move delayed messages whose hold expired into the queue.
  static void release_delayed(Mailbox& mb, bool force);
  // Must hold mb.mu. Enqueue one already-fault-processed message.
  static bool enqueue(Mailbox& mb, Message msg);

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  TrafficMatrix traffic_;
  // Per-(link, stream) send counters: fault schedules key on the n-th
  // message *of a stream* on a link, so one stream's fate is independent of
  // how other streams' traffic interleaves with it (reproducible chaos
  // schedules under multi-stream sessions). Key = (src * nodes + dst) << 8
  // | stream; stream-0-only runs behave exactly as the old per-link counter.
  std::unordered_map<uint64_t, uint64_t> link_ordinal_;
  mutable std::mutex traffic_mu_;
  std::atomic<bool> shutdown_{false};
  const FaultInjector* injector_ = nullptr;
};

}  // namespace pdw::net
