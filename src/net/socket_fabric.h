// Real-socket fabric backend: the same FabricBackend surface as the
// in-process Fabric, over loopback UDP datagrams through the one UdpSocket
// (common/udp.h) — the paper's one-OS-process-per-node deployment over
// Myrinet/GM.
//
// One SocketFabric instance per node (in one process per node, or one per
// node thread when a test hosts the whole wall in-process). Differences from
// the in-process backend, all invisible above ReliableEndpoint:
//
//  * Framing: each Message becomes one or more datagrams carrying the full
//    header (src/type/seq/aux/bulk/tseq/crc) plus fragmentation
//    fields and a header CRC-32. Payloads larger than one datagram are
//    split and reassembled keyed on (src, msg_id); a datagram with a corrupt
//    header is dropped (the payload CRC stays end-to-end in
//    ReliableEndpoint, exactly as over the in-process fabric).
//  * Credits: a sender cannot see a remote receiver's posted buffers, so a
//    bulk message arriving with no credit posted is a *receiver-side drop*
//    (not acked — the sender retransmits until a buffer is posted). send()
//    therefore never returns kNoCredit; the per-link credit accounting is
//    preserved at the consumer end.
//  * Peer death: a dead process answers with ICMP port-unreachable, which
//    IP_RECVERR surfaces on the sender's error queue. take_peer_errors()
//    reports the mapped node ids so the root's heartbeat monitor can treat
//    a killed process exactly like a killed thread.
//  * Faults: an attached FaultInjector (the same one the in-process Fabric
//    takes) decides the fate of every datagram this node receives, after
//    the header check and before reassembly: drop, duplicate, corrupt the
//    fragment bytes, hold back for later delivery, or crash this node. Each
//    process impairs what it receives, so every node of a wall gets the
//    same injector (or one built from the same seed and rates).
//  * Local view: traffic_matrix() reports this node's own sends and
//    receives (message-level wire bytes, comparable with the in-process
//    fabric's accounting); datagram-level counts go to obs
//    (socket_datagrams_tx/rx, socket_send_failures, socket_rx_drops,
//    socket_peer_unreachable, labeled {node = self}).
//
// Reassembly memory is bounded against forged datagrams: a message may
// carry at most kMaxMessageBytes, and at most kMaxPartials messages are in
// reassembly at once (the oldest is evicted to admit a new one), so one
// node's reassembly state never exceeds kMaxPartials * kMaxMessageBytes =
// 64 * 8 MiB = 512 MiB of bodies, whatever arrives on its port.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/udp.h"
#include "net/fabric.h"
#include "obs/metrics.h"

namespace pdw::net {

// Fragment payload bytes per datagram: every sender cuts messages at this
// size, and it is the most a receiver accepts in one datagram. Header +
// payload stay comfortably under the 64 KiB UDP datagram limit.
inline constexpr int kMaxFragmentBytes = 56 * 1024;

// Largest message payload a SocketFabric sends or reassembles. The largest
// message the catalog streams send is a coded orion4 (3840x2912) I picture
// on its way to a splitter: 1,182,445 bytes in the default 48-frame stream.
// 8 MiB leaves a 7x margin while refusing the 4 GiB a forged payload_total
// could otherwise ask for.
inline constexpr size_t kMaxMessageBytes = size_t(8) << 20;
// Messages in reassembly at once per node; a new one evicts the oldest.
inline constexpr size_t kMaxPartials = 64;

// The framing ahead of every datagram's fragment bytes: the Message header
// fields (payload left empty) plus the fragmentation fields, closed by a
// CRC-32 of the header bytes so a corrupt header can never misroute bytes
// into the wrong reassembly slot (payload integrity stays end-to-end in
// ReliableEndpoint's envelope).
struct DatagramHeader {
  Message header;
  uint32_t msg_id = 0;  // per-sender reassembly key
  uint16_t index = 0;   // fragment index
  uint16_t count = 0;   // fragments in the message
  uint32_t total = 0;   // whole-message payload bytes
  uint32_t off = 0;     // this fragment's offset into the payload
};
inline constexpr size_t kDatagramHeaderBytes = 47;

// The header bytes of one datagram, header CRC included.
void encode_datagram_header(const DatagramHeader& h,
                            std::span<uint8_t, kDatagramHeaderBytes> out);
// The header of `dgram`, a datagram received by a node of a `nodes`-node
// wall; nullopt when it is too short, fails its magic or header CRC, or
// frames its fragment inconsistently: a source outside the wall, an index
// past the count, a message over kMaxMessageBytes or a fragment past the
// message's end. Pure, so the receive path's parser is testable without a
// socket; SocketFabric runs it on every datagram it receives.
std::optional<DatagramHeader> parse_datagram_header(
    std::span<const uint8_t> dgram, int nodes);

struct SocketFabricConfig {
  // Registry for the datagram-level counters (nullptr: process-global).
  obs::MetricsRegistry* metrics = nullptr;
  // Faults applied to every datagram this node receives (borrowed; must
  // outlive the fabric; nullptr: none).
  const FaultInjector* injector = nullptr;
};

class SocketFabric final : public FabricBackend {
 public:
  // Binds a UdpSocket for `self` on 127.0.0.1:<ephemeral>; local_endpoint()
  // reports the learned port for rendezvous registration.
  SocketFabric(int self, int nodes, SocketFabricConfig cfg = {});

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  int self() const { return self_; }
  Endpoint local_endpoint() const { return sock_.local(); }

  // Install the node -> endpoint map (from rendezvous). Must be called
  // before send().
  void set_peers(std::vector<Endpoint> peers);

  // FabricBackend. post_receive()/receive_for() only operate on this
  // instance's own node; send() sources from it.
  int nodes() const override { return nodes_; }
  void post_receive(int node) override;
  SendStatus send(int src, int dst, Message msg) override;
  RecvStatus receive_for(int node, double timeout_s, Message* out) override;

  // Local fencing: kill(self) makes this node dead (receives report kDead);
  // kill(peer) drops traffic to/from that peer at this node.
  void kill(int node) override;
  bool is_dead(int node) const override;

  TrafficMatrix traffic_matrix() const override;
  bool quiescent() const override;
  void shutdown() override;
  std::vector<int> take_peer_errors() override;

  // Datagrams dropped at this receiver because no buffer was posted — the
  // socket analog of the in-process backend's kNoCredit (flow control as a
  // receiver-side drop, recovered by retransmission).
  uint64_t credit_drops() const {
    return credit_drops_.load(std::memory_order_relaxed);
  }

  // Messages in reassembly now (never above kMaxPartials). Owner thread
  // only, like the reassembly map it reads.
  size_t reassemblies() const { return partial_.size(); }

 private:
  struct Reassembly {
    mem::Bytes body;
    std::vector<bool> have;  // per-fragment arrival mask
    size_t missing = 0;      // fragments still outstanding
    Message header;          // fields from the first fragment seen
    uint64_t admitted = 0;   // admission order, for oldest-first eviction
  };
  // A fault-delayed datagram, re-ingested without a second decision.
  struct Parked {
    DatagramHeader frag;
    std::vector<uint8_t> bytes;
    int hold = 0;  // later datagrams still to pass before release
  };

  // Nonblocking drain of every datagram currently queued on the socket.
  void drain_socket();
  // Header-check one datagram, apply the injector's decision to it, and
  // queue the (possibly reassembled) message.
  void ingest(uint8_t* data, size_t len);
  void reassemble(const DatagramHeader& f, const uint8_t* bytes, size_t len);
  // Re-ingest parked datagrams whose hold expired (all of them if `force`).
  void release_parked(bool force);
  void finish_message(Message msg);
  // Pull ICMP errors off the error queue into peer_errors_.
  void drain_errqueue();

  const int self_;
  const int nodes_;
  SocketFabricConfig cfg_;
  UdpSocket sock_;

  std::vector<Endpoint> peers_;

  // Receive-side state: only the owning node's thread touches these.
  std::deque<Message> ready_;
  std::map<uint64_t, Reassembly> partial_;  // (src << 32 | msg_id)
  uint64_t admitted_ = 0;                   // reassemblies ever started
  uint32_t next_msg_id_ = 1;
  int credits_ = 0;
  // Fault state: datagram ordinals per sender (indexed by the header's
  // validated src), datagrams delivered to this node, and the parked
  // (delayed) datagrams.
  std::vector<uint64_t> fault_ordinal_;
  uint64_t deliveries_ = 0;
  std::vector<Parked> parked_;

  // Cross-thread state: a coordinator may kill()/shutdown()/read traffic
  // while the node thread pumps.
  std::atomic<bool> shutdown_{false};
  std::vector<std::atomic<bool>> fenced_;
  std::atomic<uint64_t> credit_drops_{0};
  // Mirrors of ready_/partial_/parked_ sizes so quiescent() is safe to call
  // from a coordinating thread while the owner thread pumps.
  std::atomic<size_t> queued_{0};
  std::atomic<size_t> partial_count_{0};
  std::atomic<size_t> parked_count_{0};

  mutable std::mutex traffic_mu_;
  TrafficMatrix traffic_;

  std::mutex peer_err_mu_;
  std::vector<int> peer_errors_;

  obs::Counter* m_dgram_tx_ = nullptr;
  obs::Counter* m_send_failures_ = nullptr;
  obs::Counter* m_dgram_rx_ = nullptr;
  obs::Counter* m_rx_drops_ = nullptr;
  obs::Counter* m_peer_unreachable_ = nullptr;
};

}  // namespace pdw::net
