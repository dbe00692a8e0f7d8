// Transport-agnostic node state machines for the Table-3 display-wall
// protocol — the single home of every protocol decision.
//
// Three machines mirror the paper's three node roles:
//   * RootNode     — picture dispatch order, round-robin splitter choice and
//                    NSID stamping, one-picture-ahead go-ahead gating,
//                    heartbeat bookkeeping, death detection, resynchronization
//                    picture selection and adopt-vs-degrade rerouting;
//   * SplitterNode — picture queue, go-ahead emission, ANID ack-redirection
//                    gating (wait for every live decoder's ack of the
//                    previous picture), tile -> node sub-picture routing
//                    through deaths and adoptions, skip broadcast for
//                    undeliverable or undecodable pictures;
//   * DecoderNode  — sub-picture / exchange / skip buffering, MEI RECV
//                    expectation tracking with serviceability (a dead,
//                    unadopted or skipped peer sends nothing), exchange
//                    routing (drop / local co-hosted delivery / remote),
//                    tile adoption, heartbeat emission and the ANID-
//                    redirected per-picture ack.
//
// The machines are event-driven and pure with respect to transport and
// compute: on_message(src, msg, now) consumes one typed wire message and
// returns the messages to transmit plus any host commands; compute (picture
// splitting, pixel extraction, tile decoding) stays in the hosting engine,
// which queries the machine for every decision. The same three machines run
// under the threaded and socket walls' per-node message pumps and the
// lockstep engine's serial scheduler — which is what keeps those engines
// protocol-identical by construction. The discrete-event simulator shares
// only Topology's node numbering and round-robin arithmetic: it replays the
// fault-free protocol, so the recovery policy lives in RootNode alone.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/traffic_matrix.h"
#include "obs/metrics.h"
#include "proto/wire.h"
#include "wall/partition.h"
#include "wall/planner.h"

namespace pdw::proto {

// Node numbering shared by every engine: node 0 is the root (console PC),
// nodes 1..k the second-level splitters, nodes k+1..k+tiles the tile
// decoders. Also the home of the Table-3 ordering arithmetic:
//   * picture i is split by splitter i % k (round-robin);
//   * the NSID stamped on picture i names splitter (i + 1) % k, the owner of
//     the next picture;
//   * a decoder acks picture i not to its sender but to the NSID splitter
//     (ANID redirection), which therefore cannot dispatch picture i + 1
//     until every live decoder consumed picture i.
struct Topology {
  int k = 1;      // second-level splitters
  int tiles = 1;  // tile decoders

  int nodes() const { return 1 + k + tiles; }
  int root() const { return 0; }
  int splitter(int s) const { return 1 + s; }
  int decoder(int t) const { return 1 + k + t; }
  bool is_decoder(int node) const { return node > k; }
  int tile_of(int node) const { return node - 1 - k; }

  int splitter_for_picture(uint32_t pic) const {
    return int(pic % uint32_t(k));
  }
  uint16_t nsid(uint32_t pic) const {
    return uint16_t((pic + 1) % uint32_t(k));
  }
  // Where a decoder's ack of picture `pic` goes (the ANID target).
  int ack_target(uint32_t pic) const {
    return splitter(int((pic + 1) % uint32_t(k)));
  }
};

// What to do with a dead tile: reroute its sub-pictures to a surviving
// decoder (kAdopt) or freeze it for the rest of the run (kDegrade).
enum class RecoveryPolicy { kAdopt, kDegrade };

// A message the state machine wants transmitted. The host maps this onto
// its transport (ReliableEndpoint, serial bus, or modeled link).
struct Outgoing {
  int dst = -1;
  bool reliable = true;  // false: fire-and-forget (heartbeats)
  Packed msg;
};

// A reliable send the transport gave up on; fed back into the state machine
// so it can arrange recovery (skip broadcasts).
struct SendFailure {
  int dst = -1;
  MsgType type = MsgType::kHeartbeat;
  uint32_t seq = 0;
  uint16_t aux = 0;
};

// Protocol-level traffic accounting, recorded once per emitted protocol
// message (retransmits are a transport concern and do not appear here).
// Heartbeats are kept out of `traffic`/`counts`: their cadence is wall-clock
// driven, so their count is the one thing that legitimately differs between
// a threaded run and a serial one — and everything else a fault-free run
// emits is deterministic, which is what test_parallel_equivalence asserts
// across engines. They are NOT dropped, though: control-plane overhead is
// tallied separately in `control` / `control_msgs` so it stays visible.
struct WireAccounting {
  TrafficMatrix traffic;  // body + envelope bytes, node x node
  std::map<MsgType, uint64_t> counts;

  // Control-plane (heartbeat) bytes, node x node. Deliberately separate from
  // `traffic` so engine-equivalence comparisons stay exact.
  TrafficMatrix control;
  uint64_t control_msgs = 0;

  // > 0: also keep a per-picture tile x tile matrix of exchange body bytes
  // (what PictureTrace::exchange_bytes records on the lockstep side).
  int per_picture_tiles = 0;
  std::map<uint32_t, TrafficMatrix> exchange_by_picture;

  void reset(int nodes) {
    traffic.reset(nodes);
    counts.clear();
    control.reset(nodes);
    control_msgs = 0;
    exchange_by_picture.clear();
  }

  void record(int src, int dst, MsgType type, size_t body_bytes) {
    if (type == MsgType::kHeartbeat) {
      if (!control.empty())
        control.add(src, dst, body_bytes + Packed::kEnvelopeBytes);
      ++control_msgs;
      return;
    }
    traffic.add(src, dst, body_bytes + Packed::kEnvelopeBytes);
    ++counts[type];
  }

  void record_exchange(int src_node, int dst_node, const ExchangeMsg& m) {
    record(src_node, dst_node, MsgType::kExchange,
           exchange_msg_wire_bytes(m.entries.size()));
    if (per_picture_tiles <= 0) return;
    TrafficMatrix& tm = exchange_by_picture[m.pic_index];
    if (tm.empty()) tm.reset(per_picture_tiles);
    tm.add(int(m.src_tile), int(m.dst_tile),
           m.entries.size() * kExchangeEntryWireBytes);
  }
};

// Per-picture metadata the protocol needs from the stream: whether the
// picture starts a (closed) GOP — i.e. can serve as a resynchronization
// point after a node death.
struct PictureMeta {
  bool has_gop_header = false;
};

// --- RootNode --------------------------------------------------------------

class RootNode {
 public:
  // Adaptive tile partitioning (ROADMAP item 2). When enabled, splitters
  // report per-axis cost profiles after every split; at each closed-GOP I
  // picture the root stalls dispatch until every report for the preceding
  // pictures arrived, runs the balanced-cut planner over the last window,
  // and — when hysteresis approves — broadcasts a PartitionUpdate before
  // dispatching the first picture of the new epoch. The decision is a pure
  // function of the bitstream, so every engine rebalances identically.
  struct AdaptivePartition {
    bool enabled = false;
    double gain_threshold = 0.05;
    int min_band_mbs = 2;
  };

  struct Options {
    double heartbeat_timeout_s = 1e9;
    RecoveryPolicy recovery = RecoveryPolicy::kAdopt;
    uint8_t stream = 0;
    AdaptivePartition adaptive;
  };

  // One tile death decided by the health monitor. The host must fence the
  // node off its transport (kill + forget) and may log the recovery.
  struct Death {
    int node = -1;  // the node declared dead (fence it)
    int dead_tile = -1;
    int adopter_tile = -1;  // -1: degraded mode
    uint32_t resync_pic = 0;
  };

  struct Step {
    std::vector<Outgoing> send;
    std::vector<Death> deaths;
  };

  // `geo` is the wall's base geometry (epoch 0); with adaptive partitioning
  // the partition table shares it, so it must outlive the node.
  RootNode(const Topology& topo, const wall::TileGeometry& geo,
           const Options& opts, std::vector<PictureMeta> pictures, double now);

  // Resolve and cache this node's metric instruments in `reg` (nullptr: the
  // process-global registry). Optional — machines without it skip telemetry.
  void set_metrics(obs::MetricsRegistry* reg);

  Step on_message(int src, const AnyMsg& msg, double now);
  // Health-monitor sweep; call at every pump.
  Step on_tick(double now);

  // A transport-level hard peer error against `node` (the socket backend's
  // ICMP port-unreachable — the network telling us the process is gone).
  // After kTransportSuspectThreshold reports a live decoder node is
  // declared dead immediately, feeding the same adopt-or-freeze recovery
  // path as a heartbeat timeout but without waiting the timeout out.
  // Non-decoder nodes are ignored (splitter recovery is not modeled).
  Step on_transport_suspect(int node, double now);
  static constexpr int kTransportSuspectThreshold = 3;

  // One-picture-ahead gating: picture `cursor()` may be dispatched once the
  // go-ahead for every earlier picture arrived. With adaptive partitioning,
  // a closed-GOP boundary additionally waits for every outstanding cost
  // report, so the planner always decides on the complete previous window.
  bool may_dispatch() const;
  uint32_t cursor() const { return cursor_; }
  bool stream_done() const { return cursor_ >= total_pictures(); }
  // Dispatch the picture at cursor() (the host provides its coded bytes;
  // the span is packed into a pooled body and may die after the call);
  // advances the cursor. With adaptive partitioning a rebalance decided at
  // this picture prepends a PartitionUpdate broadcast (all splitters, all
  // live decoders) — those sends MUST reach the transport before the
  // picture itself.
  std::vector<Outgoing> dispatch(std::span<const uint8_t> coded);

  // The partition table (epoch 0 + every installed rebalance). Null unless
  // adaptive partitioning is enabled.
  const wall::PartitionTable* partitions() const { return table_.get(); }
  // Partition epochs stop moving once any death occurred (recovery resync
  // and rebalance interleaving is not worth the state space).
  bool partition_frozen() const { return partition_frozen_; }
  // End-of-stream notices for every splitter.
  std::vector<Outgoing> end_of_stream() const;

  // Every decoder node is accounted for (finished or declared dead) — the
  // teardown precondition: exiting earlier would strand a decoder
  // retransmitting its finished notice at a mailbox nobody reads.
  bool all_reported() const;

 private:
  uint32_t total_pictures() const { return uint32_t(pictures_.size()); }
  void declare_dead(int node, Step* step);
  // Mirror the current partition (epoch + cut lines) into gauges so live
  // dashboards — local wall_top and the remote collector — can render it.
  void publish_partition_gauges();
  // True when the picture at cursor() is a closed-GOP boundary at which the
  // planner may still move the partition.
  bool rebalance_pending() const;

  Topology topo_;
  Options opts_;
  std::vector<PictureMeta> pictures_;
  std::vector<double> last_hb_;   // by tile
  std::map<int, int> suspects_;   // node -> transport hard-error count
  std::set<int> dead_nodes_, finished_nodes_;
  std::vector<int> owner_;        // tile -> node now serving it
  int64_t acks_seen_ = 0;         // go-aheads from splitters
  uint32_t cursor_ = 0;           // next picture index to dispatch

  // Adaptive partitioning state (table_ null when disabled).
  std::unique_ptr<wall::PartitionTable> table_;
  wall::CostProfile window_cost_;  // accumulated since the last GOP decision
  int64_t cost_reports_seen_ = 0;  // one per dispatched picture, eventually
  bool partition_frozen_ = false;

  obs::Counter* m_dispatched_ = nullptr;
  obs::Counter* m_go_aheads_ = nullptr;
  obs::Counter* m_hb_recv_ = nullptr;
  obs::Counter* m_deaths_ = nullptr;
  obs::MetricsRegistry* metrics_reg_ = nullptr;  // for partition gauges
};

// --- SplitterNode ----------------------------------------------------------

class SplitterNode {
 public:
  struct Step {
    std::vector<Outgoing> send;
    std::vector<int> forget;  // dead nodes the transport should drop
    // A partition rebalance announced by the root. The host must install
    // the epoch's geometry before splitting any picture stamped with it
    // (the root broadcasts the update ahead of such pictures, and links
    // deliver in order, so it is already here when they arrive).
    std::optional<PartitionUpdateMsg> partition;
  };

  SplitterNode(const Topology& topo, int index, uint8_t stream = 0);

  // See RootNode::set_metrics.
  void set_metrics(obs::MetricsRegistry* reg);

  Step on_message(int src, AnyMsg msg, double now);
  // A reliable send was abandoned: a lost sub-picture becomes a skip
  // broadcast to every live decoder; a lost skip is resent to its target
  // (it is tiny and must eventually land, or the pipeline deadlocks — if
  // the node is truly dead the death notice ends the retrying).
  Step on_send_failure(const SendFailure& f);

  bool has_picture() const { return !pictures_.empty(); }
  // Pictures queued and not yet popped (the queue_depth gauge).
  int queue_depth() const { return int(pictures_.size()); }
  bool ended() const { return ended_; }
  // Dequeue the next picture; `go_ahead` is the ack that releases the root
  // to send one more.
  PictureMsg pop_picture(Outgoing* go_ahead);

  // ANID gating: true once every live decoder acked picture `pic` - 1 (the
  // acks were redirected here by the NSID on picture `pic` - 1). Collects
  // consumed ack state when satisfied.
  bool prev_acked(uint32_t pic);

  // Sub-picture routing for `pic` through deaths and adoptions: one entry
  // per tile that somebody serves at this picture.
  struct SpRoute {
    int tile = -1;
    int dst_node = -1;
  };
  std::vector<SpRoute> routes(uint32_t pic) const;

  // The picture is undecodable (damaged headers): nobody can split or
  // decode it. Skip notices for every tile to every live decoder.
  std::vector<Outgoing> skip_picture(uint32_t pic) const;

 private:
  Topology topo_;
  int index_ = 0;
  uint8_t stream_ = 0;
  std::vector<PictureMsg> pictures_;  // FIFO (front = next)
  std::map<uint32_t, std::set<int>> acked_;  // picture -> decoder nodes
  std::set<int> live_;
  struct Route {
    int node = -1;
    uint32_t valid_from = 0;  // only send pictures >= this index
  };
  std::vector<Route> route_;  // by tile
  bool ended_ = false;

  obs::Counter* m_acks_recv_ = nullptr;
  obs::Counter* m_skips_ = nullptr;
};

// --- DecoderNode -----------------------------------------------------------

class DecoderNode {
 public:
  struct Options {
    double heartbeat_interval_s = 0.02;
    uint32_t total_pictures = 0;
    uint8_t stream = 0;
  };

  struct Step {
    std::vector<Outgoing> send;
    std::vector<int> forget;        // dead nodes the transport should drop
    std::optional<int> adopt_tile;  // host: create decode state, add credits
    // A partition rebalance announced by the root; the host installs the
    // epoch's geometry into its table (see latest_epoch()).
    std::optional<PartitionUpdateMsg> partition;
  };

  DecoderNode(const Topology& topo, int home_tile, const Options& opts);

  // See RootNode::set_metrics.
  void set_metrics(obs::MetricsRegistry* reg);

  Step on_message(int src, AnyMsg msg, double now);
  // Heartbeat emission when due; call at every pump.
  std::vector<Outgoing> on_tick(double now);

  // Tiles this node serves (grows on adoption; order is decode order).
  struct OwnedTile {
    int tile = -1;
    uint32_t active_from = 0;  // first picture this node decodes for it
  };
  const std::vector<OwnedTile>& owned() const { return owned_; }
  bool tile_active(const OwnedTile& ot, uint32_t pic) const {
    return ot.active_from <= pic;
  }

  // Phase-1 entry for (tile, pic): resolve the sub-picture. kReady moves the
  // typed message into the tile's scratch (read it back via sp(tile)) and
  // registers the MEI RECV expectations, minus tiles co-hosted here.
  // A sub-picture stamped with an epoch this node has not yet learned from
  // the root stays kPending: sub-pictures travel splitter -> decoder while
  // PartitionUpdates travel root -> decoder, so the two can cross.
  enum class SpState { kPending, kReady, kSkipped };
  SpState poll_sp(int tile, uint32_t pic);
  // Highest partition epoch announced by the root so far (0 on a static
  // wall). Every sub-picture handed out by poll_sp satisfies
  // sp.epoch <= latest_epoch().
  uint32_t latest_epoch() const { return latest_epoch_; }
  // Sub-pictures buffered and not yet consumed (the queue_depth gauge).
  int pending_sps() const { return int(sps_.size()); }
  const SpMsg& sp(int tile) const;
  bool have_sp(int tile) const;
  bool skipped(int tile) const;

  // Where the halo data this node extracted for `dst_tile` must go. kDrop:
  // nobody serves that picture (the tile is dead and pic precedes its
  // resync point). kLocal: a tile co-hosted on this node.
  struct ExchangeRoute {
    enum class Kind { kDrop, kLocal, kRemote } kind = Kind::kDrop;
    int dst_node = -1;
  };
  ExchangeRoute route_exchange(int dst_tile, uint32_t pic) const;

  // Phase-2 gate: every RECV expectation of (tile, pic) is either buffered
  // or unserviceable (its source tile is skipped this picture, or dead with
  // no adopter serving pic yet).
  bool halos_complete(int tile, uint32_t pic) const;
  std::vector<ExchangeMsg> take_exchanges(int tile, uint32_t pic);

  // The ack of picture `pic` to the splitter owning the next picture (ANID
  // redirection). Table 3 sends it on receipt: once the picture's
  // sub-pictures for every owned tile are in hand, so picture pic + 1 can
  // land in the second posted buffer while pic decodes.
  std::vector<Outgoing> ack_picture(uint32_t pic);
  // Per-picture epilogue, after the decode: garbage-collect buffers at or
  // below `pic`.
  void finish_picture(uint32_t pic);

  // End-of-stream notice for the root (stop monitoring this node).
  std::vector<Outgoing> finished() const;

 private:
  struct Scratch {
    int64_t pic = -1;  // picture this scratch belongs to
    bool have_sp = false;
    bool skip = false;
    SpMsg sp;
    std::set<int> expected;  // source tiles with SENDs for us
  };

  // Key ordering state by (pic, tile) so everything at or below a picture
  // index can be erased with one lower_bound sweep.
  static uint64_t key(int tile, uint32_t pic) {
    return (uint64_t(pic) << 16) | uint16_t(tile);
  }
  Scratch& scratch_for(int tile, uint32_t pic);
  bool serviceable(int src_tile, uint32_t pic) const;

  Topology topo_;
  int home_tile_ = -1;
  int self_ = -1;
  Options opts_;

  std::vector<OwnedTile> owned_;
  std::map<uint64_t, SpMsg> sps_;
  std::map<uint64_t, std::map<int, ExchangeMsg>> exchanges_;
  std::set<uint64_t> skips_;
  // What every node knows about a dead tile once the root's death notice
  // arrived: nobody serves its pictures before `resync`; from there on the
  // adopter does (or nobody, in degraded mode).
  struct DeadTileInfo {
    uint32_t resync = 0;
    int adopter_tile = -1;
  };
  std::map<int, DeadTileInfo> dead_tiles_;
  std::vector<int> owner_;  // tile -> node now serving it
  std::map<int, Scratch> scratch_;  // by tile
  uint32_t latest_epoch_ = 0;
  double last_hb_ = -1e9;

  obs::Counter* m_hb_sent_ = nullptr;
  obs::Counter* m_acks_sent_ = nullptr;
  obs::Counter* m_adoptions_ = nullptr;
};

}  // namespace pdw::proto
