// Node hosts: the glue between the sans-io protocol machines (proto/nodes.h)
// and a concrete transport + compute.
//
// The compute of each Table-3 role lives in one body that both schedulers
// call: SplitterBody (split a picture, pack its sub-pictures) and
// TileDecoderSet (serve the SENDs, apply the halos, decode). A host adds
// only its own part: how it waits for inputs, where an emission goes, and
// what it records. Two schedulers host the bodies:
//   * LockstepPipeline (core/lockstep.h) — one picture at a time over a
//     synchronous in-memory bus, the reference the engines are held to;
//   * run_node below — one node's host, which pumps a net::ReliableEndpoint
//     over any net::FabricBackend, feeds decoded wire messages to its state
//     machine, transmits whatever the machine returns and runs its body when
//     the machine says the inputs are complete.
//
// run_node is the one way to host a node. Two places call it, each over a
// WallContext:
//   * run_wall (core/wall_runner.h) — the in-process wall, one thread per
//     node sharing one context. Its two fabric adapters are ClusterPipeline
//     (core/pipeline.h: every node on one shared in-process Fabric, the
//     fast, deterministic test path) and run_socket_wall
//     (core/socket_wall.h: one SocketFabric per node over real UDP loopback,
//     wired by a rendezvous);
//   * wall_node (examples/wall_node.cpp) — one OS process per node, the
//     paper's actual deployment shape, each with a context of its own.
// Both size the wire pool and post the initial credits with the helpers
// below. The protocol machines cannot tell the shapes apart, which is what
// the ProtocolEquivalence suite proves.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/timing.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "net/fabric.h"
#include "net/reliable.h"
#include "obs/instruments.h"
#include "proto/nodes.h"
#include "wall/geometry.h"
#include "wall/partition.h"

namespace pdw::core {

// One node-death recovery, as observed by the runtime.
struct RecoveryEvent {
  double detect_time_s = 0;  // root declared the node dead (since run start)
  int dead_tile = -1;
  int adopter_tile = -1;     // -1: degraded mode (tile frozen, not adopted)
  uint32_t resync_pic = 0;   // first closed-GOP I not yet dispatched
  double resync_time_s = 0;  // adopter decoded resync_pic (0 if never)
};

// Wall display callback. The threaded hosts call it with an internal mutex
// held; the lockstep engine calls it from its one thread.
using TileDisplayFn = std::function<void(int tile, const mpeg2::TileFrame&,
                                         const TileDisplayInfo&)>;

struct ProtocolConfig {
  net::ReliableConfig reliable;
  double heartbeat_interval_s = 0.02;
  // Default is "effectively never": a fault-free run must not declare
  // anything dead no matter how badly the scheduler (or a sanitizer)
  // stalls a thread. Fault tests override with something small.
  double heartbeat_timeout_s = 1e9;
};

// What every wall is configured with, whatever its fabric.
struct WallOptions {
  ProtocolConfig protocol;
  proto::RecoveryPolicy recovery = proto::RecoveryPolicy::kAdopt;
  // Also record per-picture tile x tile exchange matrices in stats.wire
  // (test_parallel_equivalence compares them against the lockstep traces).
  bool per_picture_exchange = false;
  // Registry telemetry lands in (nullptr: the process-global one).
  obs::MetricsRegistry* metrics = nullptr;
  // Adaptive per-GOP tile rebalancing over the wall's geometry.
  proto::RootNode::AdaptivePartition adaptive;
  // Faults on every node's fabric (borrowed; may be null): per message on
  // the in-process fabric, per received datagram on socket fabrics.
  const net::FaultInjector* injector = nullptr;
};

// Everything the hosts of one wall share, built and sized in one place: its
// constructor. In run_wall every host holds the same context; a wall_node
// process builds its own for the one node it hosts, and the processes'
// accounting is merged afterwards. The geometry, the stream bytes, the
// options and the display callback are borrowed and must outlive it.
struct WallContext {
  WallContext(const wall::TileGeometry& geometry, int k,
              std::span<const uint8_t> es, const WallOptions& options,
              const TileDisplayFn& display);

  WallContext(const WallContext&) = delete;
  WallContext& operator=(const WallContext&) = delete;

  const wall::TileGeometry& geo;
  const proto::Topology topo;
  const RootSplitter root;  // the stream's start-code scan
  const WallOptions& opts;
  const TileDisplayFn& on_display;
  std::mutex display_mu;   // serializes on_display across decoder hosts
  const WallTimer timer;   // the protocol clock, started after the scan

  std::mutex mu;  // guards recoveries
  std::vector<RecoveryEvent> recoveries;
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> skipped{0};
  std::vector<net::ReliableStats> ep_stats;  // by node, written at host exit
  // The root leaves its health-monitor loop only once this is raised and
  // every decoder reported: run_wall raises it when every decoder thread is
  // done; a wall_node process, with no coordinator, raises it up front.
  std::atomic<bool> root_stop{false};
  // By node: the host finished its role's work (a decoder also when it was
  // killed). Every host then stays resident, t-acking peers' tail
  // retransmissions, until its fabric shuts down, so a slow retransmit to a
  // finished node is never falsely abandoned.
  std::vector<std::atomic<bool>> done;
  std::mutex acct_mu;  // guards acct
  proto::WireAccounting acct;

  void wait_done(int node) const;
};

// Host `node` of the wall over `fabric` until the fabric shuts down (or the
// node is killed): the role follows from the node id. This is the one place
// RootNode::Options and DecoderNode::Options are built from ctx.opts (the
// lockstep engine keeps its own mapping).
void run_node(WallContext& ctx, net::FabricBackend& fabric, int node);

void accumulate_transport(net::ReliableStats* into,
                          const net::ReliableStats& s);

// The root's per-picture metadata, from the start-code scan.
std::vector<proto::PictureMeta> picture_metas(const RootSplitter& root);

// Prewarm the wire pool (the GM analog of pre-posting buffers): mint every
// size class up to twice the largest coded picture so the steady state
// never misses, whatever peaks thread scheduling produces. The count covers
// the sub-picture classes, whose peak concurrency scales with tiles (every
// in-flight picture fans out one body per tile); prewarm itself caps the
// picture-sized classes by bytes.
void prewarm_wire_pool(const RootSplitter& root, const proto::Topology& topo);

// Every bulk receiver (all but the root) posts its two receive buffers
// before the stream starts — in GM this happens during connection setup. A
// credit is receiver-local state, so posting early keeps the root's first
// dispatch from burning retransmit budget on a creditless receiver.
void post_initial_credits(net::FabricBackend& fabric,
                          const proto::Topology& topo, int node);

// --- Role bodies: the compute both schedulers share ------------------------

// Splitter (Table 3): split a picture against its stamped epoch's geometry
// and pack the sub-pictures. Borrows the host's partition table.
struct SplitterBody {
  const wall::PartitionTable& table;
  int node;
  uint8_t stream;
  bool adaptive;  // build a cost report after every split
  MacroblockSplitter splitter;
  obs::SplitterInstruments inst;

  SplitterBody(const wall::PartitionTable& t, int node_id, uint8_t stream_id,
               bool adaptive_enabled, const StreamInfo& info,
               obs::MetricsRegistry& metrics);

  // The update installing the picture's epoch precedes it on the same
  // in-order link, so the table always already has it (CHECKed). Observes
  // split_ns; counts pictures_split when the split succeeds.
  // `between_parts` as in MacroblockSplitter::split.
  SplitResult split(const proto::PictureMsg& pic,
                    const std::function<void()>& between_parts = {});
  // The planner's cost report for picture `i` (nullopt unless adaptive):
  // one per popped picture, empty vectors when the picture was not split,
  // so the root's completeness count holds.
  std::optional<proto::Packed> cost_report(uint32_t i,
                                           const SplitStats& stats) const;
  // Serialize one tile's sub-picture and MEI list straight into a pooled
  // wire body; counts sp_bytes_sent.
  proto::Packed pack(const proto::PictureMsg& pic, const SplitResult& result,
                     int tile);
};

// Decoder (Table 3): the tile decoders one node hosts — its home tile plus
// any it adopted. Borrows the host's partition table and stream info.
struct TileDecoderSet {
  const wall::PartitionTable& table;
  const StreamInfo& info;
  HaloPolicy policy;
  int node;
  uint8_t stream;
  std::map<int, std::unique_ptr<TileDecoder>> decs;  // by tile
  std::map<int, SubPicture> subs;  // current picture's sub-picture, by tile
  obs::DecoderInstruments inst;

  TileDecoderSet(const wall::PartitionTable& t, const StreamInfo& si,
                 HaloPolicy halo_policy, int node_id, uint8_t stream_id,
                 obs::MetricsRegistry& metrics);

  // The decoder for `tile`, created on first use. Given an `epoch`, it is
  // rebased to that epoch's geometry first: the one place a tile decoder
  // changes partitions. Only serve and co-hosted halo delivery pass one —
  // rebase drops staged per-picture state, so it must precede both.
  TileDecoder& at(int tile, std::optional<uint32_t> epoch = std::nullopt);

  // Routes one built exchange to peer tile `peer` (and may move from it).
  // Returns whether the message left this node (counted in
  // exchange_bytes_sent).
  using RouteFn = std::function<bool(int peer, proto::ExchangeMsg& m)>;

  // Serve: deserialize `sp`, stage its CONCEAL entries and extract its
  // SENDs into one ExchangeMsg per peer tile, each handed to `route`.
  // Observes serve_ns; returns the seconds it took.
  double serve(int tile, uint32_t i, const proto::SpMsg& sp,
               const RouteFn& route);
  // Co-hosted halo delivery: a peer tile on this same node takes the
  // exchange in memory, at the sender's epoch.
  void add_halos(int tile, uint32_t epoch, const proto::ExchangeMsg& m);
  // Decode: apply the received halos, then decode the served sub-picture
  // (`between_bands` as in TileDecoder::decode). Returns the decode seconds
  // (observed in decode_ns).
  double decode(int tile, uint32_t i,
                const std::vector<proto::ExchangeMsg>& exchanges,
                const TileDecoder::DisplayFn& display,
                const std::function<void()>& between_bands = {});
  void skip(int tile, uint32_t i, const TileDecoder::DisplayFn& display);
  // End of stream: emit the tile's pending reference, if it has a decoder.
  void flush(int tile, const TileDecoder::DisplayFn& display);
};

}  // namespace pdw::core
