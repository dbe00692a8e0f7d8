// Lockstep (single-threaded) execution of the full 1-k-(m,n) pipeline.
//
// One elementary stream's RootNode, k SplitterNodes and one DecoderNode per
// tile, advanced one picture at a time over a synchronous in-memory bus: root
// split -> second-level split -> MEI exchange -> tile decode, in order, in
// one thread. The compute is the wall runner's own (SplitterBody and
// TileDecoderSet, core/hosts.h) and every protocol decision comes from the
// same state machines its hosts pump; only the scheduling differs. Two jobs:
//   1. Functional reference for the parallel system: the tile outputs it
//      produces are what the threaded pipeline and the DES-driven cluster
//      must also produce (bit-exact vs the serial decoder), and because the
//      protocol decisions and compute are shared, the engines cannot drift
//      apart.
//   2. Cost measurement: it times every operation of the Table-3 protocol on
//      real data, producing the per-picture traces the discrete-event
//      cluster simulator replays to obtain frame rates, runtime breakdowns
//      and per-node bandwidth on a simulated Myrinet-class network.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/traffic_matrix.h"
#include "core/hosts.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "proto/nodes.h"
#include "wall/geometry.h"
#include "wall/partition.h"

namespace pdw::core {

// Measured trace of one picture's journey through the pipeline (replayed by
// sim::simulate_cluster).
struct PictureTrace {
  uint32_t pic_index = 0;
  mpeg2::PicType type = mpeg2::PicType::I;
  bool has_gop_header = false;  // picture starts a (closed) GOP — resync point
  uint32_t epoch = 0;           // partition epoch the picture was split under
  size_t picture_bytes = 0;  // root -> splitter message size
  double copy_s = 0;         // root: copy picture into the send buffer
  double split_s = 0;        // second-level: parse + pack SPs and MEIs
  int splitter = 0;          // which second-level splitter handled it

  // Per tile decoder:
  std::vector<size_t> sp_msg_bytes;  // splitter -> decoder wire body size
  std::vector<double> decode_s;      // halo-fed decode + display ("Work")
  std::vector<double> serve_s;       // SP deserialize + SENDs ("Serve")
  std::vector<int> halo_mbs;         // remote macroblocks received
  TrafficMatrix exchange_bytes;      // tile x tile exchange wire bytes

  SplitStats split_stats;
};

class LockstepPipeline {
 public:
  using TraceFn = std::function<void(const PictureTrace&)>;

  // `k` second-level splitters (round-robin), tiles from `geo`; `es` is
  // borrowed and must outlive the pipeline. `metrics` selects the registry
  // telemetry lands in (nullptr: the process-global one). `adaptive` turns
  // on per-GOP partition rebalancing (the engine supplies the base geometry
  // itself; any `geo` set by the caller is ignored). `stream` tags every
  // wire message (0 for single-stream engines).
  LockstepPipeline(const wall::TileGeometry& geo, int k,
                   std::span<const uint8_t> es,
                   obs::MetricsRegistry* metrics = nullptr,
                   proto::RootNode::AdaptivePartition adaptive = {},
                   uint8_t stream = 0);
  ~LockstepPipeline();

  // Process the stream (the first `max_pictures` pictures when >= 0), then
  // finish(). One run per pipeline: stepping or finishing again CHECK-fails
  // instead of silently replaying from mid-stream reference state.
  void run(const TileDisplayFn& on_display, const TraceFn& on_trace,
           int max_pictures = -1);

  int picture_count() const { return root_.picture_count(); }
  uint32_t next_picture() const { return cursor_; }
  bool done() const { return int(cursor_) >= picture_count(); }

  // Coding type / closed-GOP flag of the next picture, peeked from the
  // start-code scan — what the QoS ladder needs *before* any split work.
  mpeg2::PicType next_picture_type() const;
  bool next_gop_start() const;
  uint64_t pictures_shed() const { return pictures_shed_; }

  // Advance one picture end to end: dispatch -> split -> serve/exchange ->
  // decode -> ack. Either callback may be null. With `shed` the picture is
  // dispatched but never split: the splitter broadcasts a skip and every
  // tile emits a frozen frame — the QoS degradation path, riding the same
  // machinery as an undecodable picture.
  void step(const TileDisplayFn& on_display, const TraceFn& on_trace,
            bool shed = false);

  // End-of-stream protocol: flush every tile decoder and run the
  // finished-notice handshake. Call once, after the last step().
  void finish(const TileDisplayFn& on_display);

  const wall::TileGeometry& geometry() const { return geo_; }
  const RootSplitter& root() const { return root_; }
  int k() const { return topo_.k; }

  // Protocol-level traffic (heartbeats excluded) — directly comparable with
  // the threaded pipeline's accounting.
  const proto::WireAccounting& accounting() const { return acct_; }
  // Partition epochs this run installed (epoch 0 alone on a static wall).
  const wall::PartitionTable& partitions() const { return table_; }

 private:
  void deliver(int src, proto::Outgoing o);
  void deliver_exchange(int src, int dst, proto::ExchangeMsg msg);
  void dispatch(int src, int dst, proto::AnyMsg msg);
  void install_partition(const proto::PartitionUpdateMsg& pu);

  const wall::TileGeometry& geo_;
  wall::PartitionTable table_;  // one table for every node on the bus
  proto::Topology topo_;
  RootSplitter root_;
  std::unique_ptr<proto::RootNode> root_node_;
  std::vector<std::unique_ptr<proto::SplitterNode>> splitter_nodes_;
  std::vector<std::unique_ptr<SplitterBody>> splitters_;  // by splitter
  std::vector<std::unique_ptr<proto::DecoderNode>> decoder_nodes_;  // by tile
  std::vector<std::unique_ptr<TileDecoderSet>> decoders_;  // by tile
  proto::WireAccounting acct_;
  uint32_t cursor_ = 0;
  uint64_t pictures_shed_ = 0;
  bool finished_ = false;
};

}  // namespace pdw::core
