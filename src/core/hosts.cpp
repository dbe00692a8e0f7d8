#include "core/hosts.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "mem/pool.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "proto/wire.h"

namespace pdw::core {

using proto::AnyMsg;
using proto::Outgoing;

void accumulate_transport(net::ReliableStats* into,
                          const net::ReliableStats& s) {
  into->sent += s.sent;
  into->retransmits += s.retransmits;
  into->crc_drops += s.crc_drops;
  into->dup_drops += s.dup_drops;
  into->reordered += s.reordered;
  into->abandoned += s.abandoned;
  into->no_credit += s.no_credit;
  into->holes += s.holes;
  into->delivered += s.delivered;
  into->rtt_samples += s.rtt_samples;
}

void prewarm_wire_pool(const RootSplitter& root, const proto::Topology& topo) {
  size_t max_pic = 0;
  for (int i = 0; i < root.picture_count(); ++i)
    max_pic = std::max(max_pic, root.picture(i).size());
  mem::BufferPool::wire().prewarm(max_pic * 2,
                                  2 * topo.nodes() + topo.tiles + 8);
}

void post_initial_credits(net::FabricBackend& fabric,
                          const proto::Topology& topo, int node) {
  if (node == topo.root()) return;
  fabric.post_receive(node);
  fabric.post_receive(node);
}

namespace {

// The endpoint's transport instruments (retransmits, RTT histograms) must
// land in the same registry as the host's, not fall back to the global one.
net::ReliableConfig with_metrics(net::ReliableConfig rc,
                                 obs::MetricsRegistry* metrics) {
  if (!rc.metrics) rc.metrics = metrics;
  return rc;
}

// The one host send tail: a packed body onto the transport, noted in the
// flight recorder. Callers do the accounting.
void send_packed(net::ReliableEndpoint& ep, int src, int dst, proto::Packed p,
                 bool reliable = true) {
  obs::FlightRecorder::global().note_wire(true, src, dst, int(p.type), p.seq,
                                          p.aux, p.body.size());
  net::Message m;
  m.type = int(p.type);
  m.seq = p.seq;
  m.aux = p.aux;
  m.bulk = p.bulk;
  m.payload = std::move(p.body);
  if (reliable)
    ep.send(dst, std::move(m));
  else
    ep.send_unreliable(dst, std::move(m));
}

// Exchanges are built by the host (they carry extracted pixels), so they
// are recorded with their typed form to feed the per-picture matrices.
void emit_exchange(net::ReliableEndpoint& ep, WallContext& ctx, int src,
                   int dst, const proto::ExchangeMsg& msg) {
  {
    std::lock_guard<std::mutex> lock(ctx.acct_mu);
    ctx.acct.record_exchange(src, dst, msg);
  }
  send_packed(ep, src, dst, proto::pack(msg));
}

// Map a state-machine emission onto the transport and record it.
void emit(net::ReliableEndpoint& ep, WallContext& ctx, int src, Outgoing o) {
  {
    std::lock_guard<std::mutex> lock(ctx.acct_mu);
    ctx.acct.record(src, o.dst, o.msg.type, o.msg.body.size());
  }
  send_packed(ep, src, o.dst, std::move(o.msg), o.reliable);
}

// Decode a received wire body. The transport CRC-verified it, so a decode
// failure is a local protocol bug, not damage — crash loudly.
AnyMsg decode_trusted(const net::Message& m) {
  std::optional<AnyMsg> msg = proto::decode_any(m.payload);
  PDW_CHECK(msg.has_value()) << " undecodable wire message type " << m.type;
  return std::move(*msg);
}

}  // namespace

std::vector<proto::PictureMeta> picture_metas(const RootSplitter& root) {
  std::vector<proto::PictureMeta> metas(size_t(root.picture_count()));
  for (size_t i = 0; i < metas.size(); ++i)
    metas[i].has_gop_header = root.span(int(i)).has_gop_header;
  return metas;
}

// --- SplitterBody ----------------------------------------------------------

SplitterBody::SplitterBody(const wall::PartitionTable& t, int node_id,
                           uint8_t stream_id, bool adaptive_enabled,
                           const StreamInfo& info,
                           obs::MetricsRegistry& metrics)
    : table(t),
      node(node_id),
      stream(stream_id),
      adaptive(adaptive_enabled),
      splitter(t.geometry(0), node_id) {
  splitter.set_stream_info(info);
  inst.resolve(metrics, node, stream);
}

SplitResult SplitterBody::split(const proto::PictureMsg& pic,
                                const std::function<void()>& between_parts) {
  const uint32_t i = pic.pic_index;
  PDW_CHECK(table.has_epoch(pic.epoch))
      << "picture " << i << " stamped with unknown epoch " << pic.epoch;
  SplitResult result;
  {
    PDW_TRACE_SPAN(obs::span::kSplitPic, node, i);
    WallTimer t;
    result = splitter.split(pic.coded, i, table.geometry(pic.epoch),
                            between_parts);
    inst.split_ns->observe(uint64_t(t.seconds() * 1e9));
  }
  if (result.status.ok()) inst.pictures_split->add();
  return result;
}

std::optional<proto::Packed> SplitterBody::cost_report(
    uint32_t i, const SplitStats& stats) const {
  if (!adaptive) return std::nullopt;
  proto::CostReportMsg cr;
  cr.pic_index = i;
  cr.stream = stream;
  cr.col_cost = stats.cost_col;
  cr.row_cost = stats.cost_row;
  return proto::pack(cr);
}

proto::Packed SplitterBody::pack(const proto::PictureMsg& pic,
                                 const SplitResult& result, int tile) {
  const SubPicture& sub = result.subpictures[size_t(tile)];
  const uint16_t t = uint16_t(tile);
  proto::Packed p =
      proto::pack_sp(pic.pic_index, t, stream, sub, result.mei[t], pic.epoch);
  inst.sp_bytes_sent->add(p.body.size());
  return p;
}

// --- TileDecoderSet --------------------------------------------------------

TileDecoderSet::TileDecoderSet(const wall::PartitionTable& t,
                               const StreamInfo& si, HaloPolicy halo_policy,
                               int node_id, uint8_t stream_id,
                               obs::MetricsRegistry& metrics)
    : table(t),
      info(si),
      policy(halo_policy),
      node(node_id),
      stream(stream_id) {
  inst.resolve(metrics, node, stream);
}

TileDecoder& TileDecoderSet::at(int tile, std::optional<uint32_t> epoch) {
  const wall::TileGeometry& geo = table.geometry(epoch.value_or(0));
  auto& slot = decs[tile];
  if (!slot)
    slot = std::make_unique<TileDecoder>(geo, tile, info, policy, node);
  else if (epoch && slot->epoch() != *epoch)
    slot->rebase(geo);
  return *slot;
}

double TileDecoderSet::serve(int tile, uint32_t i, const proto::SpMsg& sp,
                             const RouteFn& route) {
  PDW_TRACE_SPAN(obs::span::kServeSp, node, i);
  WallTimer t;
  TileDecoder& d = at(tile, sp.epoch);
  subs[tile] = SubPicture::deserialize(sp.subpicture);
  const PicInfo& pic = subs[tile].info;

  std::map<int, proto::ExchangeMsg> outgoing;  // by destination tile
  for (const MeiInstruction& instr : sp.mei) {
    if (instr.op == MeiOp::kConceal) {
      // Damaged-slice macroblock: stage for the decode phase (the peer
      // field carries fill bytes, not a tile).
      d.stage_conceal(instr);
      continue;
    }
    if (instr.op != MeiOp::kSend) continue;
    proto::ExchangeEntry e;
    e.px = d.extract_for_send(pic, instr, &e.tainted);
    e.instr = instr;
    e.instr.op = MeiOp::kRecv;
    e.instr.peer = uint16_t(tile);
    proto::ExchangeMsg& m = outgoing[int(instr.peer)];
    if (m.entries.empty()) {
      m.pic_index = i;
      m.src_tile = uint16_t(tile);
      m.dst_tile = instr.peer;
      m.stream = stream;
    }
    m.entries.push_back(std::move(e));
  }
  for (auto& [peer, m] : outgoing) {
    const size_t bytes = proto::exchange_msg_wire_bytes(m.entries.size());
    if (route(peer, m)) inst.exchange_bytes_sent->add(bytes);
  }
  const double seconds = t.seconds();
  inst.serve_ns->observe(uint64_t(seconds * 1e9));
  return seconds;
}

void TileDecoderSet::add_halos(int tile, uint32_t epoch,
                               const proto::ExchangeMsg& m) {
  TileDecoder& d = at(tile, epoch);
  for (const proto::ExchangeEntry& e : m.entries)
    d.add_halo_mb(e.instr, e.px, e.tainted);
}

double TileDecoderSet::decode(int tile, uint32_t i,
                              const std::vector<proto::ExchangeMsg>& exchanges,
                              const TileDecoder::DisplayFn& display,
                              const std::function<void()>& between_bands) {
  TileDecoder& d = at(tile);
  for (const proto::ExchangeMsg& m : exchanges) {
    inst.exchange_bytes_recv->add(
        proto::exchange_msg_wire_bytes(m.entries.size()));
    for (const proto::ExchangeEntry& e : m.entries)
      d.add_halo_mb(e.instr, e.px, e.tainted);
  }
  double seconds = 0;
  {
    PDW_TRACE_SPAN(obs::span::kDecodeSp, node, i);
    WallTimer t;
    d.decode(subs.at(tile), display, between_bands);
    seconds = t.seconds();
  }
  inst.decode_ns->observe(uint64_t(seconds * 1e9));
  inst.pictures_decoded->add();
  inst.concealed_mbs->add(uint64_t(d.concealed_mbs_last_picture()));
  return seconds;
}

void TileDecoderSet::skip(int tile, uint32_t i,
                          const TileDecoder::DisplayFn& display) {
  inst.pictures_skipped->add();
  at(tile).skip_picture(i, display);
}

void TileDecoderSet::flush(int tile, const TileDecoder::DisplayFn& display) {
  const auto it = decs.find(tile);
  if (it != decs.end()) it->second->flush(display);
}


// --- WallContext -----------------------------------------------------------

WallContext::WallContext(const wall::TileGeometry& geometry, int k,
                         std::span<const uint8_t> es,
                         const WallOptions& options,
                         const TileDisplayFn& display)
    : geo(geometry),
      topo{k, geometry.tiles()},
      root(es),
      opts(options),
      on_display(display),
      ep_stats(size_t(topo.nodes())),
      done(size_t(topo.nodes())) {
  PDW_CHECK_GE(k, 1);
  acct.reset(topo.nodes());
  if (opts.per_picture_exchange) acct.per_picture_tiles = topo.tiles;
}

void WallContext::wait_done(int node) const {
  while (!done[size_t(node)].load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

namespace {

// --- Root host (Table 3, root) + health monitor ----------------------------

struct RootHost {
  net::FabricBackend& fabric;
  WallContext& ctx;
  const proto::Topology& topo;
  const WallTimer& timer;
  net::ReliableEndpoint ep;
  proto::RootNode node;
  obs::RootInstruments inst;

  RootHost(net::FabricBackend& f, WallContext& c,
           const proto::RootNode::Options& ro)
      : fabric(f),
        ctx(c),
        topo(c.topo),
        timer(c.timer),
        ep(&f, c.topo.root(),
           with_metrics(c.opts.protocol.reliable, c.opts.metrics)),
        node(c.topo, c.geo, ro, picture_metas(c.root), c.timer.seconds()) {
    node.set_metrics(c.opts.metrics);
    inst.resolve(obs::registry_or_global(c.opts.metrics), topo.root(), 0);
  }

  void apply(proto::RootNode::Step step) {
    for (const proto::RootNode::Death& d : step.deaths) {
      fabric.kill(d.node);  // fence: nothing more in or out of the corpse
      ep.forget_peer(d.node);
      std::lock_guard<std::mutex> lock(ctx.mu);
      ctx.recoveries.push_back(RecoveryEvent{
          timer.seconds(), d.dead_tile, d.adopter_tile, d.resync_pic, 0});
    }
    if (!step.deaths.empty())
      obs::FlightRecorder::global().dump("death_declared");
    for (Outgoing& o : step.send) emit(ep, ctx, topo.root(), std::move(o));
  }

  void pump(double timeout) {
    net::Message m;
    if (ep.recv(&m, timeout) == net::ReliableEndpoint::Status::kMessage) {
      obs::FlightRecorder::global().note_wire(false, topo.root(), m.src,
                                              m.type, m.seq, m.aux,
                                              m.payload.size());
      apply(node.on_message(m.src, decode_trusted(m), timer.seconds()));
    }
    ep.take_abandoned();  // sends to nodes that died mid-broadcast
    // Hard transport errors (socket backend: ICMP port-unreachable — the
    // network telling us a peer process is gone). The in-process fabric
    // never reports any.
    for (int n : fabric.take_peer_errors())
      apply(node.on_transport_suspect(n, timer.seconds()));
    apply(node.on_tick(timer.seconds()));
  }

  void run() {
    const RootSplitter& root = ctx.root;
    while (!node.stream_done()) {
      const uint32_t pic = node.cursor();
      const auto span = root.picture(int(pic));
      {
        PDW_TRACE_SPAN(obs::span::kGoAheadWait, topo.root(), pic);
        WallTimer wait;
        while (!node.may_dispatch()) pump(0.005);
        inst.go_ahead_wait_ns->observe(uint64_t(wait.seconds() * 1e9));
      }
      std::vector<Outgoing> out;
      {
        // "Copy P to send buf" — the one copy: the ES span is packed
        // straight into a pooled wire body that the splitter's sub-pictures
        // then view. A rebalance decided here prepends its PartitionUpdate
        // broadcast.
        PDW_TRACE_SPAN(obs::span::kCopyPic, topo.root(), pic);
        out = node.dispatch(span);
      }
      for (Outgoing& o : out) emit(ep, ctx, topo.root(), std::move(o));
      apply(node.on_tick(timer.seconds()));
    }
    for (Outgoing& o : node.end_of_stream())
      emit(ep, ctx, topo.root(), std::move(o));
    // Phase B: keep the health monitor (and our transport) alive until every
    // decoder is done — a decoder blocked on a dead peer is unblocked by a
    // death notice that only this loop can produce. Exit only once every
    // decoder is accounted for (finished or declared dead).
    while (!ctx.root_stop.load() || !node.all_reported()) pump(0.01);
  }
};

// --- Splitter host (Table 3, splitter) -------------------------------------

struct SplitterHost {
  net::FabricBackend& fabric;
  WallContext& ctx;
  const proto::Topology& topo;
  int self;
  net::ReliableEndpoint ep;
  proto::SplitterNode node;
  wall::PartitionTable table;  // epochs learned from the root's updates
  SplitterBody body;
  obs::Gauge* queue_depth = nullptr;

  SplitterHost(net::FabricBackend& f, WallContext& c, int node_id)
      : fabric(f),
        ctx(c),
        topo(c.topo),
        self(node_id),
        ep(&f, node_id,
           with_metrics(c.opts.protocol.reliable, c.opts.metrics)),
        node(c.topo, node_id - c.topo.splitter(0)),
        table(c.geo),
        body(table, node_id, /*stream=*/0, c.opts.adaptive.enabled,
             c.root.stream_info(), obs::registry_or_global(c.opts.metrics)) {
    node.set_metrics(c.opts.metrics);
    obs::MetricsRegistry& r = obs::registry_or_global(c.opts.metrics);
    queue_depth = &r.gauge(obs::family::kQueueDepth, obs::Labels{self, 0});
  }

  void apply(proto::SplitterNode::Step step) {
    for (int n : step.forget) ep.forget_peer(n);
    if (!step.forget.empty())
      obs::FlightRecorder::global().dump("death_notice");
    if (step.partition)
      table.install_wire(step.partition->epoch,
                         step.partition->apply_from_pic,
                         step.partition->col_cuts_mb,
                         step.partition->row_cuts_mb);
    for (Outgoing& o : step.send) emit(ep, ctx, self, std::move(o));
  }

  void handle(net::Message& m) {
    if (m.bulk) fabric.post_receive(self);  // recycle the receive buffer
    obs::FlightRecorder::global().note_wire(false, self, m.src, m.type,
                                            m.seq, m.aux, m.payload.size());
    apply(node.on_message(m.src, decode_trusted(m), 0.0));
  }

  // Pump the transport once; false once the fabric shut down or this node
  // is dead.
  bool pump(double timeout) {
    net::Message m;
    const auto st = ep.recv(&m, timeout);
    if (st == net::ReliableEndpoint::Status::kShutdown ||
        st == net::ReliableEndpoint::Status::kDead)
      return false;
    if (st == net::ReliableEndpoint::Status::kMessage) handle(m);
    for (const net::AbandonedSend& ab : ep.take_abandoned())
      apply(node.on_send_failure(proto::SendFailure{
          ab.dst, proto::MsgType(ab.type), ab.seq, ab.aux}));
    return true;
  }

  // Stops early when the fabric shut down or this node was killed. run_wall
  // shuts the fabrics down only once every decoder is done, so what is then
  // left unreceived (an end of stream still being retransmitted) needs no
  // work; spinning on it would never end.
  void run() {
    while (true) {
      while (!node.has_picture() && !node.ended())
        if (!pump(0.02)) return;
      queue_depth->set(node.queue_depth());
      if (!node.has_picture()) break;
      Outgoing go_ahead;
      proto::PictureMsg pic = node.pop_picture(&go_ahead);
      emit(ep, ctx, self, std::move(go_ahead));
      const uint32_t i = pic.pic_index;
      // Decoders ack the previous picture and the root sends the next one
      // while this one splits: t-ack them between slice parts.
      const SplitResult result = body.split(pic, [this] { ep.poll(); });
      if (std::optional<proto::Packed> cr = body.cost_report(i, result.stats))
        emit(ep, ctx, self, Outgoing{topo.root(), true, std::move(*cr)});

      // ANID gating: wait for the previous picture's ack from every live
      // decoder (redirection made them land here).
      {
        PDW_TRACE_SPAN(obs::span::kAnidWait, self, i);
        while (!node.prev_acked(i))
          if (!pump(0.02)) return;
      }

      if (!result.status.ok()) {
        // Undecodable headers: nobody can split or decode the picture.
        apply({node.skip_picture(i), {}, {}});
        continue;
      }
      PDW_TRACE_SPAN(obs::span::kRouteSp, self, i);
      for (const proto::SplitterNode::SpRoute& rt : node.routes(i)) {
        proto::Packed sp = body.pack(pic, result, rt.tile);
        emit(ep, ctx, self, Outgoing{rt.dst_node, true, std::move(sp)});
      }
    }
  }
};

// --- Decoder host (Table 3, decoder) ---------------------------------------

struct DecoderHost {
  net::FabricBackend& fabric;
  WallContext& ctx;
  const proto::Topology& topo;
  const WallTimer& timer;
  int self;
  int home_tile;
  double heartbeat_interval_s;
  net::ReliableEndpoint ep;
  proto::DecoderNode node;
  wall::PartitionTable table;  // epochs learned from the root's updates
  TileDecoderSet decs;
  bool gone = false;  // killed (or fabric torn down) — exit silently
  obs::Gauge* queue_depth = nullptr;

  DecoderHost(net::FabricBackend& f, WallContext& c, int node_id,
              const proto::DecoderNode::Options& dopts)
      : fabric(f),
        ctx(c),
        topo(c.topo),
        timer(c.timer),
        self(node_id),
        home_tile(c.topo.tile_of(node_id)),
        heartbeat_interval_s(dopts.heartbeat_interval_s),
        ep(&f, node_id,
           with_metrics(c.opts.protocol.reliable, c.opts.metrics)),
        node(c.topo, home_tile, dopts),
        table(c.geo),
        decs(table, c.root.stream_info(), HaloPolicy::kConceal, node_id,
             /*stream=*/0, obs::registry_or_global(c.opts.metrics)) {
    node.set_metrics(c.opts.metrics);
    obs::MetricsRegistry& r = obs::registry_or_global(c.opts.metrics);
    queue_depth = &r.gauge(obs::family::kQueueDepth, obs::Labels{self, 0});
  }

  TileDecoder::DisplayFn display_fn(int tile) {
    return TileDecoder::DisplayFn(
        [this, tile](const mpeg2::TileFrame& tf, const TileDisplayInfo& di) {
          if (di.degraded)
            ctx.degraded.fetch_add(1, std::memory_order_relaxed);
          if (!ctx.on_display) return;
          std::lock_guard<std::mutex> lock(ctx.display_mu);
          ctx.on_display(tile, tf, di);
        });
  }

  void apply(proto::DecoderNode::Step step) {
    for (int n : step.forget) ep.forget_peer(n);
    if (!step.forget.empty())
      obs::FlightRecorder::global().dump("death_notice");
    if (step.partition)
      table.install_wire(step.partition->epoch,
                         step.partition->apply_from_pic,
                         step.partition->col_cuts_mb,
                         step.partition->row_cuts_mb);
    if (step.adopt_tile.has_value()) {
      // Headroom for the adopted tile's second sub-picture stream.
      fabric.post_receive(self);
      fabric.post_receive(self);
    }
    for (Outgoing& o : step.send) emit(ep, ctx, self, std::move(o));
  }

  // Pump the transport once; returns false when this node is dead.
  bool pump(double timeout) {
    net::Message m;
    switch (ep.recv(&m, timeout)) {
      case net::ReliableEndpoint::Status::kDead:
      case net::ReliableEndpoint::Status::kShutdown:
        gone = true;
        return false;
      case net::ReliableEndpoint::Status::kTimeout:
        break;
      case net::ReliableEndpoint::Status::kMessage:
        if (m.bulk) fabric.post_receive(self);  // recycle the buffer
        obs::FlightRecorder::global().note_wire(
            false, self, m.src, m.type, m.seq, m.aux, m.payload.size());
        apply(node.on_message(m.src, decode_trusted(m), timer.seconds()));
        break;
    }
    ep.take_abandoned();
    for (Outgoing& o : node.on_tick(timer.seconds()))
      emit(ep, ctx, self, std::move(o));  // heartbeat when due
    return true;
  }

  // Phase 1 for one tile: wait for the sub-picture, then serve it.
  void serve(const proto::DecoderNode::OwnedTile& ot, uint32_t i) {
    proto::DecoderNode::SpState st;
    {
      PDW_TRACE_SPAN(obs::span::kRecvSp, self, i);
      while ((st = node.poll_sp(ot.tile, i)) ==
                 proto::DecoderNode::SpState::kPending &&
             pump(heartbeat_interval_s)) {
      }
    }
    if (gone || st != proto::DecoderNode::SpState::kReady) return;
    // poll_sp held the sub-picture until its epoch's update arrived, so the
    // geometry is guaranteed present.
    const proto::SpMsg& sp = node.sp(ot.tile);
    decs.serve(ot.tile, i, sp, [this, &sp](int peer, proto::ExchangeMsg& m) {
      const uint32_t pic = m.pic_index;
      const proto::DecoderNode::ExchangeRoute rt =
          node.route_exchange(peer, pic);
      switch (rt.kind) {
        case proto::DecoderNode::ExchangeRoute::Kind::kDrop:
          return false;  // nobody serves that picture
        case proto::DecoderNode::ExchangeRoute::Kind::kLocal:
          // Tiles hosted on this very node exchange halos in memory.
          for (const proto::DecoderNode::OwnedTile& ot2 : node.owned())
            if (ot2.tile == peer && node.tile_active(ot2, pic))
              decs.add_halos(peer, sp.epoch, m);
          return false;
        case proto::DecoderNode::ExchangeRoute::Kind::kRemote:
          emit_exchange(ep, ctx, self, rt.dst_node, m);
          return true;
      }
      return false;
    });
  }

  // Phase 2 for one tile: wait for the halos it still expects, then decode.
  void work(const proto::DecoderNode::OwnedTile& ot, uint32_t i) {
    if (!node.have_sp(ot.tile)) {
      if (node.skipped(ot.tile)) {
        ctx.skipped.fetch_add(1, std::memory_order_relaxed);
        decs.skip(ot.tile, i, display_fn(ot.tile));
      }
      return;
    }
    {
      PDW_TRACE_SPAN(obs::span::kWaitHalo, self, i);
      while (!node.halos_complete(ot.tile, i) && pump(heartbeat_interval_s)) {
      }
    }
    if (gone) return;
    // Peers' messages landing during the decode (the next sub-picture, an
    // exchange) are t-acked between bands, before their senders' RTO.
    decs.decode(ot.tile, i, node.take_exchanges(ot.tile, i),
                display_fn(ot.tile), [this] { ep.poll(); });
    if (ot.tile != home_tile && i == ot.active_from) {
      // First adopted picture decoded: stamp the recovery latency.
      std::lock_guard<std::mutex> lock(ctx.mu);
      for (RecoveryEvent& ev : ctx.recoveries)
        if (ev.dead_tile == ot.tile && ev.resync_time_s == 0)
          ev.resync_time_s = timer.seconds();
    }
  }

  void run(uint32_t total_pictures) {
    for (uint32_t i = 0; i < total_pictures && !gone; ++i) {
      // Phase 1 first for every owned tile, so no owned tile's decode can
      // starve another tile hosted on this same node. Indexed loops:
      // adoption may grow owned() mid-picture.
      for (size_t x = 0; x < node.owned().size() && !gone; ++x) {
        const proto::DecoderNode::OwnedTile ot = node.owned()[x];
        if (node.tile_active(ot, i)) serve(ot, i);
      }
      if (gone) break;
      // Every owned tile's sub-picture is in hand: ack to the splitter
      // owning the NEXT picture (ANID redirection) before decoding, as in
      // Table 3, so that picture arrives while this one decodes.
      {
        PDW_TRACE_SPAN(obs::span::kAckPic, self, i);
        apply({node.ack_picture(i), {}, {}, {}});
      }
      for (size_t x = 0; x < node.owned().size() && !gone; ++x) {
        const proto::DecoderNode::OwnedTile ot = node.owned()[x];
        if (node.tile_active(ot, i)) work(ot, i);
      }
      if (gone) break;
      node.finish_picture(i);
      queue_depth->set(node.pending_sps());
    }

    if (!gone) {
      for (const proto::DecoderNode::OwnedTile& ot : node.owned())
        decs.flush(ot.tile, display_fn(ot.tile));
      apply({node.finished(), {}, {}, {}});
    }
  }

  // Heartbeat until the finished notice is acked (the root received it and
  // exempted us from monitoring); then fall silent so the fabric can reach
  // quiescence for an orderly teardown.
  void heartbeat_until_acked() {
    if (ep.unacked() > 0)
      for (Outgoing& o : node.on_tick(timer.seconds()))
        emit(ep, ctx, self, std::move(o));
  }
};

// The one tail of every host, once its role's work is over: raise the
// node's done flag, then stay resident until the fabric shuts down (or the
// node is dead), retransmitting this node's unacked tail and t-acking
// peers' retransmissions — a peer whose ack to us was lost would otherwise
// retry into a dead mailbox and falsely abandon. `pass` runs after every
// receive, with the message if one arrived.
template <class Pass>
void stay_resident(WallContext& ctx, net::ReliableEndpoint& ep, int node,
                   const Pass& pass) {
  ctx.done[size_t(node)].store(true, std::memory_order_release);
  while (true) {
    net::Message m;
    const auto st = ep.recv(&m, 0.02);
    if (st == net::ReliableEndpoint::Status::kShutdown ||
        st == net::ReliableEndpoint::Status::kDead)
      break;
    ep.take_abandoned();
    pass(st == net::ReliableEndpoint::Status::kMessage ? &m : nullptr);
  }
  ctx.ep_stats[size_t(node)] = ep.stats();
}

}  // namespace

void run_node(WallContext& ctx, net::FabricBackend& fabric, int node) {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, ctx.topo.nodes());
  const ProtocolConfig& cfg = ctx.opts.protocol;
  if (node == ctx.topo.root()) {
    proto::RootNode::Options ro;
    ro.heartbeat_timeout_s = cfg.heartbeat_timeout_s;
    ro.recovery = ctx.opts.recovery;
    ro.adaptive = ctx.opts.adaptive;
    RootHost host(fabric, ctx, ro);
    host.run();
    // Every decoder has reported, so what still arrives needs no answer.
    stay_resident(ctx, host.ep, node, [](net::Message*) {});
  } else if (!ctx.topo.is_decoder(node)) {
    SplitterHost host(fabric, ctx, node);
    host.run();
    // Ack decoders' final picture acks and absorb stragglers.
    stay_resident(ctx, host.ep, node, [&](net::Message* m) {
      if (m) host.handle(*m);
    });
  } else {
    proto::DecoderNode::Options dopts;
    dopts.heartbeat_interval_s = cfg.heartbeat_interval_s;
    dopts.total_pictures = uint32_t(ctx.root.picture_count());
    DecoderHost host(fabric, ctx, node, dopts);
    host.run(dopts.total_pictures);
    stay_resident(ctx, host.ep, node,
                  [&](net::Message*) { host.heartbeat_until_acked(); });
  }
}

}  // namespace pdw::core
