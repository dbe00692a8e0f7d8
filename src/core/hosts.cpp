#include "core/hosts.h"

#include <algorithm>
#include <optional>
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
  m.stream = p.stream;
  m.bulk = p.bulk;
  m.payload = std::move(p.body);
  if (reliable)
    ep.send(dst, std::move(m));
  else
    ep.send_unreliable(dst, std::move(m));
}

// Exchanges are built by the host (they carry extracted pixels), so they
// are recorded with their typed form to feed the per-picture matrices.
void emit_exchange(net::ReliableEndpoint& ep, HostShared& shared, int src,
                   int dst, const proto::ExchangeMsg& msg) {
  {
    std::lock_guard<std::mutex> lock(shared.acct_mu);
    shared.acct.record_exchange(src, dst, msg);
  }
  send_packed(ep, src, dst, proto::pack(msg));
}

}  // namespace

void emit(net::ReliableEndpoint& ep, HostShared& shared, int src, Outgoing o) {
  {
    std::lock_guard<std::mutex> lock(shared.acct_mu);
    shared.acct.record(src, o.dst, o.msg.type, o.msg.body.size());
  }
  send_packed(ep, src, o.dst, std::move(o.msg), o.reliable);
}

AnyMsg decode_trusted(const net::Message& m) {
  std::optional<AnyMsg> msg = proto::decode_any(m.payload);
  PDW_CHECK(msg.has_value()) << " undecodable wire message type " << m.type;
  return std::move(*msg);
}

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

SplitResult SplitterBody::split(const proto::PictureMsg& pic) {
  const uint32_t i = pic.pic_index;
  PDW_CHECK(table.has_epoch(pic.epoch))
      << "picture " << i << " stamped with unknown epoch " << pic.epoch;
  SplitResult result;
  {
    PDW_TRACE_SPAN(obs::span::kSplitPic, node, i);
    WallTimer t;
    result = splitter.split(pic.coded, i, table.geometry(pic.epoch));
    if (inst.split_ns) inst.split_ns->observe(uint64_t(t.seconds() * 1e9));
  }
  if (result.status.ok() && inst.pictures_split) inst.pictures_split->add();
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
  if (inst.sp_bytes_sent) inst.sp_bytes_sent->add(p.body.size());
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
    if (route(peer, m) && inst.exchange_bytes_sent)
      inst.exchange_bytes_sent->add(bytes);
  }
  const double seconds = t.seconds();
  if (inst.serve_ns) inst.serve_ns->observe(uint64_t(seconds * 1e9));
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
                              const TileDecoder::DisplayFn& display) {
  TileDecoder& d = at(tile);
  for (const proto::ExchangeMsg& m : exchanges) {
    if (inst.exchange_bytes_recv)
      inst.exchange_bytes_recv->add(
          proto::exchange_msg_wire_bytes(m.entries.size()));
    for (const proto::ExchangeEntry& e : m.entries)
      d.add_halo_mb(e.instr, e.px, e.tainted);
  }
  double seconds = 0;
  {
    PDW_TRACE_SPAN(obs::span::kDecodeSp, node, i);
    WallTimer t;
    d.decode(subs.at(tile), display);
    seconds = t.seconds();
  }
  if (inst.decode_ns) inst.decode_ns->observe(uint64_t(seconds * 1e9));
  if (inst.pictures_decoded) inst.pictures_decoded->add();
  if (inst.concealed_mbs)
    inst.concealed_mbs->add(uint64_t(d.concealed_mbs_last_picture()));
  return seconds;
}

void TileDecoderSet::skip(int tile, uint32_t i,
                          const TileDecoder::DisplayFn& display) {
  if (inst.pictures_skipped) inst.pictures_skipped->add();
  at(tile).skip_picture(i, display);
}

void TileDecoderSet::flush(int tile, const TileDecoder::DisplayFn& display) {
  const auto it = decs.find(tile);
  if (it != decs.end()) it->second->flush(display);
}

// --- RootHost --------------------------------------------------------------

RootHost::RootHost(net::FabricBackend* f, HostShared* sh, const WallTimer* t,
                   const RootSplitter* r, const proto::Topology& tp,
                   const net::ReliableConfig& rc,
                   const proto::RootNode::Options& ro,
                   obs::MetricsRegistry* metrics)
    : fabric(*f),
      shared(*sh),
      timer(*t),
      root(*r),
      topo(tp),
      ep(f, tp.root(), with_metrics(rc, metrics)),
      node(tp, ro, picture_metas(*r), t->seconds()) {
  node.set_metrics(metrics);
  inst.resolve(obs::registry_or_global(metrics), tp.root(), 0);
}

void RootHost::apply(proto::RootNode::Step step) {
  for (const proto::RootNode::Death& d : step.deaths) {
    fabric.kill(d.node);  // fence: nothing more in or out of the corpse
    ep.forget_peer(d.node);
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.recoveries.push_back(RecoveryEvent{
        timer.seconds(), d.dead_tile, d.adopter_tile, d.resync_pic, 0});
  }
  if (!step.deaths.empty())
    obs::FlightRecorder::global().dump("death_declared");
  for (Outgoing& o : step.send) emit(ep, shared, topo.root(), std::move(o));
}

void RootHost::pump(double timeout) {
  net::Message m;
  if (ep.recv(&m, timeout) == net::ReliableEndpoint::Status::kMessage) {
    obs::FlightRecorder::global().note_wire(false, topo.root(), m.src, m.type,
                                            m.seq, m.aux, m.payload.size());
    apply(node.on_message(m.src, decode_trusted(m), timer.seconds()));
  }
  ep.take_abandoned();  // sends to nodes that died mid-broadcast
  // Hard transport errors (socket backend: ICMP port-unreachable — the
  // network telling us a peer process is gone). The in-process fabric never
  // reports any.
  for (int n : fabric.take_peer_errors())
    apply(node.on_transport_suspect(n, timer.seconds()));
  apply(node.on_tick(timer.seconds()));
}

void RootHost::run() {
  while (!node.stream_done()) {
    const uint32_t pic = node.cursor();
    const auto span = root.picture(int(pic));
    {
      PDW_TRACE_SPAN(obs::span::kGoAheadWait, topo.root(), pic);
      WallTimer wait;
      while (!node.may_dispatch()) pump(0.005);
      if (inst.go_ahead_wait_ns)
        inst.go_ahead_wait_ns->observe(uint64_t(wait.seconds() * 1e9));
    }
    std::vector<Outgoing> out;
    {
      // "Copy P to send buf" — the one copy: the ES span is packed straight
      // into a pooled wire body that the splitter's sub-pictures then view.
      // A rebalance decided here prepends its PartitionUpdate broadcast.
      PDW_TRACE_SPAN(obs::span::kCopyPic, topo.root(), pic);
      out = node.dispatch(span);
    }
    for (Outgoing& o : out) emit(ep, shared, topo.root(), std::move(o));
    apply(node.on_tick(timer.seconds()));
  }
  for (Outgoing& o : node.end_of_stream())
    emit(ep, shared, topo.root(), std::move(o));
  // Phase B: keep the health monitor (and our transport) alive until every
  // decoder thread has been joined — a decoder blocked on a dead peer is
  // unblocked by a death notice that only this loop can produce. Exit only
  // once every decoder is accounted for (finished or declared dead).
  while (!shared.root_stop.load() || !node.all_reported()) pump(0.01);
  shared.ep_stats[size_t(topo.root())] = ep.stats();
}

// --- SplitterHost ----------------------------------------------------------

SplitterHost::SplitterHost(net::FabricBackend* f, HostShared* sh,
                           const proto::Topology& tp, int s,
                           const net::ReliableConfig& rc,
                           const wall::TileGeometry& geo,
                           const StreamInfo& info,
                           obs::MetricsRegistry* metrics,
                           bool adaptive_enabled)
    : fabric(*f),
      shared(*sh),
      topo(tp),
      index(s),
      ep(f, tp.splitter(s), with_metrics(rc, metrics)),
      node(tp, s),
      table(geo),
      body(table, tp.splitter(s), /*stream=*/0, adaptive_enabled, info,
           obs::registry_or_global(metrics)) {
  node.set_metrics(metrics);
  obs::MetricsRegistry& r = obs::registry_or_global(metrics);
  queue_depth = &r.gauge(obs::family::kQueueDepth, obs::Labels{self(), 0});
}

void SplitterHost::apply(proto::SplitterNode::Step step) {
  for (int n : step.forget) ep.forget_peer(n);
  if (!step.forget.empty())
    obs::FlightRecorder::global().dump("death_notice");
  if (step.partition)
    table.install_wire(step.partition->epoch, step.partition->apply_from_pic,
                       step.partition->col_cuts_mb,
                       step.partition->row_cuts_mb);
  for (Outgoing& o : step.send) emit(ep, shared, self(), std::move(o));
}

void SplitterHost::handle(net::Message& m) {
  if (m.bulk) fabric.post_receive(self());  // recycle the receive buffer
  obs::FlightRecorder::global().note_wire(false, self(), m.src, m.type, m.seq,
                                          m.aux, m.payload.size());
  apply(node.on_message(m.src, decode_trusted(m), 0.0));
}

void SplitterHost::pump(double timeout) {
  net::Message m;
  if (ep.recv(&m, timeout) == net::ReliableEndpoint::Status::kMessage)
    handle(m);
  for (const net::AbandonedSend& ab : ep.take_abandoned())
    apply(node.on_send_failure(proto::SendFailure{
        ab.dst, proto::MsgType(ab.type), ab.seq, ab.aux}));
}

void SplitterHost::run() {
  while (true) {
    while (!node.has_picture() && !node.ended()) pump(0.02);
    queue_depth->set(node.queue_depth());
    if (!node.has_picture()) break;
    Outgoing go_ahead;
    proto::PictureMsg pic = node.pop_picture(&go_ahead);
    emit(ep, shared, self(), std::move(go_ahead));
    const uint32_t i = pic.pic_index;
    const SplitResult result = body.split(pic);
    if (std::optional<proto::Packed> cr = body.cost_report(i, result.stats))
      emit(ep, shared, self(), Outgoing{topo.root(), true, std::move(*cr)});

    // ANID gating: wait for the previous picture's ack from every live
    // decoder (redirection made them land here).
    {
      PDW_TRACE_SPAN(obs::span::kAnidWait, self(), i);
      while (!node.prev_acked(i)) pump(0.02);
    }

    if (!result.status.ok()) {
      // Undecodable headers: nobody can split or decode the picture.
      apply({node.skip_picture(i), {}});
      continue;
    }
    PDW_TRACE_SPAN(obs::span::kRouteSp, self(), i);
    for (const proto::SplitterNode::SpRoute& rt : node.routes(i)) {
      proto::Packed sp = body.pack(pic, result, rt.tile);
      emit(ep, shared, self(), Outgoing{rt.dst_node, true, std::move(sp)});
    }
  }

  // Drain: ack decoders' final picture acks and absorb stragglers until
  // the main thread shuts the fabric down.
  shared.splitters_done.fetch_add(1, std::memory_order_release);
  while (true) {
    net::Message m;
    const auto st = ep.recv(&m, 0.02);
    if (st == net::ReliableEndpoint::Status::kShutdown ||
        st == net::ReliableEndpoint::Status::kDead)
      break;
    if (st == net::ReliableEndpoint::Status::kMessage) handle(m);
    ep.take_abandoned();
  }
  shared.ep_stats[size_t(self())] = ep.stats();
}

// --- DecoderHost -----------------------------------------------------------

DecoderHost::DecoderHost(net::FabricBackend* f, HostShared* sh,
                         const WallTimer* t, const proto::Topology& tp,
                         int tile, const net::ReliableConfig& rc,
                         const wall::TileGeometry& g, const StreamInfo& si,
                         const TileDisplayFn& display, std::mutex* dmu,
                         const proto::DecoderNode::Options& dopts,
                         obs::MetricsRegistry* metrics)
    : fabric(*f),
      shared(*sh),
      timer(*t),
      topo(tp),
      home_tile(tile),
      on_display(display),
      display_mu(*dmu),
      heartbeat_interval_s(dopts.heartbeat_interval_s),
      ep(f, tp.decoder(tile), with_metrics(rc, metrics)),
      node(tp, tile, dopts),
      table(g),
      decs(table, si, HaloPolicy::kConceal, tp.decoder(tile), /*stream=*/0,
           obs::registry_or_global(metrics)) {
  node.set_metrics(metrics);
  obs::MetricsRegistry& r = obs::registry_or_global(metrics);
  queue_depth = &r.gauge(obs::family::kQueueDepth, obs::Labels{self(), 0});
}

TileDecoder::DisplayFn DecoderHost::display_fn(int tile) {
  return TileDecoder::DisplayFn(
      [this, tile](const mpeg2::TileFrame& tf, const TileDisplayInfo& di) {
        if (di.degraded)
          shared.degraded.fetch_add(1, std::memory_order_relaxed);
        if (!on_display) return;
        std::lock_guard<std::mutex> lock(display_mu);
        on_display(tile, tf, di);
      });
}

void DecoderHost::apply(proto::DecoderNode::Step step) {
  for (int n : step.forget) ep.forget_peer(n);
  if (!step.forget.empty())
    obs::FlightRecorder::global().dump("death_notice");
  if (step.partition)
    table.install_wire(step.partition->epoch, step.partition->apply_from_pic,
                       step.partition->col_cuts_mb,
                       step.partition->row_cuts_mb);
  if (step.adopt_tile.has_value()) {
    // Headroom for the adopted tile's second sub-picture stream.
    fabric.post_receive(self());
    fabric.post_receive(self());
  }
  for (Outgoing& o : step.send) emit(ep, shared, self(), std::move(o));
}

bool DecoderHost::pump(double timeout) {
  net::Message m;
  switch (ep.recv(&m, timeout)) {
    case net::ReliableEndpoint::Status::kDead:
    case net::ReliableEndpoint::Status::kShutdown:
      gone = true;
      return false;
    case net::ReliableEndpoint::Status::kTimeout:
      break;
    case net::ReliableEndpoint::Status::kMessage:
      if (m.bulk) fabric.post_receive(self());  // recycle the buffer
      obs::FlightRecorder::global().note_wire(false, self(), m.src, m.type,
                                              m.seq, m.aux, m.payload.size());
      apply(node.on_message(m.src, decode_trusted(m), timer.seconds()));
      break;
  }
  ep.take_abandoned();
  for (Outgoing& o : node.on_tick(timer.seconds()))
    emit(ep, shared, self(), std::move(o));  // heartbeat when due
  return true;
}

void DecoderHost::serve(const proto::DecoderNode::OwnedTile& ot, uint32_t i) {
  proto::DecoderNode::SpState st;
  {
    PDW_TRACE_SPAN(obs::span::kRecvSp, self(), i);
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
    const proto::DecoderNode::ExchangeRoute rt = node.route_exchange(peer, pic);
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
        emit_exchange(ep, shared, self(), rt.dst_node, m);
        return true;
    }
    return false;
  });
}

void DecoderHost::work(const proto::DecoderNode::OwnedTile& ot, uint32_t i) {
  if (!node.have_sp(ot.tile)) {
    if (node.skipped(ot.tile)) {
      shared.skipped.fetch_add(1, std::memory_order_relaxed);
      decs.skip(ot.tile, i, display_fn(ot.tile));
    }
    return;
  }
  {
    PDW_TRACE_SPAN(obs::span::kWaitHalo, self(), i);
    while (!node.halos_complete(ot.tile, i) && pump(heartbeat_interval_s)) {
    }
  }
  if (gone) return;
  decs.decode(ot.tile, i, node.take_exchanges(ot.tile, i), display_fn(ot.tile));
  if (ot.tile != home_tile && i == ot.active_from) {
    // First adopted picture decoded: stamp the recovery latency.
    std::lock_guard<std::mutex> lock(shared.mu);
    for (RecoveryEvent& ev : shared.recoveries)
      if (ev.dead_tile == ot.tile && ev.resync_time_s == 0)
        ev.resync_time_s = timer.seconds();
  }
}

void DecoderHost::run(uint32_t total_pictures) {
  for (uint32_t i = 0; i < total_pictures && !gone; ++i) {
    // Phase 1 first for every owned tile, so no owned tile's decode can
    // starve another tile hosted on this same node. Indexed loops:
    // adoption may grow owned() mid-picture.
    for (size_t x = 0; x < node.owned().size() && !gone; ++x) {
      const proto::DecoderNode::OwnedTile ot = node.owned()[x];
      if (node.tile_active(ot, i)) serve(ot, i);
    }
    if (gone) break;
    for (size_t x = 0; x < node.owned().size() && !gone; ++x) {
      const proto::DecoderNode::OwnedTile ot = node.owned()[x];
      if (node.tile_active(ot, i)) work(ot, i);
    }
    if (gone) break;
    // Buffer GC plus the ack to the splitter owning the NEXT picture
    // (ANID redirection).
    {
      PDW_TRACE_SPAN(obs::span::kAckPic, self(), i);
      apply({node.finish_picture(i), {}, std::nullopt});
    }
    queue_depth->set(node.pending_sps());
  }

  if (!gone) {
    for (const proto::DecoderNode::OwnedTile& ot : node.owned())
      decs.flush(ot.tile, display_fn(ot.tile));
    apply({node.finished(), {}, std::nullopt});
  }
  shared.decoders_done.fetch_add(1, std::memory_order_release);
  // Stay resident until fabric shutdown: retransmit our own unacked tail
  // (last ack, finished notice, trailing exchanges) and keep t-acking
  // peers' retransmissions — a peer whose ack to us was lost would
  // otherwise retry into a dead mailbox and falsely abandon.
  while (!gone) {
    net::Message m;
    const auto st = ep.recv(&m, 0.02);
    if (st == net::ReliableEndpoint::Status::kDead ||
        st == net::ReliableEndpoint::Status::kShutdown)
      break;
    ep.take_abandoned();
    // Keep heartbeating until the finished notice is acked (the root
    // received it and exempted us from monitoring); then fall silent so
    // the fabric can reach quiescence for an orderly teardown.
    if (ep.unacked() > 0)
      for (Outgoing& o : node.on_tick(timer.seconds()))
        emit(ep, shared, self(), std::move(o));
  }
  shared.ep_stats[size_t(self())] = ep.stats();
}

}  // namespace pdw::core
