#include "core/lockstep.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/timing.h"
#include "obs/trace.h"

namespace pdw::core {

using proto::Outgoing;

namespace {

TileDecoder::DisplayFn tile_display(const TileDisplayFn& on_display, int tile) {
  return [&on_display, tile](const mpeg2::TileFrame& tf,
                             const TileDisplayInfo& info) {
    if (on_display) on_display(tile, tf, info);
  };
}

}  // namespace

LockstepPipeline::LockstepPipeline(const wall::TileGeometry& geo, int k,
                                   std::span<const uint8_t> es,
                                   obs::MetricsRegistry* metrics,
                                   proto::RootNode::AdaptivePartition adaptive,
                                   uint8_t stream)
    : geo_(geo), table_(geo), topo_{k, geo.tiles()}, root_(es) {
  PDW_CHECK_GE(k, 1);
  obs::MetricsRegistry& mreg = obs::registry_or_global(metrics);
  const StreamInfo& info = root_.stream_info();

  proto::RootNode::Options ropts;
  ropts.stream = stream;
  ropts.adaptive = adaptive;
  root_node_ = std::make_unique<proto::RootNode>(topo_, geo_, ropts,
                                                 picture_metas(root_), 0);
  root_node_->set_metrics(metrics);

  for (int s = 0; s < k; ++s) {
    splitter_nodes_.push_back(
        std::make_unique<proto::SplitterNode>(topo_, s, stream));
    splitter_nodes_.back()->set_metrics(metrics);
    splitters_.push_back(std::make_unique<SplitterBody>(
        table_, topo_.splitter(s), stream, adaptive.enabled, info, mreg));
  }
  proto::DecoderNode::Options dopts;
  dopts.total_pictures = uint32_t(root_.picture_count());
  dopts.stream = stream;
  for (int t = 0; t < topo_.tiles; ++t) {
    decoder_nodes_.push_back(
        std::make_unique<proto::DecoderNode>(topo_, t, dopts));
    decoder_nodes_.back()->set_metrics(metrics);
    // kStrict: on a lossless bus every halo must arrive, so a missing one
    // is a pre-calculation bug, not a fault to conceal.
    decoders_.push_back(std::make_unique<TileDecoderSet>(
        table_, info, HaloPolicy::kStrict, topo_.decoder(t), stream, mreg));
  }

  acct_.reset(topo_.nodes());
  acct_.per_picture_tiles = topo_.tiles;
}

LockstepPipeline::~LockstepPipeline() = default;

void LockstepPipeline::run(const TileDisplayFn& on_display,
                           const TraceFn& on_trace, int max_pictures) {
  int limit = picture_count();
  if (max_pictures >= 0) limit = std::min(limit, max_pictures);
  for (int i = 0; i < limit; ++i) step(on_display, on_trace);
  finish(on_display);
}

mpeg2::PicType LockstepPipeline::next_picture_type() const {
  PDW_CHECK(!done());
  return root_.picture_type(int(cursor_));
}

bool LockstepPipeline::next_gop_start() const {
  PDW_CHECK(!done());
  return root_.span(int(cursor_)).has_gop_header;
}

void LockstepPipeline::deliver(int src, Outgoing o) {
  acct_.record(src, o.dst, o.msg.type, o.msg.body.size());
  std::optional<proto::AnyMsg> msg = proto::decode_any(o.msg.body);
  PDW_CHECK(msg.has_value());  // we packed it ourselves
  dispatch(src, o.dst, std::move(*msg));
}

void LockstepPipeline::deliver_exchange(int src, int dst,
                                        proto::ExchangeMsg msg) {
  acct_.record_exchange(src, dst, msg);
  dispatch(src, dst, proto::AnyMsg(std::move(msg)));
}

void LockstepPipeline::dispatch(int src, int dst, proto::AnyMsg msg) {
  // The bus is lossless and instantaneous: nothing ever times out, dies, or
  // gets adopted, which the PDW_CHECKs below pin down.
  if (dst == topo_.root()) {
    proto::RootNode::Step step = root_node_->on_message(src, msg, /*now=*/0.0);
    PDW_CHECK(step.deaths.empty());
    for (Outgoing& o : step.send) deliver(dst, std::move(o));
    return;
  }
  if (!topo_.is_decoder(dst)) {
    proto::SplitterNode::Step step =
        splitter_nodes_[size_t(dst - 1)]->on_message(src, std::move(msg), 0.0);
    PDW_CHECK(step.forget.empty());
    if (step.partition) install_partition(*step.partition);
    for (Outgoing& o : step.send) deliver(dst, std::move(o));
    return;
  }
  proto::DecoderNode& node = *decoder_nodes_[size_t(topo_.tile_of(dst))];
  proto::DecoderNode::Step step = node.on_message(src, std::move(msg), 0.0);
  PDW_CHECK(step.forget.empty());
  PDW_CHECK(!step.adopt_tile.has_value());
  if (step.partition) install_partition(*step.partition);
  for (Outgoing& o : step.send) deliver(dst, std::move(o));
}

void LockstepPipeline::install_partition(const proto::PartitionUpdateMsg& pu) {
  // The root broadcasts one update to every splitter and decoder; they all
  // share one table here, so only the first arrival installs.
  table_.install_wire(pu.epoch, pu.apply_from_pic, pu.col_cuts_mb,
                      pu.row_cuts_mb);
}

void LockstepPipeline::step(const TileDisplayFn& on_display,
                            const TraceFn& on_trace, bool shed) {
  PDW_CHECK(!finished_);
  PDW_CHECK(!done());
  const int tiles = topo_.tiles;
  const uint32_t i = cursor_++;

  PictureTrace tr;
  tr.pic_index = i;
  tr.sp_msg_bytes.assign(size_t(tiles), 0);
  tr.decode_s.assign(size_t(tiles), 0.0);
  tr.serve_s.assign(size_t(tiles), 0.0);
  tr.halo_mbs.assign(size_t(tiles), 0);
  tr.exchange_bytes.reset(tiles);

  const std::span<const uint8_t> span = root_.picture(int(i));
  tr.picture_bytes = span.size();

  // Root: the one copy — the ES span is packed straight into a pooled wire
  // body; everything downstream (splitter, sub-pictures) views that block.
  PDW_CHECK(root_node_->may_dispatch());
  std::vector<Outgoing> dispatched;
  {
    PDW_TRACE_SPAN(obs::span::kCopyPic, topo_.root(), i);
    WallTimer t;
    dispatched = root_node_->dispatch(span);
    tr.copy_s = t.seconds();
  }
  // A rebalance decided at this picture rides ahead of it: the partition
  // update lands (and installs into the shared table) before the picture.
  for (Outgoing& o : dispatched) deliver(topo_.root(), std::move(o));

  // Splitter: dequeue (go-ahead back to the root), split and pack, gate on
  // the ANID-redirected acks of picture i-1, route the sub-pictures.
  const int s = topo_.splitter_for_picture(i);
  const int self = topo_.splitter(s);
  proto::SplitterNode& sn = *splitter_nodes_[size_t(s)];
  SplitterBody& body = *splitters_[size_t(s)];
  PDW_CHECK(sn.has_picture());
  Outgoing go_ahead;
  const proto::PictureMsg pic = sn.pop_picture(&go_ahead);
  PDW_CHECK_EQ(pic.pic_index, i);
  deliver(self, std::move(go_ahead));
  tr.epoch = pic.epoch;

  SplitResult result;
  std::vector<proto::Packed> sps;
  if (shed) {
    // QoS shed: the picture costs no split work at all — the start-code
    // scan's peeked type stands in for the parse, and the failure status
    // routes the step down the same skip-broadcast path an undecodable
    // picture takes.
    ++pictures_shed_;
    result.status = DecodeStatus::error(DecodeErr::kUnsupported,
                                        DecodeSeverity::kPicture, 0);
    result.info.type = root_.picture_type(int(i));
  } else {
    // Packing the SPs and MEIs into wire bodies is splitter work too; the
    // lossless bus routes every tile, so all of them are packed here.
    WallTimer t;
    result = body.split(pic);
    if (result.status.ok())
      for (int d = 0; d < tiles; ++d) {
        sps.push_back(body.pack(pic, result, d));
        tr.sp_msg_bytes[size_t(d)] = sps.back().body.size();
      }
    tr.split_s = t.seconds();
  }
  tr.type = result.info.type;
  tr.split_stats = result.stats;
  if (std::optional<proto::Packed> cr = body.cost_report(i, result.stats))
    deliver(self, Outgoing{topo_.root(), true, std::move(*cr)});

  PDW_CHECK(sn.prev_acked(i));
  if (!result.status.ok()) {
    // Undecodable headers: nobody can split or decode the picture. The skip
    // broadcast keeps the one-emission-per-slot display invariant.
    for (Outgoing& o : sn.skip_picture(i)) deliver(self, std::move(o));
  } else {
    PDW_TRACE_SPAN(obs::span::kRouteSp, self, i);
    for (const proto::SplitterNode::SpRoute& rt : sn.routes(i))
      deliver(self, {rt.dst_node, true, std::move(sps[size_t(rt.tile)])});
  }

  // Serve phase: every tile executes its SEND instructions and the halo
  // exchanges flow, all before any decode starts (in the real system the ack
  // protocol guarantees reference data is already decoded).
  for (int d = 0; d < tiles; ++d) {
    proto::DecoderNode& node = *decoder_nodes_[size_t(d)];
    const proto::DecoderNode::SpState st = node.poll_sp(d, i);
    if (st == proto::DecoderNode::SpState::kSkipped) continue;
    PDW_CHECK(st == proto::DecoderNode::SpState::kReady);  // the bus never lags
    const auto send = [&](int peer, proto::ExchangeMsg& m) {
      const proto::DecoderNode::ExchangeRoute rt = node.route_exchange(peer, i);
      PDW_CHECK(rt.kind == proto::DecoderNode::ExchangeRoute::Kind::kRemote);
      const size_t bytes = m.entries.size() * proto::kExchangeEntryWireBytes;
      tr.exchange_bytes.add(d, peer, bytes);
      deliver_exchange(topo_.decoder(d), rt.dst_node, std::move(m));
      return true;
    };
    tr.serve_s[size_t(d)] = decoders_[size_t(d)]->serve(d, i, node.sp(d), send);
  }

  // Decode phase.
  for (int d = 0; d < tiles; ++d) {
    proto::DecoderNode& node = *decoder_nodes_[size_t(d)];
    TileDecoderSet& decs = *decoders_[size_t(d)];
    const TileDecoder::DisplayFn display = tile_display(on_display, d);
    if (node.skipped(d)) {
      decs.skip(d, i, display);
      continue;
    }
    PDW_CHECK(node.have_sp(d));
    PDW_CHECK(node.halos_complete(d, i));
    tr.decode_s[size_t(d)] =
        decs.decode(d, i, node.take_exchanges(d, i), display);
    tr.halo_mbs[size_t(d)] = int(decs.at(d).halo_mbs_last_picture());
  }

  // Per-picture epilogue: the ANID-redirected ack plus buffer GC.
  for (int d = 0; d < tiles; ++d) {
    PDW_TRACE_SPAN(obs::span::kAckPic, topo_.decoder(d), i);
    for (Outgoing& o : decoder_nodes_[size_t(d)]->ack_picture(i))
      deliver(topo_.decoder(d), std::move(o));
    decoder_nodes_[size_t(d)]->finish_picture(i);
  }

  if (on_trace) on_trace(tr);
}

void LockstepPipeline::finish(const TileDisplayFn& on_display) {
  PDW_CHECK(!finished_);
  finished_ = true;
  for (Outgoing& o : root_node_->end_of_stream())
    deliver(topo_.root(), std::move(o));
  for (int d = 0; d < topo_.tiles; ++d) {
    decoders_[size_t(d)]->flush(d, tile_display(on_display, d));
    for (Outgoing& o : decoder_nodes_[size_t(d)]->finished())
      deliver(topo_.decoder(d), std::move(o));
  }
  PDW_CHECK(root_node_->all_reported());
}

}  // namespace pdw::core
