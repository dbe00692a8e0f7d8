#include "proto/nodes.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace pdw::proto {

namespace {

// Resynchronization point after a death: the first closed-GOP picture at or
// after `cursor` (the first picture not yet dispatched). Everything from
// that picture's display slot on is bit-exact again. Returns
// pictures.size() when no such picture remains.
uint32_t pick_resync_picture(const std::vector<PictureMeta>& pictures,
                             int cursor) {
  // Every GOP starts with an I picture, and GOPs are closed, so decoding
  // restarted at a GOP header is bit-exact from that display slot on.
  for (int j = cursor; j < int(pictures.size()); ++j)
    if (pictures[size_t(j)].has_gop_header) return uint32_t(j);
  return uint32_t(pictures.size());
}

// Adopter for a dead tile: the first tile whose serving node is neither the
// dead node nor itself dead. -1 when nobody can adopt (or policy forbids).
int pick_adopter_tile(const std::vector<int>& tile_owner_node,
                      const std::set<int>& dead_nodes, int dead_node,
                      RecoveryPolicy policy) {
  if (policy != RecoveryPolicy::kAdopt) return -1;
  for (int t2 = 0; t2 < int(tile_owner_node.size()); ++t2) {
    const int n2 = tile_owner_node[size_t(t2)];
    if (n2 != dead_node && !dead_nodes.count(n2)) return t2;
  }
  return -1;
}

}  // namespace

// --- RootNode --------------------------------------------------------------

RootNode::RootNode(const Topology& topo, const wall::TileGeometry& geo,
                   const Options& opts, std::vector<PictureMeta> pictures,
                   double now)
    : topo_(topo),
      opts_(opts),
      pictures_(std::move(pictures)),
      last_hb_(size_t(topo.tiles), now),
      owner_(size_t(topo.tiles), -1) {
  for (int t = 0; t < topo_.tiles; ++t) owner_[size_t(t)] = topo_.decoder(t);
  if (opts_.adaptive.enabled) {
    PDW_CHECK_EQ(geo.tiles(), topo_.tiles);
    table_ = std::make_unique<wall::PartitionTable>(geo);
    window_cost_.col.assign(size_t(geo.mb_width()), 0);
    window_cost_.row.assign(size_t(geo.mb_height()), 0);
  }
}

void RootNode::set_metrics(obs::MetricsRegistry* reg) {
  obs::MetricsRegistry& r = obs::registry_or_global(reg);
  metrics_reg_ = &r;
  const obs::Labels l{topo_.root(), int(opts_.stream)};
  m_dispatched_ = &r.counter(obs::family::kPicturesDispatched, l);
  m_go_aheads_ = &r.counter(obs::family::kGoAheadsSeen, l);
  m_hb_recv_ = &r.counter(obs::family::kHeartbeatsRecv, l);
  m_deaths_ = &r.counter(obs::family::kDeathsDeclared, l);
  publish_partition_gauges();  // epoch 0, so dashboards start populated
}

void RootNode::publish_partition_gauges() {
  if (!metrics_reg_ || !table_) return;
  const int stream = int(opts_.stream);
  const wall::Partition& p = table_->partition(table_->latest_epoch());
  metrics_reg_->gauge(obs::family::kPartitionEpoch, obs::Labels{-1, stream})
      .set(int64_t(p.epoch));
  // Cut gauges are labeled {node = cut index}: m-1 column cuts, n-1 rows.
  for (size_t i = 0; i < p.col_cuts_mb.size(); ++i)
    metrics_reg_
        ->gauge(obs::family::kPartitionColCutMb, obs::Labels{int(i), stream})
        .set(p.col_cuts_mb[i]);
  for (size_t i = 0; i < p.row_cuts_mb.size(); ++i)
    metrics_reg_
        ->gauge(obs::family::kPartitionRowCutMb, obs::Labels{int(i), stream})
        .set(p.row_cuts_mb[i]);
}

RootNode::Step RootNode::on_message(int src, const AnyMsg& msg, double now) {
  (void)src;
  Step step;
  if (std::holds_alternative<GoAheadAck>(msg)) {
    ++acks_seen_;
    if (m_go_aheads_) m_go_aheads_->add();
  } else if (const auto* hb = std::get_if<Heartbeat>(&msg)) {
    last_hb_[size_t(hb->tile)] = now;
    if (m_hb_recv_) m_hb_recv_->add();
  } else if (const auto* fin = std::get_if<Finished>(&msg)) {
    finished_nodes_.insert(topo_.decoder(int(fin->tile)));
  } else if (const auto* cr = std::get_if<CostReportMsg>(&msg)) {
    if (table_) {
      ++cost_reports_seen_;
      const size_t nc =
          std::min(window_cost_.col.size(), cr->col_cost.size());
      const size_t nr =
          std::min(window_cost_.row.size(), cr->row_cost.size());
      for (size_t i = 0; i < nc; ++i) window_cost_.col[i] += cr->col_cost[i];
      for (size_t i = 0; i < nr; ++i) window_cost_.row[i] += cr->row_cost[i];
    }
  }
  return step;
}

RootNode::Step RootNode::on_tick(double now) {
  Step step;
  for (int t = 0; t < topo_.tiles; ++t) {
    const int node = topo_.decoder(t);
    if (dead_nodes_.count(node) || finished_nodes_.count(node)) continue;
    if (now - last_hb_[size_t(t)] > opts_.heartbeat_timeout_s)
      declare_dead(node, &step);
  }
  return step;
}

RootNode::Step RootNode::on_transport_suspect(int node, double now) {
  (void)now;
  Step step;
  if (dead_nodes_.count(node) || finished_nodes_.count(node)) return step;
  bool is_decoder = false;
  for (int t = 0; t < topo_.tiles; ++t)
    if (topo_.decoder(t) == node) is_decoder = true;
  if (!is_decoder) return step;
  if (++suspects_[node] >= kTransportSuspectThreshold)
    declare_dead(node, &step);
  return step;
}

void RootNode::declare_dead(int node, Step* step) {
  if (dead_nodes_.count(node)) return;
  dead_nodes_.insert(node);
  // Recovery resyncs interleaved with rebalances is a state space nobody
  // needs: the partition in force stays in force for the rest of the run.
  partition_frozen_ = true;
  if (m_deaths_) m_deaths_->add();
  PDW_TRACE_INSTANT(obs::span::kDeath, topo_.root());
  const uint32_t resync = pick_resync_picture(pictures_, int(cursor_));
  for (int t = 0; t < topo_.tiles; ++t) {
    if (owner_[size_t(t)] != node) continue;
    const int adopter_tile =
        pick_adopter_tile(owner_, dead_nodes_, node, opts_.recovery);
    step->deaths.push_back(Death{node, t, adopter_tile, resync});
    owner_[size_t(t)] =
        adopter_tile >= 0 ? owner_[size_t(adopter_tile)] : -1;
    DeathNotice dn;
    dn.dead_tile = uint16_t(t);
    dn.adopter_tile = adopter_tile >= 0 ? uint16_t(adopter_tile) : kNoTile;
    dn.resync_pic = resync;
    dn.stream = opts_.stream;
    const Packed packed = pack(dn);
    for (int s = 0; s < topo_.k; ++s)
      step->send.push_back(Outgoing{topo_.splitter(s), true, packed});
    for (int t2 = 0; t2 < topo_.tiles; ++t2) {
      const int n2 = topo_.decoder(t2);
      if (!dead_nodes_.count(n2))
        step->send.push_back(Outgoing{n2, true, packed});
    }
  }
}

bool RootNode::may_dispatch() const {
  if (acks_seen_ < int64_t(cursor_)) return false;
  if (!rebalance_pending()) return true;
  // Closed-GOP boundary with rebalancing live: wait until every dispatched
  // picture's cost report landed, so the planner sees the complete window.
  return cost_reports_seen_ >= int64_t(cursor_);
}

bool RootNode::rebalance_pending() const {
  return table_ && !partition_frozen_ && cursor_ > 0 &&
         cursor_ < total_pictures() &&
         pictures_[size_t(cursor_)].has_gop_header;
}

std::vector<Outgoing> RootNode::dispatch(std::span<const uint8_t> coded) {
  PDW_CHECK(may_dispatch());
  PDW_CHECK_LT(cursor_, total_pictures());
  std::vector<Outgoing> out;
  if (rebalance_pending()) {
    // Plan over the just-finished GOP window; the decision is a pure
    // function of the bitstream, so every engine lands on the same cuts.
    wall::PlannerConfig cfg;
    cfg.gain_threshold = opts_.adaptive.gain_threshold;
    cfg.min_band_mbs = opts_.adaptive.min_band_mbs;
    cfg.overlap_px = table_->base().overlap();
    const std::optional<wall::Partition> next = wall::plan_partition(
        table_->partition(table_->latest_epoch()), window_cost_, cfg);
    if (next) {
      table_->install(*next, cursor_);
      publish_partition_gauges();
      PartitionUpdateMsg pu;
      pu.epoch = next->epoch;
      pu.apply_from_pic = cursor_;
      pu.stream = opts_.stream;
      for (int c : next->col_cuts_mb) pu.col_cuts_mb.push_back(uint16_t(c));
      for (int r : next->row_cuts_mb) pu.row_cuts_mb.push_back(uint16_t(r));
      const Packed packed = pack(pu);
      for (int s = 0; s < topo_.k; ++s)
        out.push_back(Outgoing{topo_.splitter(s), true, packed});
      for (int t = 0; t < topo_.tiles; ++t) {
        const int n = topo_.decoder(t);
        if (!dead_nodes_.count(n) && !finished_nodes_.count(n))
          out.push_back(Outgoing{n, true, packed});
      }
      PDW_TRACE_INSTANT(obs::span::kRebalance, topo_.root(), cursor_);
    }
    std::fill(window_cost_.col.begin(), window_cost_.col.end(), 0);
    std::fill(window_cost_.row.begin(), window_cost_.row.end(), 0);
  }
  // The coded span (typically a view into the resident elementary stream)
  // is packed straight into the pooled body — the one copy this picture
  // makes on its way to the splitter.
  const uint32_t epoch = table_ ? table_->epoch_for(cursor_) : 0;
  Packed p = pack_picture(cursor_, topo_.nsid(cursor_), opts_.stream, coded,
                          epoch);
  const int dst = topo_.splitter(topo_.splitter_for_picture(cursor_));
  ++cursor_;
  if (m_dispatched_) m_dispatched_->add();
  out.push_back(Outgoing{dst, true, std::move(p)});
  return out;
}

std::vector<Outgoing> RootNode::end_of_stream() const {
  std::vector<Outgoing> out;
  for (int s = 0; s < topo_.k; ++s)
    out.push_back(
        Outgoing{topo_.splitter(s), true, pack(EndOfStream{opts_.stream})});
  return out;
}

bool RootNode::all_reported() const {
  for (int t = 0; t < topo_.tiles; ++t) {
    const int n = topo_.decoder(t);
    if (!dead_nodes_.count(n) && !finished_nodes_.count(n)) return false;
  }
  return true;
}

// --- SplitterNode ----------------------------------------------------------

SplitterNode::SplitterNode(const Topology& topo, int index, uint8_t stream)
    : topo_(topo), index_(index), stream_(stream) {
  route_.resize(size_t(topo.tiles));
  for (int t = 0; t < topo_.tiles; ++t) {
    live_.insert(topo_.decoder(t));
    route_[size_t(t)] = Route{topo_.decoder(t), 0};
  }
}

void SplitterNode::set_metrics(obs::MetricsRegistry* reg) {
  obs::MetricsRegistry& r = obs::registry_or_global(reg);
  const obs::Labels l{topo_.splitter(index_), int(stream_)};
  m_acks_recv_ = &r.counter(obs::family::kAcksRecv, l);
  m_skips_ = &r.counter(obs::family::kSkipBroadcasts, l);
}

SplitterNode::Step SplitterNode::on_message(int src, AnyMsg msg, double now) {
  (void)now;
  Step step;
  if (auto* pic = std::get_if<PictureMsg>(&msg)) {
    pictures_.push_back(std::move(*pic));
  } else if (const auto* ack = std::get_if<GoAheadAck>(&msg)) {
    acked_[ack->pic_index].insert(src);
    if (m_acks_recv_) m_acks_recv_->add();
  } else if (const auto* dn = std::get_if<DeathNotice>(&msg)) {
    const int dead_node = route_[size_t(dn->dead_tile)].node;
    live_.erase(dead_node);
    if (dead_node >= 0) step.forget.push_back(dead_node);
    route_[size_t(dn->dead_tile)] =
        Route{dn->adopter_tile == kNoTile
                  ? -1
                  : route_[size_t(dn->adopter_tile)].node,
              dn->resync_pic};
  } else if (std::holds_alternative<EndOfStream>(msg)) {
    ended_ = true;
  } else if (auto* pu = std::get_if<PartitionUpdateMsg>(&msg)) {
    step.partition = std::move(*pu);
  }
  return step;
}

SplitterNode::Step SplitterNode::on_send_failure(const SendFailure& f) {
  Step step;
  if (!live_.count(f.dst)) return step;
  SkipBroadcast skip;
  skip.pic_index = f.seq;
  skip.tile = f.aux;
  skip.stream = stream_;
  if (f.type == MsgType::kSubPicture) {
    for (int node : live_)
      step.send.push_back(Outgoing{node, true, pack(skip)});
  } else if (f.type == MsgType::kSkipBroadcast) {
    step.send.push_back(Outgoing{f.dst, true, pack(skip)});
  }
  if (m_skips_) m_skips_->add(step.send.size());
  return step;
}

PictureMsg SplitterNode::pop_picture(Outgoing* go_ahead) {
  PDW_CHECK(has_picture());
  PictureMsg m = std::move(pictures_.front());
  pictures_.erase(pictures_.begin());
  GoAheadAck ack;
  ack.pic_index = m.pic_index;
  ack.stream = stream_;
  *go_ahead = Outgoing{topo_.root(), true, pack(ack)};
  return m;
}

bool SplitterNode::prev_acked(uint32_t pic) {
  if (pic == 0) return true;
  const auto it = acked_.find(pic - 1);
  for (int node : live_)
    if (it == acked_.end() || !it->second.count(node)) return false;
  acked_.erase(acked_.begin(), acked_.upper_bound(pic - 1));
  return true;
}

std::vector<SplitterNode::SpRoute> SplitterNode::routes(uint32_t pic) const {
  std::vector<SpRoute> out;
  for (int d = 0; d < topo_.tiles; ++d) {
    const Route& rt = route_[size_t(d)];
    if (rt.node < 0 || pic < rt.valid_from) continue;
    out.push_back(SpRoute{d, rt.node});
  }
  return out;
}

std::vector<Outgoing> SplitterNode::skip_picture(uint32_t pic) const {
  std::vector<Outgoing> out;
  for (int d = 0; d < topo_.tiles; ++d) {
    SkipBroadcast skip;
    skip.pic_index = pic;
    skip.tile = uint16_t(d);
    skip.stream = stream_;
    for (int node : live_) out.push_back(Outgoing{node, true, pack(skip)});
  }
  if (m_skips_) m_skips_->add(out.size());
  return out;
}

// --- DecoderNode -----------------------------------------------------------

DecoderNode::DecoderNode(const Topology& topo, int home_tile,
                         const Options& opts)
    : topo_(topo),
      home_tile_(home_tile),
      self_(topo.decoder(home_tile)),
      opts_(opts),
      owner_(size_t(topo.tiles), -1) {
  owned_.reserve(size_t(topo_.tiles));
  owned_.push_back(OwnedTile{home_tile, 0});
  for (int d = 0; d < topo_.tiles; ++d) owner_[size_t(d)] = topo_.decoder(d);
}

void DecoderNode::set_metrics(obs::MetricsRegistry* reg) {
  obs::MetricsRegistry& r = obs::registry_or_global(reg);
  const obs::Labels l{self_, int(opts_.stream)};
  m_hb_sent_ = &r.counter(obs::family::kHeartbeatsSent, l);
  m_acks_sent_ = &r.counter(obs::family::kAcksSent, l);
  m_adoptions_ = &r.counter(obs::family::kAdoptions, l);
}

DecoderNode::Step DecoderNode::on_message(int src, AnyMsg msg, double now) {
  (void)src;
  (void)now;
  Step step;
  if (auto* sp = std::get_if<SpMsg>(&msg)) {
    sps_[key(int(sp->tile), sp->pic_index)] = std::move(*sp);
  } else if (auto* ex = std::get_if<ExchangeMsg>(&msg)) {
    exchanges_[key(int(ex->dst_tile), ex->pic_index)][int(ex->src_tile)] =
        std::move(*ex);
  } else if (const auto* skip = std::get_if<SkipBroadcast>(&msg)) {
    skips_.insert(key(int(skip->tile), skip->pic_index));
  } else if (const auto* dn = std::get_if<DeathNotice>(&msg)) {
    const int dead_tile = int(dn->dead_tile);
    const int adopter_tile =
        dn->adopter_tile == kNoTile ? -1 : int(dn->adopter_tile);
    dead_tiles_[dead_tile] = DeadTileInfo{dn->resync_pic, adopter_tile};
    const int dead_node = owner_[size_t(dead_tile)];
    owner_[size_t(dead_tile)] =
        adopter_tile >= 0 ? owner_[size_t(adopter_tile)] : -1;
    if (dead_node >= 0) step.forget.push_back(dead_node);
    if (adopter_tile < 0 || dn->resync_pic >= opts_.total_pictures)
      return step;
    bool mine = false, already = false;
    for (const OwnedTile& ot : owned_) {
      mine |= ot.tile == adopter_tile;
      already |= ot.tile == dead_tile;
    }
    if (mine && !already) {
      owned_.push_back(OwnedTile{dead_tile, dn->resync_pic});
      step.adopt_tile = dead_tile;
      if (m_adoptions_) m_adoptions_->add();
      PDW_TRACE_INSTANT(obs::span::kAdopt, self_, dn->resync_pic);
    }
  } else if (auto* pu = std::get_if<PartitionUpdateMsg>(&msg)) {
    latest_epoch_ = std::max(latest_epoch_, pu->epoch);
    step.partition = std::move(*pu);
  }
  return step;
}

std::vector<Outgoing> DecoderNode::on_tick(double now) {
  std::vector<Outgoing> out;
  if (now - last_hb_ < opts_.heartbeat_interval_s) return out;
  last_hb_ = now;
  Heartbeat hb;
  hb.tile = uint16_t(home_tile_);
  hb.stream = opts_.stream;
  out.push_back(Outgoing{topo_.root(), false, pack(hb)});
  if (m_hb_sent_) m_hb_sent_->add();
  return out;
}

DecoderNode::Scratch& DecoderNode::scratch_for(int tile, uint32_t pic) {
  Scratch& sc = scratch_[tile];
  if (sc.pic != int64_t(pic)) {
    sc = Scratch{};
    sc.pic = int64_t(pic);
  }
  return sc;
}

DecoderNode::SpState DecoderNode::poll_sp(int tile, uint32_t pic) {
  Scratch& sc = scratch_for(tile, pic);
  if (sc.have_sp) return SpState::kReady;
  if (sc.skip) return SpState::kSkipped;
  const uint64_t k = key(tile, pic);
  if (const auto it = sps_.find(k); it != sps_.end()) {
    // Its epoch's geometry may not have reached this node yet (the update
    // rides the root link, the sub-picture a splitter link): hold it.
    if (it->second.epoch > latest_epoch_) return SpState::kPending;
    sc.sp = std::move(it->second);
    sps_.erase(it);
    sc.have_sp = true;
    for (const core::MeiInstruction& instr : sc.sp.mei)
      if (instr.op == core::MeiOp::kRecv) sc.expected.insert(int(instr.peer));
    // Tiles hosted on this very node exchange halos in memory.
    for (const OwnedTile& ot : owned_)
      if (tile_active(ot, pic)) sc.expected.erase(ot.tile);
    return SpState::kReady;
  }
  if (skips_.count(k)) {
    sc.skip = true;
    return SpState::kSkipped;
  }
  return SpState::kPending;
}

const SpMsg& DecoderNode::sp(int tile) const {
  const auto it = scratch_.find(tile);
  PDW_CHECK(it != scratch_.end() && it->second.have_sp);
  return it->second.sp;
}

bool DecoderNode::have_sp(int tile) const {
  const auto it = scratch_.find(tile);
  return it != scratch_.end() && it->second.have_sp;
}

bool DecoderNode::skipped(int tile) const {
  const auto it = scratch_.find(tile);
  return it != scratch_.end() && it->second.skip;
}

DecoderNode::ExchangeRoute DecoderNode::route_exchange(int dst_tile,
                                                       uint32_t pic) const {
  const auto it = dead_tiles_.find(dst_tile);
  if (it != dead_tiles_.end() &&
      (it->second.adopter_tile < 0 || pic < it->second.resync))
    return ExchangeRoute{};  // nobody serves that picture
  const int node = owner_[size_t(dst_tile)];
  if (node < 0) return ExchangeRoute{};
  if (node == self_)
    return ExchangeRoute{ExchangeRoute::Kind::kLocal, node};
  return ExchangeRoute{ExchangeRoute::Kind::kRemote, node};
}

bool DecoderNode::serviceable(int src_tile, uint32_t pic) const {
  if (skips_.count(key(src_tile, pic))) return false;
  const auto it = dead_tiles_.find(src_tile);
  if (it == dead_tiles_.end()) return true;
  if (it->second.adopter_tile < 0) return false;
  return pic >= it->second.resync;
}

bool DecoderNode::halos_complete(int tile, uint32_t pic) const {
  const auto sit = scratch_.find(tile);
  PDW_CHECK(sit != scratch_.end() && sit->second.have_sp);
  const auto git = exchanges_.find(key(tile, pic));
  for (int src : sit->second.expected) {
    const bool got = git != exchanges_.end() && git->second.count(src);
    if (!got && serviceable(src, pic)) return false;
  }
  return true;
}

std::vector<ExchangeMsg> DecoderNode::take_exchanges(int tile, uint32_t pic) {
  std::vector<ExchangeMsg> out;
  const auto it = exchanges_.find(key(tile, pic));
  if (it == exchanges_.end()) return out;
  for (auto& [src, m] : it->second) {
    PDW_CHECK_EQ(int(m.dst_tile), tile);
    out.push_back(std::move(m));
  }
  exchanges_.erase(it);
  return out;
}

void DecoderNode::finish_picture(uint32_t pic) {
  sps_.erase(sps_.begin(), sps_.lower_bound(key(0, pic + 1)));
  exchanges_.erase(exchanges_.begin(),
                   exchanges_.lower_bound(key(0, pic + 1)));
  skips_.erase(skips_.begin(), skips_.lower_bound(key(0, pic + 1)));
}

std::vector<Outgoing> DecoderNode::ack_picture(uint32_t pic) {
  GoAheadAck ack;
  ack.pic_index = pic;
  ack.stream = opts_.stream;
  if (m_acks_sent_) m_acks_sent_->add();
  return {Outgoing{topo_.ack_target(pic), true, pack(ack)}};
}

std::vector<Outgoing> DecoderNode::finished() const {
  Finished fin;
  fin.tile = uint16_t(home_tile_);
  fin.stream = opts_.stream;
  return {Outgoing{topo_.root(), true, pack(fin)}};
}

}  // namespace pdw::proto
