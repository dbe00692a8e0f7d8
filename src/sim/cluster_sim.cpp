#include "sim/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "net/fabric.h"
#include "net/reliable.h"
#include "obs/trace.h"
#include "proto/nodes.h"

namespace pdw::sim {

using core::PictureTrace;

namespace {
constexpr double kAckBytes = double(net::Message::kHeaderBytes);
constexpr double kMsgHeader = double(net::Message::kHeaderBytes);
constexpr double kInf = std::numeric_limits<double>::infinity();
// The real transport's retransmission timeouts: first RTO and backoff cap.
constexpr net::ReliableConfig kRto{};
}  // namespace

SimResult simulate_cluster(const std::vector<PictureTrace>& traces,
                           const wall::TileGeometry& geo,
                           const SimParams& params) {
  PDW_CHECK(!traces.empty());
  const int T = geo.tiles();
  const int k = params.two_level ? params.k : 1;
  PDW_CHECK_GE(k, 1);
  const int N = int(traces.size());
  const LinkModel& link = params.link;
  const SimFaultModel& fm = params.fault;

  SimResult result;
  result.pictures = N;
  result.nodes = params.two_level ? 1 + k + T : 1 + T;
  result.first_decoder_node = params.two_level ? 1 + k : 1;
  result.decoders.assign(size_t(T), DecoderBreakdown{});
  result.traffic.assign(size_t(result.nodes), NodeTraffic{});
  result.traffic_matrix.reset(result.nodes);
  result.splitter_busy_s.assign(size_t(k), 0.0);

  // Virtual-time trace emission: every modeled stage lands in the global
  // tracer as a completed span (same canonical names the runtime engines
  // record), pid-offset so Perfetto shows the modeled cluster as its own
  // process group. `tid` is the tile lane, so an adopting node's two tiles
  // stay distinguishable.
  obs::Tracer& tracer = obs::Tracer::global();
  const bool tracing = tracer.enabled();
  auto span = [&](const char* name, int node, int tid, double start,
                  double end, uint32_t pic) {
    if (tracing && end > start)
      tracer.add_complete(name, kSimTracePidBase + node, tid, start,
                          end - start, pic);
  };

  // Table-3 node numbering and ordering arithmetic (round-robin splitter
  // choice, NSID ack targets) come from the shared protocol layer; the
  // one-level mode folds the root and the single splitter into node 0.
  const proto::Topology topo{k, T};
  auto splitter_node = [&](int s) { return params.two_level ? 1 + s : 0; };
  auto decoder_node = [&](int t) { return result.first_decoder_node + t; };

  // Per-picture protocol metadata and the tile -> node map the shared
  // recovery-policy helpers operate on.
  std::vector<proto::PictureMeta> metas(static_cast<size_t>(N));
  for (int i = 0; i < N; ++i)
    metas[size_t(i)].has_gop_header = traces[size_t(i)].has_gop_header;
  std::vector<int> tile_owner(static_cast<size_t>(T));
  for (int t = 0; t < T; ++t) tile_owner[size_t(t)] = topo.decoder(t);

  // Lossy-link model: each bulk transfer re-rolls FaultInjector's drop
  // decision per transmission (same SplitMix64 stream as the real fabric, so
  // a given seed produces one schedule). A drop costs the sender one
  // retransmit timeout (exponential backoff, capped) plus a repeat transfer.
  const net::FaultInjector inj(fm.seed, net::FaultRates{.drop = fm.drop_rate});
  std::vector<uint64_t> link_ord(size_t(result.nodes) * result.nodes, 0);
  auto xfer = [&](int src, int dst, size_t bytes) -> double {
    double t = link.transfer_s(bytes);
    if (fm.drop_rate <= 0) return t;
    uint64_t& ord = link_ord[size_t(src) * result.nodes + dst];
    double rto = kRto.rto_initial_s;
    while (inj.decide(src, dst, ord++, 0, bytes).drop) {
      t += rto + link.transfer_s(bytes);
      rto = std::min(rto * 2, kRto.rto_max_s);
      ++result.retransmits;
    }
    return t;
  };

  // Crash schedule: the decoder node owning fm.crash_tile dies right after
  // decoding picture fm.crash_at_picture. Until the heartbeat timeout
  // expires the splitters still gate on its acks (pipeline stalls); then the
  // root broadcasts the death and either an adopter takes the tile over from
  // the next closed-GOP picture, or the tile stays frozen (degraded mode).
  const bool crash_on = fm.crash_tile >= 0 && fm.crash_tile < T &&
                        fm.crash_at_picture >= 0 && fm.crash_at_picture < N - 1;
  bool dead = false;      // the node is down
  bool informed = false;  // the death has been detected and broadcast
  double crash_time = kInf, detect_time = kInf;
  int resync_pic = -1;  // first adopted picture (-1: none / degraded)
  int adopter = -1;

  // --- Root stage: when is picture i fully received by its splitter? -------
  // (One-level mode: the console node both "is" the splitter and has the
  // stream locally, so pictures are available immediately after the copy.)
  std::vector<double> recv_at_splitter(size_t(N), 0.0);
  std::vector<double> splitter_ack_at_root(size_t(N), 0.0);

  if (params.two_level) {
    double root_free = 0.0;
    for (int i = 0; i < N; ++i) {
      const PictureTrace& tr = traces[size_t(i)];
      double t = root_free + tr.copy_s;  // "Copy P to send buffer"
      span(obs::span::kCopyPic, 0, 0, root_free, t, uint32_t(i));
      if (i > 0) {
        // Wait for the ack/go-ahead of the previous picture ("wait for ACK
        // from any splitter, except for the first picture").
        const double copy_end = t;
        t = std::max(t, splitter_ack_at_root[size_t(i - 1)]);
        span(obs::span::kGoAheadWait, 0, 0, copy_end, t, uint32_t(i));
      }
      const double tx = xfer(0, splitter_node(topo.splitter_for_picture(uint32_t(i))),
                             tr.picture_bytes + size_t(kMsgHeader));
      const double send_done = t + tx;
      recv_at_splitter[size_t(i)] = send_done + link.latency_s;
      // The splitter acks as soon as it has the picture.
      splitter_ack_at_root[size_t(i)] = recv_at_splitter[size_t(i)] +
                                        link.ack_cpu_s +
                                        link.transfer_s(size_t(kAckBytes)) +
                                        link.latency_s;
      root_free = send_done;

      result.traffic[0].sent_bytes += double(tr.picture_bytes) + kMsgHeader;
      result.traffic[0].recv_bytes += kAckBytes;
      // (The receiving splitter's share is attributed in the main loop once
      // the schedule has chosen it.)
    }
  } else {
    // One-level: the console scans locally; the copy is still real work.
    double free_t = 0.0;
    for (int i = 0; i < N; ++i) {
      const double copy_start = free_t;
      free_t += traces[size_t(i)].copy_s;
      span(obs::span::kCopyPic, 0, 0, copy_start, free_t, uint32_t(i));
      recv_at_splitter[size_t(i)] = free_t;
    }
    // Not sequential with splitting here — splitting is gated below by
    // splitter_free, which starts after this copy timeline anyway.
  }

  // --- Per-picture protocol forward pass -----------------------------------
  std::vector<double> splitter_free(size_t(k), 0.0);
  std::vector<double> decoder_free(size_t(T), 0.0);
  // Ack arrival (at the next picture's splitter) for the previous picture,
  // per decoder.
  std::vector<double> prev_pic_dec_ack(size_t(T), 0.0);

  std::vector<double> sp_arrival(size_t(T), 0.0);
  std::vector<double> serve_end(size_t(T), 0.0);
  std::vector<double> start(size_t(T), 0.0);

  for (int i = 0; i < N; ++i) {
    const PictureTrace& tr = traces[size_t(i)];

    int s = 0;
    if (params.two_level) {
      s = topo.splitter_for_picture(uint32_t(i));
      result.traffic[size_t(splitter_node(s))].recv_bytes +=
          double(tr.picture_bytes) + kMsgHeader;
      result.traffic[size_t(splitter_node(s))].sent_bytes += kAckBytes;
      result.traffic_matrix.add(0, splitter_node(s),
                                tr.picture_bytes + size_t(kMsgHeader));
      result.traffic_matrix.add(splitter_node(s), 0, uint64_t(kAckBytes));
    }

    // Split.
    const double split_start =
        std::max(recv_at_splitter[size_t(i)], splitter_free[size_t(s)]);
    const double split_end = split_start + tr.split_s;
    span(obs::span::kSplitPic, splitter_node(s), 0, split_start, split_end,
         uint32_t(i));
    result.splitter_busy_s[size_t(s)] += tr.split_s;

    // Gate on decoder acks for the previous picture (ANID redirection: those
    // acks were addressed to *this* splitter).
    double gate = split_end;
    if (i > 0)
      for (int t = 0; t < T; ++t) {
        if (dead && t == fm.crash_tile) {
          if (informed) continue;  // death known: gate over live nodes only
          if (i - 1 > fm.crash_at_picture) {
            // The dead node never acked picture i-1: the pipeline stalls
            // until the heartbeat timeout declares it dead. This is the
            // detection event — pick the resync picture (first closed-GOP
            // picture the splitters have not yet routed) and an adopter.
            gate = std::max(gate, detect_time);
            informed = true;
            // Resync point and adopter come from the shared protocol layer
            // (the same helpers RootNode calls in the runtime engines).
            const uint32_t r = proto::pick_resync_picture(metas, i);
            resync_pic = r < uint32_t(N) ? int(r) : -1;
            adopter = proto::pick_adopter_tile(
                tile_owner, {topo.decoder(fm.crash_tile)},
                topo.decoder(fm.crash_tile),
                fm.adopt ? proto::RecoveryPolicy::kAdopt
                         : proto::RecoveryPolicy::kDegrade);
            if (resync_pic < 0 || adopter < 0) {  // nobody (or nowhere) to adopt
              resync_pic = -1;
              adopter = -1;
            }
            SimRecovery rec;
            rec.tile = fm.crash_tile;
            rec.adopter_tile = adopter;
            rec.resync_picture = resync_pic;
            rec.crash_time_s = crash_time;
            rec.detect_time_s = detect_time;
            result.recoveries.push_back(rec);
            continue;
          }
        }
        gate = std::max(gate, prev_pic_dec_ack[size_t(t)]);
      }
    span(obs::span::kAnidWait, splitter_node(s), 0, split_end, gate,
         uint32_t(i));

    // Is the dead tile decoded this picture, and by whom? Decided after the
    // gate loop: detection happens in there, and adoption must take effect
    // at the resync picture itself, not one picture later.
    // host == -1: nobody (frozen frame); host == adopter: adopted.
    const bool tile_lost = dead && i > fm.crash_at_picture;
    const int dead_host =
        tile_lost ? (resync_pic >= 0 && i >= resync_pic ? adopter : -1)
                  : fm.crash_tile;
    auto active = [&](int t) {
      return !(tile_lost && t == fm.crash_tile && dead_host < 0);
    };
    if (tile_lost && dead_host < 0) ++result.degraded_frames;

    // Send SPs sequentially over the splitter's NIC. A lost tile's SP is not
    // sent; an adopted tile's SP goes to the adopter's node.
    double nic = gate;
    for (int t = 0; t < T; ++t) {
      if (!active(t)) continue;
      const int host = (t == fm.crash_tile) ? dead_host : t;
      const double bytes = double(tr.sp_msg_bytes[size_t(t)]) + kMsgHeader;
      nic += xfer(splitter_node(s), decoder_node(host), size_t(bytes));
      sp_arrival[size_t(t)] = nic + link.latency_s;
      result.traffic[size_t(splitter_node(s))].sent_bytes += bytes;
      result.traffic[size_t(decoder_node(host))].recv_bytes += bytes;
      result.traffic_matrix.add(splitter_node(s), decoder_node(host),
                                uint64_t(bytes));
      result.splitter_busy_s[size_t(s)] += link.transfer_s(size_t(bytes));
    }
    span(obs::span::kRouteSp, splitter_node(s), 0, gate, nic, uint32_t(i));
    splitter_free[size_t(s)] = nic;

    // Decoders: phase 1 — receive SP, ack, serve remote macroblocks. An
    // adopting node handles its own tile first, then the adopted tile
    // (sequential compute on one CPU) — so the adopted tile goes last.
    std::vector<int> order;
    order.reserve(size_t(T));
    for (int t = 0; t < T; ++t)
      if (t != fm.crash_tile || !tile_lost) order.push_back(t);
    if (tile_lost && dead_host >= 0) order.push_back(fm.crash_tile);

    for (const int t : order) {
      if (!active(t)) continue;
      const int host = (t == fm.crash_tile) ? dead_host : t;
      const bool merged = host != t;  // adopted tile rides the host's CPU
      DecoderBreakdown& bd = result.decoders[size_t(host)];
      const double arr = sp_arrival[size_t(t)];
      const double host_free =
          merged ? serve_end[size_t(host)] : decoder_free[size_t(t)];
      const double st = std::max(arr, host_free);
      start[size_t(t)] = st;
      bd.receive += std::max(0.0, arr - host_free);
      span(obs::span::kRecvSp, decoder_node(host), t, host_free, arr,
           uint32_t(i));

      // Ack to the next picture's splitter.
      prev_pic_dec_ack[size_t(t)] = st + link.ack_cpu_s +
                                    link.transfer_s(size_t(kAckBytes)) +
                                    link.latency_s;
      bd.ack += link.ack_cpu_s;
      span(obs::span::kAckPic, decoder_node(host), t, st,
           st + link.ack_cpu_s, uint32_t(i));
      const int next_s = params.two_level ? int(topo.nsid(uint32_t(i))) : 0;
      result.traffic[size_t(decoder_node(host))].sent_bytes += kAckBytes;
      result.traffic[size_t(splitter_node(next_s))].recv_bytes += kAckBytes;
      result.traffic_matrix.add(decoder_node(host), splitter_node(next_s),
                                uint64_t(kAckBytes));

      // Serve: extraction CPU plus NIC time for outgoing exchange messages.
      double tx = 0.0;
      for (int d = 0; d < T; ++d) {
        if (!active(d)) continue;
        const double bytes = double(tr.exchange_bytes.at(t, d));
        if (bytes == 0.0) continue;
        const int dh = (d == fm.crash_tile) ? dead_host : d;
        if (dh == host) continue;  // co-hosted tiles exchange locally
        tx += xfer(decoder_node(host), decoder_node(dh),
                   size_t(bytes + kMsgHeader));
        result.traffic[size_t(decoder_node(host))].sent_bytes +=
            bytes + kMsgHeader;
        result.traffic[size_t(decoder_node(dh))].recv_bytes +=
            bytes + kMsgHeader;
        result.traffic_matrix.add(decoder_node(host), decoder_node(dh),
                                  uint64_t(bytes + kMsgHeader));
      }
      const double serve = tr.serve_s[size_t(t)] + tx;
      bd.serve += serve;
      serve_end[size_t(t)] = st + link.ack_cpu_s + serve;
      span(obs::span::kServeSp, decoder_node(host), t, st + link.ack_cpu_s,
           serve_end[size_t(t)], uint32_t(i));
    }

    // Phase 2 — wait for remote macroblocks, then decode. The adopted tile
    // decodes after the host's own tile on the same CPU.
    for (const int t : order) {
      if (!active(t)) continue;
      const int host = (t == fm.crash_tile) ? dead_host : t;
      DecoderBreakdown& bd = result.decoders[size_t(host)];
      double ready =
          host != t ? decoder_free[size_t(host)] : serve_end[size_t(t)];
      for (int src = 0; src < T; ++src) {
        if (tr.exchange_bytes.at(src, t) == 0) continue;
        if (!active(src)) continue;  // concealed: dead tile sends nothing
        ready = std::max(ready, serve_end[size_t(src)] + link.latency_s);
      }
      bd.wait_remote += std::max(0.0, ready - serve_end[size_t(t)]);
      span(obs::span::kWaitHalo, decoder_node(host), t, serve_end[size_t(t)],
           ready, uint32_t(i));
      const double decode_end = ready + tr.decode_s[size_t(t)];
      span(obs::span::kDecodeSp, decoder_node(host), t, ready, decode_end,
           uint32_t(i));
      bd.work += tr.decode_s[size_t(t)];
      decoder_free[size_t(host)] = decode_end;
      if (host != t) decoder_free[size_t(t)] = decode_end;

      if (crash_on && !dead && t == fm.crash_tile &&
          i == fm.crash_at_picture) {
        dead = true;
        crash_time = decode_end;
        detect_time = crash_time + fm.hb_timeout_s;
        // Rounding guard: the reported detection latency
        // (detect_time - crash_time) must never fall below the configured
        // timeout just because the sum rounded down.
        while (detect_time - crash_time < fm.hb_timeout_s)
          detect_time = std::nextafter(detect_time, kInf);
      }
      if (!result.recoveries.empty() && resync_pic == i &&
          t == fm.crash_tile) {
        SimRecovery& rec = result.recoveries.back();
        rec.resync_time_s = decode_end;
        rec.recovery_latency_s = decode_end - rec.crash_time_s;
      }
    }
  }

  // Degraded mode (or no adopter): the wall stalls only until detection.
  for (SimRecovery& rec : result.recoveries)
    if (rec.resync_picture < 0)
      rec.recovery_latency_s = rec.detect_time_s - rec.crash_time_s;

  double makespan = 0.0;
  for (int t = 0; t < T; ++t)
    makespan = std::max(makespan, decoder_free[size_t(t)]);
  result.makespan_s = makespan;
  result.fps = double(N) / makespan;
  return result;
}

MeasuredCosts measure_costs(const std::vector<PictureTrace>& traces) {
  MeasuredCosts costs;
  if (traces.empty()) return costs;
  double sum_split = 0, sum_copy = 0, sum_max_decode = 0, sum_decode = 0;
  int64_t tile_samples = 0;
  for (const PictureTrace& tr : traces) {
    sum_split += tr.split_s;
    sum_copy += tr.copy_s;
    double mx = 0;
    for (double d : tr.decode_s) {
      mx = std::max(mx, d);
      sum_decode += d;
      ++tile_samples;
    }
    sum_max_decode += mx;
  }
  const double n = double(traces.size());
  costs.t_split = sum_split / n;
  costs.t_copy = sum_copy / n;
  costs.t_decode = sum_max_decode / n;
  costs.t_decode_mean = tile_samples ? sum_decode / double(tile_samples) : 0;
  return costs;
}

}  // namespace pdw::sim
