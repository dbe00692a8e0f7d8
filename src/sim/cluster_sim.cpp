#include "sim/cluster_sim.h"

#include <algorithm>

#include "common/check.h"
#include "net/fabric.h"
#include "obs/trace.h"
#include "proto/nodes.h"

namespace pdw::sim {

using core::PictureTrace;

namespace {
constexpr double kAckBytes = double(net::Message::kHeaderBytes);
constexpr double kMsgHeader = double(net::Message::kHeaderBytes);
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

  SimResult result;
  result.pictures = N;
  result.nodes = params.two_level ? 1 + k + T : 1 + T;
  result.first_decoder_node = params.two_level ? 1 + k : 1;
  result.traffic_matrix.reset(result.nodes);

  // Virtual-time trace emission: every modeled stage lands in the global
  // tracer as a completed span (same canonical names the runtime engines
  // record), pid-offset so Perfetto shows the modeled cluster as its own
  // process group. `tid` is the tile lane.
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
      const double send_done =
          t + link.transfer_s(tr.picture_bytes + size_t(kMsgHeader));
      recv_at_splitter[size_t(i)] = send_done + link.latency_s;
      // The splitter acks as soon as it has the picture.
      splitter_ack_at_root[size_t(i)] = recv_at_splitter[size_t(i)] +
                                        link.ack_cpu_s +
                                        link.transfer_s(size_t(kAckBytes)) +
                                        link.latency_s;
      root_free = send_done;
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

  for (int i = 0; i < N; ++i) {
    const PictureTrace& tr = traces[size_t(i)];

    int s = 0;
    if (params.two_level) {
      s = topo.splitter_for_picture(uint32_t(i));
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

    // Gate on decoder acks for the previous picture (ANID redirection: those
    // acks were addressed to *this* splitter).
    double gate = split_end;
    if (i > 0)
      for (int t = 0; t < T; ++t)
        gate = std::max(gate, prev_pic_dec_ack[size_t(t)]);
    span(obs::span::kAnidWait, splitter_node(s), 0, split_end, gate,
         uint32_t(i));

    // Send SPs sequentially over the splitter's NIC.
    double nic = gate;
    for (int t = 0; t < T; ++t) {
      const double bytes = double(tr.sp_msg_bytes[size_t(t)]) + kMsgHeader;
      nic += link.transfer_s(size_t(bytes));
      sp_arrival[size_t(t)] = nic + link.latency_s;
      result.traffic_matrix.add(splitter_node(s), decoder_node(t),
                                uint64_t(bytes));
    }
    span(obs::span::kRouteSp, splitter_node(s), 0, gate, nic, uint32_t(i));
    splitter_free[size_t(s)] = nic;

    // Decoders: phase 1 — receive SP, ack, serve remote macroblocks.
    for (int t = 0; t < T; ++t) {
      const double arr = sp_arrival[size_t(t)];
      const double st = std::max(arr, decoder_free[size_t(t)]);
      span(obs::span::kRecvSp, decoder_node(t), t, decoder_free[size_t(t)],
           arr, uint32_t(i));

      // Ack to the next picture's splitter.
      prev_pic_dec_ack[size_t(t)] = st + link.ack_cpu_s +
                                    link.transfer_s(size_t(kAckBytes)) +
                                    link.latency_s;
      span(obs::span::kAckPic, decoder_node(t), t, st, st + link.ack_cpu_s,
           uint32_t(i));
      const int next_s = params.two_level ? int(topo.nsid(uint32_t(i))) : 0;
      result.traffic_matrix.add(decoder_node(t), splitter_node(next_s),
                                uint64_t(kAckBytes));

      // Serve: extraction CPU plus NIC time for outgoing exchange messages.
      double tx = 0.0;
      for (int d = 0; d < T; ++d) {
        const double bytes = double(tr.exchange_bytes.at(t, d));
        if (bytes == 0.0 || d == t) continue;
        tx += link.transfer_s(size_t(bytes + kMsgHeader));
        result.traffic_matrix.add(decoder_node(t), decoder_node(d),
                                  uint64_t(bytes + kMsgHeader));
      }
      serve_end[size_t(t)] = st + link.ack_cpu_s + (tr.serve_s[size_t(t)] + tx);
      span(obs::span::kServeSp, decoder_node(t), t, st + link.ack_cpu_s,
           serve_end[size_t(t)], uint32_t(i));
    }

    // Phase 2 — wait for remote macroblocks, then decode.
    for (int t = 0; t < T; ++t) {
      double ready = serve_end[size_t(t)];
      for (int src = 0; src < T; ++src) {
        if (tr.exchange_bytes.at(src, t) == 0) continue;
        ready = std::max(ready, serve_end[size_t(src)] + link.latency_s);
      }
      span(obs::span::kWaitHalo, decoder_node(t), t, serve_end[size_t(t)],
           ready, uint32_t(i));
      decoder_free[size_t(t)] = ready + tr.decode_s[size_t(t)];
      span(obs::span::kDecodeSp, decoder_node(t), t, ready,
           decoder_free[size_t(t)], uint32_t(i));
    }
  }

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
