#include "probe.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "mpeg2/decoder.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "proto/wire.h"
#include "wall_math.h"

namespace wallbench {

using namespace pdw;

namespace {

constexpr uint32_t kNoPic = obs::Tracer::kNoPic;

// One Perfetto process per layer, above the wall's node ids; tile t of the
// tile decoder layer is kTilePid + t.
enum ProbePid : int {
  kRootPid = 9000,
  kSplitPid,
  kWirePid,
  kNetPid,
  kSerialPid,
  kTilePid,
};

constexpr char kRootScan[] = "RootSplitter::RootSplitter";
constexpr char kSplit[] = "MacroblockSplitter::split";
constexpr char kPack[] = "proto::pack_sp";
constexpr char kDecodeMsg[] = "proto::decode";
constexpr char kSend[] = "SocketFabric::send";
constexpr char kReceive[] = "SocketFabric::receive_for";
constexpr char kRendezvous[] = "rendezvous_join";
constexpr char kExtract[] = "TileDecoder::extract_for_send";
constexpr char kAddHalo[] = "TileDecoder::add_halo_mb";
constexpr char kTileDecode[] = "TileDecoder::decode";
constexpr char kSerialDecode[] = "Mpeg2Decoder::decode_picture_span";

constexpr int kScanRepeats = 5;
constexpr int kRendezvousRepeats = 5;

// Run f() inside a span of `tracer` and return what it returns.
template <class F>
decltype(auto) timed(obs::Tracer& tracer, const char* name, int pid,
                     uint32_t pic, F&& f) {
  struct Recorder {
    obs::Tracer& tracer;
    const char* name;
    int pid;
    uint32_t pic;
    uint64_t start = tracer.now_ns();
    ~Recorder() {
      tracer.record(name, pid, start, tracer.now_ns() - start, pic);
    }
  } recorder{tracer, name, pid, pic};
  return f();
}

// One rendezvous of `nodes` joiners, one thread each, against a fresh
// listener; returns the time until the last joiner holds the map.
double rendezvous_round(int nodes, obs::Tracer& tracer) {
  net::RendezvousServer rv(nodes);
  rv.serve_async();
  std::vector<std::unique_ptr<net::SocketFabric>> fabrics;
  for (int n = 0; n < nodes; ++n)
    fabrics.push_back(std::make_unique<net::SocketFabric>(n, nodes));
  std::vector<net::RendezvousStatus> status(static_cast<size_t>(nodes),
                                            net::RendezvousStatus::kTimeout);
  std::vector<uint64_t> done_ns(static_cast<size_t>(nodes), 0);
  const uint64_t t0 = tracer.now_ns();
  std::vector<std::thread> joiners;
  for (int n = 0; n < nodes; ++n) {
    joiners.emplace_back([&, n] {
      std::vector<net::Endpoint> peers;
      status[size_t(n)] = timed(tracer, kRendezvous, kNetPid, kNoPic, [&] {
        return net::rendezvous_join(rv.endpoint(), n,
                                    fabrics[size_t(n)]->local_endpoint(),
                                    nodes, &peers);
      });
      done_ns[size_t(n)] = tracer.now_ns();
    });
  }
  for (std::thread& t : joiners) t.join();
  PDW_CHECK(rv.result() == net::RendezvousStatus::kOk);
  for (net::RendezvousStatus st : status)
    PDW_CHECK(st == net::RendezvousStatus::kOk);
  return double(*std::max_element(done_ns.begin(), done_ns.end()) - t0) / 1e6;
}

// Totals of the probe's spans, read back from the tracer.
struct SpanTotals {
  std::map<std::pair<std::string, int>, obs::Tracer::Agg> agg;

  double ms(std::string_view name) const {
    uint64_t ns = 0;
    for (const auto& [key, a] : agg)
      if (key.first == name) ns += a.total_ns;
    return double(ns) / 1e6;
  }
  uint64_t count(std::string_view name) const {
    uint64_t n = 0;
    for (const auto& [key, a] : agg)
      if (key.first == name) n += a.count;
    return n;
  }
  double pid_ms(int pid) const {
    uint64_t ns = 0;
    for (const auto& [key, a] : agg)
      if (key.second == pid) ns += a.total_ns;
    return double(ns) / 1e6;
  }
};

}  // namespace

ProbeResult run_probe(std::span<const uint8_t> es,
                      const wall::TileGeometry& geo, int nodes,
                      obs::Tracer* tracer) {
  obs::Tracer& tr = *tracer;
  const int tiles = geo.tiles();
  std::unique_ptr<core::RootSplitter> root;
  for (int rep = 0; rep < kScanRepeats; ++rep)
    root = timed(tr, kRootScan, kRootPid, kNoPic, [&] {
      return std::make_unique<core::RootSplitter>(es);
    });
  const int pictures = root->picture_count();
  const core::StreamInfo& info = root->stream_info();

  core::MacroblockSplitter splitter(geo);
  splitter.set_stream_info(info);
  std::vector<std::unique_ptr<core::TileDecoder>> decs;
  for (int t = 0; t < tiles; ++t)
    decs.push_back(std::make_unique<core::TileDecoder>(geo, t, info));
  mpeg2::Mpeg2Decoder serial;
  int serial_frames = 0, tile_frames = 0;
  const mpeg2::Mpeg2Decoder::FrameCallback serial_cb =
      [&](const mpeg2::Frame&, const mpeg2::DecodedPictureInfo&) {
        ++serial_frames;
      };
  const core::TileDecoder::DisplayFn tile_cb =
      [&](const mpeg2::TileFrame&, const core::TileDisplayInfo&) {
        ++tile_frames;
      };

  // A loopback fabric pair carries every packed sub-picture once.
  net::SocketFabric tx(0, 2), rx(1, 2);
  tx.set_peers({tx.local_endpoint(), rx.local_endpoint()});
  rx.set_peers({tx.local_endpoint(), rx.local_endpoint()});

  uint64_t in_bytes = 0, out_bytes = 0, pairs = 0, halo_mbs = 0;
  struct Halo {
    core::MeiInstruction instr;
    mpeg2::MacroblockPixels px;
  };
  for (int i = 0; i < pictures; ++i) {
    const uint32_t pic = uint32_t(i);
    timed(tr, kSerialDecode, kSerialPid, pic, [&] {
      serial.decode_picture_span(es, root->span(i), serial_cb);
    });

    const mem::Bytes coded = mem::Bytes::copy_of(root->picture(i));
    const core::SplitResult sr = timed(
        tr, kSplit, kSplitPid, pic, [&] { return splitter.split(coded, pic); });
    PDW_CHECK(sr.status.ok()) << " picture " << i << " failed to split";
    in_bytes += sr.stats.input_bytes;
    out_bytes += sr.stats.output_bytes;
    pairs += uint64_t(sr.stats.exchange_pairs);

    std::vector<core::SubPicture> subs(static_cast<size_t>(tiles));
    std::vector<std::vector<core::MeiInstruction>> meis(
        static_cast<size_t>(tiles));
    for (int t = 0; t < tiles; ++t) {
      const proto::Packed packed = timed(tr, kPack, kWirePid, pic, [&] {
        return proto::pack_sp(pic, uint16_t(t), 0, sr.subpictures[size_t(t)],
                              sr.mei[size_t(t)]);
      });
      net::Message m;
      m.src = 0;
      m.type = int(proto::MsgType::kSubPicture);
      m.seq = pic;
      m.aux = uint16_t(t);
      m.bulk = true;
      m.payload = packed.body;
      rx.post_receive(1);
      const net::SendStatus sent =
          timed(tr, kSend, kNetPid, pic, [&] { return tx.send(0, 1, m); });
      PDW_CHECK(sent == net::SendStatus::kOk)
          << " loopback send failed for sub-picture " << i << "/" << t;
      net::Message got;
      const net::RecvStatus st = timed(tr, kReceive, kNetPid, pic, [&] {
        return rx.receive_for(1, 5.0, &got);
      });
      PDW_CHECK(st == net::RecvStatus::kOk &&
                got.payload.size() == packed.body.size())
          << " loopback lost sub-picture " << i << "/" << t;
      proto::SpMsg msg;
      const bool ok = timed(tr, kDecodeMsg, kWirePid, pic, [&] {
        return proto::decode(got.payload, &msg);
      });
      PDW_CHECK(ok) << " sub-picture " << i << "/" << t << " did not decode";
      subs[size_t(t)] = core::SubPicture::deserialize(msg.subpicture);
      meis[size_t(t)] = std::move(msg.mei);
    }

    // Serve: every tile executes its SENDs; the halos land at their peers.
    std::vector<std::vector<Halo>> inbox(static_cast<size_t>(tiles));
    for (int t = 0; t < tiles; ++t) {
      timed(tr, kExtract, kTilePid + t, pic, [&] {
        for (const core::MeiInstruction& instr : meis[size_t(t)]) {
          if (instr.op != core::MeiOp::kSend) continue;
          core::MeiInstruction recv = instr;
          recv.op = core::MeiOp::kRecv;
          recv.peer = uint16_t(t);
          inbox.at(instr.peer).push_back(
              {recv, decs[size_t(t)]->extract_for_send(subs[size_t(t)].info,
                                                       instr)});
        }
      });
    }
    for (int t = 0; t < tiles; ++t) {
      halo_mbs += inbox[size_t(t)].size();
      timed(tr, kAddHalo, kTilePid + t, pic, [&] {
        for (const Halo& h : inbox[size_t(t)])
          decs[size_t(t)]->add_halo_mb(h.instr, h.px);
      });
    }
    for (int t = 0; t < tiles; ++t)
      timed(tr, kTileDecode, kTilePid + t, pic,
            [&] { decs[size_t(t)]->decode(subs[size_t(t)], tile_cb); });
  }
  serial.flush(serial_cb);
  for (auto& d : decs) d->flush(tile_cb);
  PDW_CHECK_EQ(serial_frames, pictures);
  PDW_CHECK_EQ(tile_frames, pictures * tiles);

  std::vector<double> rendezvous_ms;
  for (int rep = 0; rep < kRendezvousRepeats; ++rep)
    rendezvous_ms.push_back(rendezvous_round(nodes, tr));

  // Tile busy time: every call made on the tile's behalf.
  const SpanTotals spans{tr.aggregate()};
  double busy_sum = 0, busy_max = 0;
  for (int t = 0; t < tiles; ++t) {
    const double b = spans.pid_ms(kTilePid + t);
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }

  const double pics = pictures;
  const double tile_pics = pics * tiles;
  ProbeResult r;
  r.root_scan_us_per_pic = spans.ms(kRootScan) * 1e3 / kScanRepeats / pics;
  r.split_ms_per_pic = spans.ms(kSplit) / pics;
  r.split_out_in_ratio =
      double(out_bytes) / double(std::max<uint64_t>(in_bytes, 1));
  r.split_exchange_pairs_per_pic = double(pairs) / pics;
  r.tile_decode_ms_per_pic = spans.ms(kTileDecode) / tile_pics;
  r.tile_decode_imbalance = busy_sum > 0 ? busy_max / (busy_sum / tiles) : 0;
  r.tile_serve_ms_per_pic = spans.ms(kExtract) / tile_pics;
  r.tile_halo_mbs_per_pic = double(halo_mbs) / tile_pics;
  r.wire_pack_us_per_pic = spans.ms(kPack) * 1e3 / pics;
  r.wire_decode_us_per_pic = spans.ms(kDecodeMsg) * 1e3 / pics;
  r.net_msg_us = (spans.ms(kSend) + spans.ms(kReceive)) * 1e3 /
                 double(std::max<uint64_t>(spans.count(kSend), 1));
  r.net_rendezvous_ms = median(rendezvous_ms);
  return r;
}

std::string probe_lane_name(int pid) {
  switch (pid) {
    case kRootPid: return "probe: core/root_splitter";
    case kSplitPid: return "probe: core/mb_splitter";
    case kWirePid: return "probe: proto";
    case kNetPid: return "probe: net";
    case kSerialPid: return "probe: mpeg2 (serial decoder)";
    default:
      return "probe: core/tile_decoder tile " + std::to_string(pid - kTilePid);
  }
}

}  // namespace wallbench
