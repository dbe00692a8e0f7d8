// Emit one packed wire body per protocol message type into <root>/wire —
// the seed corpus for fuzz/fuzz_wire.cpp — the two sideband datagram
// formats into <root>/telemetry (fuzz_telemetry) and <root>/rendezvous
// (fuzz_rendezvous), and SocketFabric datagram sequences into <root>/fabric
// (fuzz_fabric). Valid inputs (plus the corpus script's bit-flip variants of
// them) reach every field parser, which random bytes rarely do.
//
// Usage: wire_seed_tool <root>
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/telemetry.h"
#include "proto/wire.h"

using namespace pdw;

namespace {

void write_file(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void write_seed(const std::string& dir, const char* name,
                const proto::Packed& p) {
  write_file(dir + "/" + name + ".wire", p.body);
}

// Append one message's datagrams, fragments of `frag` payload bytes sent in
// `order`, in fuzz_fabric's input format: [u16 length][datagram] each.
void append_datagrams(std::vector<uint8_t>* out, net::DatagramHeader h,
                      std::span<const uint8_t> payload, size_t frag,
                      std::initializer_list<uint16_t> order) {
  h.total = uint32_t(payload.size());
  h.count = uint16_t((payload.size() + frag - 1) / frag);
  for (const uint16_t i : order) {
    h.index = i;
    h.off = uint32_t(i * frag);
    const auto bytes =
        payload.subspan(h.off, std::min<size_t>(frag, h.total - h.off));
    uint8_t hdr[net::kDatagramHeaderBytes];
    net::encode_datagram_header(h, hdr);
    const uint16_t len = uint16_t(sizeof(hdr) + bytes.size());
    out->insert(out->end(), {uint8_t(len), uint8_t(len >> 8)});
    out->insert(out->end(), hdr, hdr + sizeof(hdr));
    out->insert(out->end(), bytes.begin(), bytes.end());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <root>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  const std::string dir = root + "/wire";

  proto::PictureMsg pic;
  pic.pic_index = 5;
  pic.nsid = 1;
  pic.coded = {0x00, 0x00, 0x01, 0x00, 0x12, 0x34, 0x56, 0x78};
  write_seed(dir, "picture", proto::pack(pic));

  proto::SpMsg sp;
  sp.pic_index = 5;
  sp.tile = 2;
  sp.subpicture = mem::Bytes::filled(64, 0xA5);
  core::MeiInstruction send;
  send.op = core::MeiOp::kSend;
  send.mb_x = 3;
  send.mb_y = 4;
  send.peer = 1;
  sp.mei.push_back(send);
  sp.mei.push_back(core::make_conceal(1, 2, 0x80, 0x70, 0x60));
  write_seed(dir, "subpicture", proto::pack(sp));

  proto::GoAheadAck ack;
  ack.pic_index = 6;
  write_seed(dir, "goahead", proto::pack(ack));

  proto::ExchangeMsg ex;
  ex.pic_index = 5;
  ex.src_tile = 1;
  ex.dst_tile = 2;
  proto::ExchangeEntry e;
  e.instr.op = core::MeiOp::kRecv;
  e.instr.mb_x = 7;
  e.instr.mb_y = 8;
  e.instr.peer = 1;
  for (size_t i = 0; i < sizeof(e.px.y); ++i) e.px.y[i] = uint8_t(i);
  ex.entries.push_back(e);
  write_seed(dir, "exchange", proto::pack(ex));

  write_seed(dir, "end_of_stream", proto::pack(proto::EndOfStream{}));
  write_seed(dir, "heartbeat", proto::pack(proto::Heartbeat{3, 0}));
  write_seed(dir, "finished", proto::pack(proto::Finished{2, 0}));

  proto::DeathNotice dn;
  dn.dead_tile = 1;
  dn.adopter_tile = 3;
  dn.resync_pic = 12;
  write_seed(dir, "death_notice", proto::pack(dn));
  dn.adopter_tile = proto::kNoTile;
  write_seed(dir, "death_degraded", proto::pack(dn));

  write_seed(dir, "skip", proto::pack(proto::SkipBroadcast{4, 1, 0}));

  proto::PartitionUpdateMsg pu;
  pu.epoch = 2;
  pu.apply_from_pic = 12;
  pu.col_cuts_mb = {5, 11};
  pu.row_cuts_mb = {4};
  write_seed(dir, "partition_update", proto::pack(pu));

  proto::CostReportMsg cr;
  cr.pic_index = 7;
  cr.col_cost = {10, 20, 30, 40};
  cr.row_cost = {25, 75};
  write_seed(dir, "cost_report", proto::pack(cr));

  obs::TelemetryFrame frame;
  frame.token = 7;
  frame.seq = 3;
  frame.hello = obs::HelloRecord{4242, 1, 1, 3, {0, 1, 2}};
  frame.metrics.push_back({"pictures_decoded", 2, 0,
                           obs::MetricKind::kCounter, 42, 0, 0, {}});
  frame.metrics.push_back({"decode_ns", 2, -1, obs::MetricKind::kHistogram, 3,
                           0, 9000, {{12, 2}, {13, 1}}});
  frame.spans.push_back({"decode_sp", 'X', 2, 1, 1000, 500, 7});
  frame.bye = true;
  write_file(root + "/telemetry/frame.bin", obs::encode_frame(frame));

  // Rendezvous datagrams of a 3-node wall.
  using Kind = net::RendezvousMsg::Kind;
  const net::Endpoint ep{net::kLoopbackIp, 40000};
  const std::pair<const char*, net::RendezvousMsg> rv[] = {
      {"join", {Kind::kJoin, 1, ep, {}}},
      {"map", {Kind::kMap, 0, {}, {ep, ep, ep}}},
      {"map_ack", {Kind::kMapAck, 2, {}, {}}},
      {"done", {Kind::kDone, 0, {}, {}}}};
  for (const auto& [name, msg] : rv)
    write_file(root + "/rendezvous/" + name + ".bin",
               net::encode_rendezvous(msg));

  // Fabric datagrams for node 1 of a 3-node wall: a single-fragment
  // message; a bulk message in three fragments arriving out of order; and
  // the first halves of kMaxPartials + 1 messages, one more than the
  // reassembly map holds.
  std::vector<uint8_t> payload(24);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = uint8_t(i * 11);
  const std::span<const uint8_t> short_payload = std::span(payload).first(16);
  net::DatagramHeader h;
  h.header.src = 0;
  h.header.type = 2;
  h.header.seq = 5;
  h.header.aux = 1;
  h.header.tseq = 3;
  h.msg_id = 1;
  std::vector<uint8_t> dgrams;
  append_datagrams(&dgrams, h, short_payload, 16, {0});
  write_file(root + "/fabric/single.bin", dgrams);
  h.header.src = 2;
  h.header.bulk = true;
  h.msg_id = 2;
  dgrams.clear();
  append_datagrams(&dgrams, h, payload, 8, {0, 2, 1});
  write_file(root + "/fabric/multi.bin", dgrams);
  dgrams.clear();
  for (size_t m = 0; m <= net::kMaxPartials; ++m) {
    h.msg_id = uint32_t(100 + m);
    append_datagrams(&dgrams, h, short_payload, 8, {0});
  }
  write_file(root + "/fabric/partials.bin", dgrams);
  return 0;
}
