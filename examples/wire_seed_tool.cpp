// Emit one packed wire body per protocol message type — the seed corpus for
// fuzz/fuzz_wire.cpp. Valid bodies (plus the corpus script's bit-flip
// variants of them) reach every field parser, which random bytes rarely do.
//
// Usage: wire_seed_tool <out-dir>
#include <cstdio>
#include <fstream>
#include <string>

#include "proto/wire.h"

using namespace pdw;

namespace {

void write_seed(const std::string& dir, const char* name,
                const proto::Packed& p) {
  const std::string path = dir + "/" + name + ".wire";
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(p.body.data()),
            std::streamsize(p.body.size()));
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out-dir>\n", argv[0]);
    return 2;
  }
  const std::string dir = argv[1];

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

  proto::StreamRequest req;
  req.width_mb = 45;
  req.height_mb = 30;
  req.fps = 24;
  req.priority = proto::PriorityClass::kPremium;
  req.stream = 3;
  write_seed(dir, "stream_request", proto::pack(req));

  proto::StreamReply rep;
  rep.verdict = proto::AdmissionVerdict::kRenegotiate;
  rep.level = proto::DegradeLevel::kSkipB;
  rep.stream = 3;
  write_seed(dir, "stream_reply", proto::pack(rep));
  return 0;
}
