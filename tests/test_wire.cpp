// Round-trip and rejection tests for the typed wire codec (proto/wire.h).
// Every message type must survive pack() -> decode() bit-exactly, the
// envelope must agree with the typed fields, and malformed bodies must be
// rejected by returning false — never by crashing.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/subpicture.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/telemetry.h"
#include "proto/wire.h"

namespace pdw::proto {
namespace {

PictureMsg sample_picture() {
  PictureMsg m;
  m.pic_index = 41;
  m.nsid = 2;
  m.stream = 3;
  m.epoch = 4;
  m.coded = {0x00, 0x00, 0x01, 0x00, 0xAB, 0xCD};
  return m;
}

SpMsg sample_sp() {
  SpMsg m;
  m.pic_index = 7;
  m.tile = 5;
  m.stream = 1;
  m.epoch = 2;
  m.subpicture = {1, 2, 3, 4, 5};
  core::MeiInstruction send;
  send.op = core::MeiOp::kSend;
  send.ref = 1;
  send.mb_x = 10;
  send.mb_y = 20;
  send.peer = 3;
  m.mei.push_back(send);
  m.mei.push_back(core::make_conceal(4, 6, 0x80, 0x70, 0x60));
  return m;
}

ExchangeMsg sample_exchange() {
  ExchangeMsg m;
  m.pic_index = 9;
  m.src_tile = 1;
  m.dst_tile = 2;
  m.stream = 0;
  ExchangeEntry e;
  e.instr.op = core::MeiOp::kRecv;
  e.instr.ref = 0;
  e.instr.mb_x = 11;
  e.instr.mb_y = 13;
  e.instr.peer = 1;
  e.tainted = true;
  for (size_t i = 0; i < sizeof(e.px.y); ++i) e.px.y[i] = uint8_t(i * 7);
  m.entries.push_back(e);
  e.tainted = false;
  e.instr.mb_x = 12;
  m.entries.push_back(e);
  return m;
}

template <typename T>
T roundtrip(const T& in) {
  const Packed p = pack(in);
  T out;
  EXPECT_TRUE(decode(p.body, &out));
  return out;
}

TEST(WireRoundtrip, Picture) {
  const PictureMsg m = sample_picture();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kPicture);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_EQ(p.aux, m.nsid);
  EXPECT_TRUE(p.bulk);
  EXPECT_EQ(p.body.size(), picture_msg_wire_bytes(m.coded.size()));
}

TEST(WireRoundtrip, SubPicture) {
  SpMsg m = sample_sp();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kSubPicture);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_EQ(p.aux, m.tile);
  EXPECT_TRUE(p.bulk);
  EXPECT_EQ(p.body.size(),
            sp_msg_wire_bytes(m.subpicture.size(), m.mei.size()));
  // Every MEI op, and the empty list, survive the list's one layout.
  m.mei.push_back({core::MeiOp::kRecv, 1, 200, 180, 15});
  EXPECT_EQ(roundtrip(m), m);
  m.mei.clear();
  EXPECT_EQ(roundtrip(m), m);
  EXPECT_EQ(pack(m).body.size(), sp_msg_wire_bytes(m.subpicture.size(), 0));
}

TEST(WireRoundtrip, GoAheadAck) {
  GoAheadAck m;
  m.pic_index = 123456;
  m.stream = 2;
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kGoAheadAck);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_FALSE(p.bulk);
}

TEST(WireRoundtrip, Exchange) {
  const ExchangeMsg m = sample_exchange();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kExchange);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_EQ(p.aux, m.src_tile);
  EXPECT_EQ(p.body.size(), exchange_msg_wire_bytes(m.entries.size()));
}

TEST(WireRoundtrip, ControlMessages) {
  EndOfStream eos;
  eos.stream = 4;
  EXPECT_EQ(roundtrip(eos), eos);
  EXPECT_EQ(pack(eos).type, MsgType::kEndOfStream);

  Heartbeat hb;
  hb.tile = 6;
  EXPECT_EQ(roundtrip(hb), hb);
  EXPECT_EQ(pack(hb).aux, hb.tile);

  Finished fin;
  fin.tile = 2;
  fin.stream = 1;
  EXPECT_EQ(roundtrip(fin), fin);
  EXPECT_EQ(pack(fin).type, MsgType::kFinished);

  DeathNotice dn;
  dn.dead_tile = 3;
  dn.adopter_tile = kNoTile;  // degraded mode
  dn.resync_pic = 15;
  EXPECT_EQ(roundtrip(dn), dn);
  EXPECT_EQ(pack(dn).seq, dn.resync_pic);
  EXPECT_EQ(pack(dn).aux, dn.dead_tile);

  SkipBroadcast sk;
  sk.pic_index = 8;
  sk.tile = 1;
  EXPECT_EQ(roundtrip(sk), sk);
  EXPECT_EQ(pack(sk).seq, sk.pic_index);
}

PartitionUpdateMsg sample_partition_update() {
  PartitionUpdateMsg m;
  m.epoch = 3;
  m.apply_from_pic = 24;
  m.stream = 1;
  m.col_cuts_mb = {30, 61, 95};
  m.row_cuts_mb = {40, 77};
  return m;
}

CostReportMsg sample_cost_report() {
  CostReportMsg m;
  m.pic_index = 17;
  m.stream = 1;
  m.col_cost = {10, 900, 3, 0, 77};
  m.row_cost = {5, 5, 1200};
  return m;
}

TEST(WireRoundtrip, PartitionUpdate) {
  const PartitionUpdateMsg m = sample_partition_update();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kPartitionUpdate);
  EXPECT_EQ(p.seq, m.apply_from_pic);
  EXPECT_EQ(p.aux, uint16_t(m.epoch));
  EXPECT_FALSE(p.bulk);
  EXPECT_EQ(p.body.size(), partition_update_wire_bytes(m.col_cuts_mb.size(),
                                                       m.row_cuts_mb.size()));

  // Empty cut lists (a 1x1 "wall") round-trip too.
  PartitionUpdateMsg flat;
  flat.epoch = 1;
  EXPECT_EQ(roundtrip(flat), flat);
}

TEST(WireRoundtrip, CostReport) {
  const CostReportMsg m = sample_cost_report();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kCostReport);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_FALSE(p.bulk);
  EXPECT_EQ(p.body.size(),
            cost_report_wire_bytes(m.col_cost.size(), m.row_cost.size()));
}

TEST(WireReject, PartitionUpdateCutsMustStrictlyIncrease) {
  // Non-increasing or zero cut lines are malformed: a decoder must never
  // build a geometry from them.
  PartitionUpdateMsg m = sample_partition_update();
  m.col_cuts_mb = {30, 30};  // equal
  Packed p = pack(m);
  PartitionUpdateMsg out;
  EXPECT_FALSE(decode(p.body, &out));

  m.col_cuts_mb = {40, 20};  // decreasing
  p = pack(m);
  EXPECT_FALSE(decode(p.body, &out));

  m.col_cuts_mb = {0, 20};  // zero cut (empty first band)
  p = pack(m);
  EXPECT_FALSE(decode(p.body, &out));
}

TEST(WireRoundtrip, DecodeAnyDispatchesEveryType) {
  const auto check = [](const auto& msg) {
    const auto any = decode_any(pack(msg).body);
    ASSERT_TRUE(any.has_value());
    using T = std::decay_t<decltype(msg)>;
    const T* typed = std::get_if<T>(&*any);
    ASSERT_NE(typed, nullptr) << msg_type_name(pack(msg).type);
    EXPECT_EQ(*typed, msg);
  };
  check(sample_picture());
  check(sample_sp());
  check(GoAheadAck{77, 0});
  check(sample_exchange());
  check(EndOfStream{});
  check(Heartbeat{3, 0});
  check(Finished{1, 2});
  check(DeathNotice{2, 0, 30, 0});
  check(SkipBroadcast{5, 3, 0});
  check(sample_partition_update());
  check(sample_cost_report());
}

TEST(WireReject, EmptyAndTruncated) {
  PictureMsg out;
  EXPECT_FALSE(decode(std::span<const uint8_t>{}, &out));
  EXPECT_FALSE(decode_any(std::span<const uint8_t>{}).has_value());

  const Packed p = pack(sample_picture());
  // Every proper prefix of a valid body must be rejected.
  for (size_t n = 0; n < p.body.size(); ++n) {
    EXPECT_FALSE(decode(std::span<const uint8_t>(p.body.data(), n), &out))
        << "accepted a " << n << "-byte prefix";
  }
}

TEST(WireReject, TrailingGarbage) {
  const Packed p = pack(GoAheadAck{1, 0});
  std::vector<uint8_t> grown(p.body.span().begin(), p.body.span().end());
  grown.push_back(0xEE);
  GoAheadAck out;
  EXPECT_FALSE(decode(grown, &out));
}

TEST(WireReject, VersionSkew) {
  Packed p = pack(sample_sp());
  p.body.mutable_data()[0] = uint8_t(kWireVersion + 1);
  SpMsg out;
  EXPECT_FALSE(decode(p.body, &out));
  EXPECT_FALSE(decode_any(p.body).has_value());
}

TEST(WireReject, WrongTypeByte) {
  // A valid heartbeat body must not decode as any other message type.
  const Packed hb = pack(Heartbeat{1, 0});
  PictureMsg pic;
  SpMsg sp;
  ExchangeMsg ex;
  EXPECT_FALSE(decode(hb.body, &pic));
  EXPECT_FALSE(decode(hb.body, &sp));
  EXPECT_FALSE(decode(hb.body, &ex));
}

std::vector<uint8_t> unhex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(uint8_t(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

TEST(WireReject, UnknownTypeByte) {
  Packed p = pack(Heartbeat{1, 0});
  p.body.mutable_data()[1] = 0xFE;
  EXPECT_FALSE(decode_any(p.body).has_value());
  // Well-formed bodies of the retired admission types 10 and 11 (a stream
  // request and a stream reply) name no message any more.
  for (const char* body : {"020a032d001e00180002", "020b030201"})
    EXPECT_FALSE(decode_any(unhex(body)).has_value()) << body;
}

TEST(WireReject, ExchangeCountOverflow) {
  // An entry count larger than the actual payload must not be trusted.
  const ExchangeMsg m = sample_exchange();
  Packed p = pack(m);
  ExchangeMsg out;
  ASSERT_TRUE(decode(p.body, &out));
  // The count field lives in the fixed prelude; force it huge.
  for (size_t i = 2; i + 4 <= p.body.size() && i < 16; ++i) {
    Packed corrupt = p;
    corrupt.body.make_unique();  // copy-on-write: don't scribble on p's block
    corrupt.body.mutable_data()[i] = 0xFF;
    // Either rejected or decoded to something self-consistent — never a
    // crash or an out-of-bounds read (ASan-checked in CI).
    ExchangeMsg dummy;
    (void)decode(corrupt.body, &dummy);
  }
}

TEST(WireSizes, AccountingHelpersMatchPackedBodies) {
  EXPECT_EQ(kExchangeEntryWireBytes,
            sizeof(mpeg2::MacroblockPixels) + core::kMeiWireBytes);
  const ExchangeMsg ex = sample_exchange();
  EXPECT_EQ(pack(ex).body.size(), exchange_msg_wire_bytes(ex.entries.size()));
  const SpMsg sp = sample_sp();
  EXPECT_EQ(pack(sp).body.size(),
            sp_msg_wire_bytes(sp.subpicture.size(), sp.mei.size()));
  const PictureMsg pic = sample_picture();
  EXPECT_EQ(pack(pic).body.size(), picture_msg_wire_bytes(pic.coded.size()));
}

// --- Pinned layouts ----------------------------------------------------------

std::vector<uint8_t> body_of(const Packed& p) {
  return {p.body.span().begin(), p.body.span().end()};
}

std::string hex(std::span<const uint8_t> bytes) {
  std::string out;
  for (const uint8_t b : bytes) {
    out += "0123456789abcdef"[b >> 4];
    out += "0123456789abcdef"[b & 15];
  }
  return out;
}

// A sub-picture with two runs whose every field differs from its default.
core::SubPicture pinned_subpicture() {
  core::SubPicture sp;
  sp.info.pic_index = 17;
  sp.info.type = mpeg2::PicType::P;
  sp.info.f_code[0][0] = 2;
  sp.info.f_code[0][1] = 3;
  sp.info.intra_dc_precision = 1;
  sp.info.q_scale_type = true;
  sp.info.temporal_reference = 5;
  core::SpRun a;
  a.state.dc_pred[0] = 128;
  a.state.dc_pred[1] = -3;
  a.state.dc_pred[2] = 1024;
  a.state.pmv[0][0] = -2;
  a.state.pmv[0][1] = 7;
  a.state.quant_scale_code = 9;
  a.state.prev_motion_flags = 2;
  a.skip_bits = 3;
  a.first_coded_addr = 45;
  a.num_coded = 4;
  a.lead_skip_addr = 44;
  a.lead_skip_count = 1;
  a.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  core::SpRun b;
  b.state.dc_pred[0] = 1;
  b.state.dc_pred[1] = 2;
  b.state.dc_pred[2] = 3;
  b.first_coded_addr = 90;
  b.num_coded = 2;
  b.trail_skip_addr = 92;
  b.trail_skip_count = 3;
  b.payload = {0x11, 0x22};
  sp.runs = {a, b};
  return sp;
}

// The header of the first datagram of a 10-byte message node 1 sends.
std::vector<uint8_t> pinned_datagram_header() {
  net::DatagramHeader h;
  h.header.src = 1;
  h.header.type = 4;
  h.header.seq = 77;
  h.header.aux = 5;
  h.header.bulk = true;
  h.header.tseq = 9;
  h.header.crc = 0xCAFEBABE;
  h.msg_id = 1;
  h.count = 1;
  h.total = 10;
  std::vector<uint8_t> out(net::kDatagramHeaderBytes);
  net::encode_datagram_header(
      h, std::span<uint8_t, net::kDatagramHeaderBytes>(out.data(),
                                                       out.size()));
  return out;
}

obs::TelemetryFrame pinned_frame() {
  obs::TelemetryFrame f;
  f.token = 7;
  f.seq = 3;
  f.hello = obs::HelloRecord{4242, 1, 1, 3, {0, 1, 2}};
  f.metrics.push_back({"pictures_decoded", 2, 0, obs::MetricKind::kCounter,
                       42, 0, 0, {}});
  f.metrics.push_back(
      {"queue_depth", 1, -1, obs::MetricKind::kGauge, 0, -5, 0, {}});
  f.metrics.push_back({"decode_ns", 2, -1, obs::MetricKind::kHistogram, 3, 0,
                       9000, {{12, 2}, {13, 1}}});
  f.spans.push_back({"decode_sp", 'X', 2, 1, 1000, 500, 7});
  f.bye = true;
  return f;
}

// Every wire layout's bytes, as the hand-written encoders produced them
// before the field lists (common/bytes.h) replaced them. Round trips pass
// whenever both sides move together; these catch a layout that moved.
TEST(WireLayout, BytesMatchParent) {
  ExchangeMsg ex;
  ex.pic_index = 9;
  ex.src_tile = 1;
  ex.dst_tile = 2;
  ex.stream = 1;
  ExchangeEntry e;
  e.instr = {core::MeiOp::kRecv, 1, 11, 13, 1};
  e.tainted = true;
  auto* px = reinterpret_cast<uint8_t*>(&e.px);
  for (size_t i = 0; i < sizeof(e.px); ++i) px[i] = uint8_t(i * 7);
  ex.entries.push_back(e);
  PartitionUpdateMsg pu;
  pu.epoch = 2;
  pu.apply_from_pic = 12;
  pu.stream = 1;
  pu.col_cuts_mb = {5, 11};
  pu.row_cuts_mb = {4};
  CostReportMsg cr;
  cr.pic_index = 7;
  cr.stream = 1;
  cr.col_cost = {10, 20, 30, 40};
  cr.row_cost = {25, 75};
  std::vector<uint8_t> sub;
  pinned_subpicture().serialize(&sub);
  using Kind = net::RendezvousMsg::Kind;
  const net::Endpoint ep{net::kLoopbackIp, 40000};

  const struct {
    const char* name;
    std::vector<uint8_t> got;
    const char* want;
  } cases[] = {
      {"picture", body_of(pack(sample_picture())),
       "020103290000000200040000000600000000000100abcd"},
      {"subpicture", body_of(pack(sample_sp())),
       "020201070000000500020000000500000001020304050200000000010a00"
       "140003000280040006006070"},
      {"goahead", body_of(pack(GoAheadAck{6, 2})),
       "02030206000000"},
      {"exchange", body_of(pack(ex)),
       "02040109000000010002000100000081010b000d00010000070e151c232a"
       "31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc"
       "030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ce"
       "d5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0"
       "a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b72"
       "7980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d44"
       "4b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f16"
       "1d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8"
       "eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3ba"
       "c1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c"
       "939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e"
       "656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930"
       "373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb02"
       "0910171e252c333a41484f565d646b7279"},
      {"end_of_stream", body_of(pack(EndOfStream{4})),
       "020504"},
      {"heartbeat", body_of(pack(Heartbeat{3, 1})),
       "0206010300"},
      {"finished", body_of(pack(Finished{2, 1})),
       "0207010200"},
      {"death_notice", body_of(pack(DeathNotice{1, 3, 12, 2})),
       "020802010003000c000000"},
      {"skip", body_of(pack(SkipBroadcast{4, 1, 0})),
       "020900040000000100"},
      {"partition_update", body_of(pack(pu)),
       "020c01020000000c0000000200010005000b000400"},
      {"cost_report", body_of(pack(cr)),
       "020d0107000000040002000a000000140000001e00000028000000190000"
       "004b000000"},
      {"sub_picture", sub,
       "110000000202030f0f01010005000200000080000000fdffffff00040000"
       "feff0700000000000902032d00000004002c000000010000000000000005"
       "000000deadbeef0101000000020000000300000000000000000000000100"
       "005a00000002000000000000005c0000000300020000001122"},
      // The former 48-byte header less its stream byte (offset 18), with
      // the header CRC recomputed over the 43 bytes ahead of it.
      {"datagram_header", pinned_datagram_header(),
       "4657445001000000040000004d00000005000109000000bebafeca010000"
       "00000001000a0000000000000076d2269e"},
      {"rendezvous_join",
       net::encode_rendezvous({Kind::kJoin, 1, ep, {}}),
       "5257445001000000010000000100007f409c0000"},
      {"rendezvous_map",
       net::encode_rendezvous({Kind::kMap, 0, {}, {ep, ep, ep}}),
       "5257445003000000030000000100007f409c00000100007f409c00000100"
       "007f409c0000"},
      {"rendezvous_map_ack",
       net::encode_rendezvous({Kind::kMapAck, 2, {}, {}}),
       "525744500400000002000000"},
      {"rendezvous_done", net::encode_rendezvous({Kind::kDone, 0, {}, {}}),
       "5257445005000000"},
      // Version 3: the version-2 bytes without the clock probe, reply and
      // offset records (types 5-7) and with the record count cut to match.
      {"telemetry_frame", obs::encode_frame(pinned_frame()),
       "504457540300000007000000000000000300000007000133000400107069"
       "6374757265735f6465636f6465640b71756575655f646570746809646563"
       "6f64655f6e73096465636f64655f73700212009210000001000100030003"
       "00000001000200030f00000000020000002a00000000000000030f000100"
       "010100fffffbffffffffffffff032a000200020200ffff03000000000000"
       "002823000000000000020c02000000000000000d01000000000000000421"
       "0001000300580200000001000000e803000000000000f401000000000000"
       "07000000080000"},
  };
  for (const auto& c : cases) EXPECT_EQ(hex(c.got), c.want) << c.name;
}

}  // namespace
}  // namespace pdw::proto
