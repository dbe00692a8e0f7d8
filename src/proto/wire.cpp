#include "proto/wire.h"

#include "common/bytes.h"
#include "core/subpicture.h"

namespace pdw::proto {

namespace {

// --- Envelopes -------------------------------------------------------------

// The envelope fields transports key on (type, seq, aux, bulk), as derived
// from each message's typed fields. The type also names the body.
Packed envelope(const PictureMsg& m) {
  return {.type = MsgType::kPicture, .seq = m.pic_index, .aux = m.nsid,
          .bulk = true};
}
Packed envelope(const SpMsg& m) {
  return {.type = MsgType::kSubPicture, .seq = m.pic_index, .aux = m.tile,
          .bulk = true};
}
Packed envelope(const GoAheadAck& m) {
  return {.type = MsgType::kGoAheadAck, .seq = m.pic_index};
}
Packed envelope(const ExchangeMsg& m) {
  return {.type = MsgType::kExchange, .seq = m.pic_index, .aux = m.src_tile};
}
Packed envelope(const EndOfStream&) {
  return {.type = MsgType::kEndOfStream};
}
Packed envelope(const Heartbeat& m) {
  return {.type = MsgType::kHeartbeat, .aux = m.tile};
}
Packed envelope(const Finished& m) {
  return {.type = MsgType::kFinished, .aux = m.tile};
}
Packed envelope(const DeathNotice& m) {
  return {.type = MsgType::kDeathNotice, .seq = m.resync_pic,
          .aux = m.dead_tile};
}
Packed envelope(const SkipBroadcast& m) {
  return {.type = MsgType::kSkipBroadcast, .seq = m.pic_index, .aux = m.tile};
}
Packed envelope(const PartitionUpdateMsg& m) {
  return {.type = MsgType::kPartitionUpdate, .seq = m.apply_from_pic,
          .aux = uint16_t(m.epoch)};
}
Packed envelope(const CostReportMsg& m) {
  return {.type = MsgType::kCostReport, .seq = m.pic_index};
}

// --- Field lists (common/bytes.h), in wire order ---------------------------

// An MEI instruction after its op byte.
template <class IO, Layout<core::MeiInstruction> I>
void mei_operands(IO& io, I& i) {
  io.u8(i.ref);
  io.u16(i.mb_x);
  io.u16(i.mb_y);
  io.u16(i.peer);
}

template <class IO, Layout<PictureMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.pic_index);
  io.u16(m.nsid);
  io.u32(m.epoch);
  io.bytes32(m.coded);
}

// The SpMsg fields ahead of the serialized sub-picture (pack_sp writes the
// sub-picture itself straight into the body).
template <class IO, Layout<SpMsg> M>
void sp_head(IO& io, M& m) {
  io.u32(m.pic_index);
  io.u16(m.tile);
  io.u32(m.epoch);
}

template <class IO, class L>
void mei_list(IO& io, L& mei) {
  io.count32(mei, core::kMeiWireBytes);
  for (auto& i : mei) {
    io.u8(i.op);
    io.check(i.op <= core::MeiOp::kConceal);
    mei_operands(io, i);
  }
}

template <class IO, Layout<SpMsg> M>
void fields(IO& io, M& m) {
  sp_head(io, m);
  io.bytes32(m.subpicture);
  mei_list(io, m.mei);
}

template <class IO, Layout<GoAheadAck> M>
void fields(IO& io, M& m) {
  io.u32(m.pic_index);
}

// A halo macroblock rides the 8-byte MEI instruction framing; the tainted
// flag lives in the op byte's high bit so the entry cost stays exactly
// kExchangeEntryWireBytes.
template <class IO, Layout<ExchangeEntry> E>
void fields(IO& io, E& e) {
  uint8_t op = uint8_t(core::MeiOp::kRecv) | (e.tainted ? 0x80 : 0);
  io.u8(op);
  io.check((op & 0x7F) == uint8_t(core::MeiOp::kRecv));
  if constexpr (IO::kDecoding) {
    e.instr.op = core::MeiOp::kRecv;
    e.tainted = (op & 0x80) != 0;
  }
  mei_operands(io, e.instr);
  io.raw(e.px);
}
static_assert(kExchangeEntryWireBytes == 392);

template <class IO, Layout<ExchangeMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.pic_index);
  io.u16(m.src_tile);
  io.u16(m.dst_tile);
  io.count32(m.entries, kExchangeEntryWireBytes);
  for (auto& e : m.entries) fields(io, e);
}

template <class IO, Layout<EndOfStream> M>
void fields(IO&, M&) {}

template <class IO, Layout<Heartbeat> M>
void fields(IO& io, M& m) {
  io.u16(m.tile);
}

template <class IO, Layout<Finished> M>
void fields(IO& io, M& m) {
  io.u16(m.tile);
}

template <class IO, Layout<DeathNotice> M>
void fields(IO& io, M& m) {
  io.u16(m.dead_tile);
  io.u16(m.adopter_tile);
  io.u32(m.resync_pic);
}

template <class IO, Layout<SkipBroadcast> M>
void fields(IO& io, M& m) {
  io.u32(m.pic_index);
  io.u16(m.tile);
}

// Cut lines must strictly increase from a nonzero start: malformed
// partitions are rejected here so state machines never install an invalid
// geometry.
bool increasing(const std::vector<uint16_t>& v) {
  for (size_t i = 0; i < v.size(); ++i)
    if (v[i] == 0 || (i > 0 && v[i] <= v[i - 1])) return false;
  return true;
}

template <class IO, Layout<PartitionUpdateMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.epoch);
  io.u32(m.apply_from_pic);
  io.count16(m.col_cuts_mb, 2);
  io.count16(m.row_cuts_mb, 2);
  for (auto& c : m.col_cuts_mb) io.u16(c);
  for (auto& c : m.row_cuts_mb) io.u16(c);
  io.check(increasing(m.col_cuts_mb) && increasing(m.row_cuts_mb));
}

template <class IO, Layout<CostReportMsg> M>
void fields(IO& io, M& m) {
  io.u32(m.pic_index);
  io.count16(m.col_cost, 4);
  io.count16(m.row_cost, 4);
  for (auto& c : m.col_cost) io.u32(c);
  for (auto& c : m.row_cost) io.u32(c);
}

// Every body opens [version][type][stream], then the message's fields.
template <class IO, class M>
void prefix(IO& io, M& m) {
  const uint8_t type = uint8_t(envelope(m).type);
  uint8_t version = kWireVersion, got = type;
  io.u8(version);
  io.u8(got);
  io.u8(m.stream);
  io.check(version == kWireVersion && got == type);
}

template <class IO, class M>
void body(IO& io, M& m) {
  prefix(io, m);
  fields(io, m);
}

template <class M>
size_t body_bytes(const M& m) {
  ByteSizer s;
  body(s, m);
  return s.size();
}

// The envelope plus an exact-size pooled body, ready for `write` to fill.
// The PDW_CHECK catches any drift between the sizer and the encoding.
template <class M, class Write>
Packed pack_into(const M& m, size_t body_size, Write&& write) {
  Packed p = envelope(m);
  p.body = mem::Bytes::alloc(body_size);
  ByteWriter w(p.body.mutable_data(), body_size);
  write(w);
  PDW_CHECK_EQ(w.size(), body_size);
  return p;
}

template <class M>
Packed pack_msg(const M& m) {
  return pack_into(m, body_bytes(m), [&](ByteWriter& w) { body(w, m); });
}

// Strict decode of one body; `parent` (the block `data` spans, if any)
// makes the bulk fields views instead of copies.
template <class M>
bool decode_body(std::span<const uint8_t> data, const mem::Bytes* parent,
                 M* out) {
  ByteReader r(data, parent);
  body(r, *out);
  return r.done();
}

std::optional<AnyMsg> decode_any_body(std::span<const uint8_t> data,
                                      const mem::Bytes* parent) {
  if (data.size() < 2) return std::nullopt;
  const auto as = [&](auto msg) -> std::optional<AnyMsg> {
    if (!decode_body(data, parent, &msg)) return std::nullopt;
    return AnyMsg(std::move(msg));
  };
  switch (MsgType(data[1])) {
    case MsgType::kPicture: return as(PictureMsg{});
    case MsgType::kSubPicture: return as(SpMsg{});
    case MsgType::kGoAheadAck: return as(GoAheadAck{});
    case MsgType::kExchange: return as(ExchangeMsg{});
    case MsgType::kEndOfStream: return as(EndOfStream{});
    case MsgType::kHeartbeat: return as(Heartbeat{});
    case MsgType::kFinished: return as(Finished{});
    case MsgType::kDeathNotice: return as(DeathNotice{});
    case MsgType::kSkipBroadcast: return as(SkipBroadcast{});
    case MsgType::kPartitionUpdate: return as(PartitionUpdateMsg{});
    case MsgType::kCostReport: return as(CostReportMsg{});
  }
  return std::nullopt;
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kPicture: return "picture";
    case MsgType::kSubPicture: return "sub-picture";
    case MsgType::kGoAheadAck: return "go-ahead/ack";
    case MsgType::kExchange: return "exchange";
    case MsgType::kEndOfStream: return "end-of-stream";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kFinished: return "finished";
    case MsgType::kDeathNotice: return "death-notice";
    case MsgType::kSkipBroadcast: return "skip";
    case MsgType::kPartitionUpdate: return "partition-update";
    case MsgType::kCostReport: return "cost-report";
  }
  return "unknown";
}

// --- Packing ---------------------------------------------------------------

Packed pack_picture(uint32_t pic_index, uint16_t nsid, uint8_t stream,
                    std::span<const uint8_t> coded, uint32_t epoch) {
  return pack_msg(PictureMsg{pic_index, nsid, stream, epoch,
                             mem::Bytes::borrow(coded)});
}

Packed pack_sp(uint32_t pic_index, uint16_t tile, uint8_t stream,
               const core::SubPicture& sp,
               const std::vector<core::MeiInstruction>& mei, uint32_t epoch) {
  SpMsg head;
  head.pic_index = pic_index;
  head.tile = tile;
  head.stream = stream;
  head.epoch = epoch;
  const size_t sp_len = sp.wire_bytes();
  return pack_into(head, sp_msg_wire_bytes(sp_len, mei.size()),
                   [&](ByteWriter& w) {
                     prefix(w, head);
                     sp_head(w, head);
                     w.u32(sp_len);  // SpMsg::subpicture's length prefix
                     sp.serialize_into(&w);
                     mei_list(w, mei);
                   });
}

Packed pack(const PictureMsg& m) { return pack_msg(m); }
Packed pack(const SpMsg& m) { return pack_msg(m); }
Packed pack(const GoAheadAck& m) { return pack_msg(m); }
Packed pack(const ExchangeMsg& m) { return pack_msg(m); }
Packed pack(const EndOfStream& m) { return pack_msg(m); }
Packed pack(const Heartbeat& m) { return pack_msg(m); }
Packed pack(const Finished& m) { return pack_msg(m); }
Packed pack(const DeathNotice& m) { return pack_msg(m); }
Packed pack(const SkipBroadcast& m) { return pack_msg(m); }
Packed pack(const PartitionUpdateMsg& m) { return pack_msg(m); }
Packed pack(const CostReportMsg& m) { return pack_msg(m); }

// --- Decoding --------------------------------------------------------------

bool decode(std::span<const uint8_t> d, PictureMsg* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, SpMsg* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, GoAheadAck* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, ExchangeMsg* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, EndOfStream* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, Heartbeat* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, Finished* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, DeathNotice* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, SkipBroadcast* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, PartitionUpdateMsg* out) {
  return decode_body(d, nullptr, out);
}
bool decode(std::span<const uint8_t> d, CostReportMsg* out) {
  return decode_body(d, nullptr, out);
}
bool decode(const mem::Bytes& d, PictureMsg* out) {
  return decode_body(d.span(), &d, out);
}
bool decode(const mem::Bytes& d, SpMsg* out) {
  return decode_body(d.span(), &d, out);
}

std::optional<AnyMsg> decode_any(std::span<const uint8_t> data) {
  return decode_any_body(data, nullptr);
}

std::optional<AnyMsg> decode_any(const mem::Bytes& data) {
  return decode_any_body(data.span(), &data);
}

// --- Accounting sizes ------------------------------------------------------

size_t sp_msg_wire_bytes(size_t subpicture_bytes, size_t mei_count) {
  return body_bytes(SpMsg{}) + subpicture_bytes +
         mei_count * core::kMeiWireBytes;
}

size_t picture_msg_wire_bytes(size_t coded_bytes) {
  return body_bytes(PictureMsg{}) + coded_bytes;
}

size_t exchange_msg_wire_bytes(size_t entry_count) {
  return body_bytes(ExchangeMsg{}) + entry_count * kExchangeEntryWireBytes;
}

size_t partition_update_wire_bytes(size_t col_cuts, size_t row_cuts) {
  return body_bytes(PartitionUpdateMsg{}) + (col_cuts + row_cuts) * 2;
}

size_t cost_report_wire_bytes(size_t cols, size_t rows) {
  return body_bytes(CostReportMsg{}) + (cols + rows) * 4;
}

}  // namespace pdw::proto
