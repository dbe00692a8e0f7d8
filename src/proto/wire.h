// Versioned typed wire codec for the Table-3 display-wall protocol.
//
// Every message that crosses a node boundary — in the threaded pipeline, the
// lockstep reference and the discrete-event simulator alike — is one of the
// typed structs below. Each encodes to a self-describing body
// ([version][type][stream][fields...]) and decodes defensively: decode()
// returns false on truncated, oversized, version-skewed or otherwise
// malformed bytes and never crashes (fuzz/fuzz_wire.cpp holds it to that).
//
// The `stream` byte is the multiplexing tag of core::StreamSession
// (core/session.h): one wall can interleave pictures from several
// independent elementary streams, each a LockstepPipeline constructed with
// its own tag, and every protocol message names the stream it belongs to.
// Single-stream engines use stream 0 throughout.
//
// Transport mapping: a packed message also carries envelope fields (type,
// seq, aux, bulk) mirroring what transports key on — net::Message for the
// threaded fabric, the serial bus for lockstep, modeled transfers for the
// DES. pack() derives the envelope from the typed fields, so the two can
// never disagree.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "core/mei.h"
#include "mem/bytes.h"
#include "mpeg2/frame.h"

namespace pdw::core {
struct SubPicture;
}

namespace pdw::proto {

inline constexpr uint8_t kWireVersion = 2;

// Tile field value meaning "no tile" (e.g. a death notice with no adopter).
inline constexpr uint16_t kNoTile = 0xFFFF;

enum class MsgType : uint8_t {
  kPicture = 1,        // root -> splitter, bulk (coded picture + NSID)
  kSubPicture = 2,     // splitter -> decoder, bulk (sub-picture + MEI)
  kGoAheadAck = 3,     // decoder -> splitter (ANID) / splitter -> root
  kExchange = 4,       // decoder -> decoder (halo macroblocks)
  kEndOfStream = 5,    // root -> splitter
  kHeartbeat = 6,      // decoder -> root, fire-and-forget
  kFinished = 7,       // decoder -> root: stream done, stop monitoring me
  kDeathNotice = 8,    // root -> everyone (dead tile, adopter, resync)
  kSkipBroadcast = 9,  // splitter -> decoders: picture (tile, seq) is lost
  kStreamRequest = 10,  // tenant -> root: admit this stream (declared cost)
  kStreamReply = 11,    // root -> tenant: accept / reject / renegotiate
  kPartitionUpdate = 12,  // root -> everyone: new partition epoch's cut lines
  kCostReport = 13,       // splitter -> root: per-axis cost of one picture
};

const char* msg_type_name(MsgType t);

// --- Typed messages --------------------------------------------------------

// Root -> splitter: one coded picture, plus the NSID telling the splitter
// which of its peers owns the *next* picture (ack-redirection target).
struct PictureMsg {
  uint32_t pic_index = 0;
  uint16_t nsid = 0;  // (pic_index + 1) % k
  uint8_t stream = 0;
  // Partition epoch in force for this picture (0 on a static wall). The
  // splitter cuts the picture against this epoch's geometry, never its own
  // racing notion of "latest".
  uint32_t epoch = 0;
  // Verbatim picture span from the ES. Decoding a Packed body with the
  // Bytes overload makes this a view into the transport buffer.
  mem::Bytes coded;

  friend bool operator==(const PictureMsg&, const PictureMsg&) = default;
};

// Splitter -> decoder: the tile's sub-picture plus its MEI list. The
// sub-picture travels as its own serialized bytes (core::SubPicture wire
// format); the codec validates framing, not sub-picture internals.
struct SpMsg {
  uint32_t pic_index = 0;
  uint16_t tile = 0;
  uint8_t stream = 0;
  // Partition epoch the sub-picture was cut against: the receiving decoder
  // resolves tile rects and MEI peers in *this* epoch's owner map.
  uint32_t epoch = 0;
  mem::Bytes subpicture;  // core::SubPicture::serialize bytes (view on decode)
  std::vector<core::MeiInstruction> mei;

  friend bool operator==(const SpMsg&, const SpMsg&) = default;
};

// Decoder -> splitter (ANID redirection) and splitter -> root (go-ahead):
// "picture pic_index is consumed; the next one may flow".
struct GoAheadAck {
  uint32_t pic_index = 0;
  uint8_t stream = 0;

  friend bool operator==(const GoAheadAck&, const GoAheadAck&) = default;
};

// One halo macroblock in an exchange message. `tainted` is how degradation
// propagates across decoder boundaries: a peer that reconstructs from a
// tainted halo macroblock marks its own frame degraded too.
struct ExchangeEntry {
  core::MeiInstruction instr;  // op is kRecv on the wire
  bool tainted = false;
  mpeg2::MacroblockPixels px{};

  friend bool operator==(const ExchangeEntry& a, const ExchangeEntry& b) {
    return a.instr == b.instr && a.tainted == b.tainted &&
           std::memcmp(&a.px, &b.px, sizeof(a.px)) == 0;
  }
};

// Decoder -> decoder: the halo macroblocks `src_tile` serves to `dst_tile`
// for one picture (the MEI SEND executions, batched per destination).
struct ExchangeMsg {
  uint32_t pic_index = 0;
  uint16_t src_tile = 0;
  uint16_t dst_tile = 0;
  uint8_t stream = 0;
  std::vector<ExchangeEntry> entries;

  friend bool operator==(const ExchangeMsg&, const ExchangeMsg&) = default;
};

struct EndOfStream {
  uint8_t stream = 0;

  friend bool operator==(const EndOfStream&, const EndOfStream&) = default;
};

// Decoder -> root, fire-and-forget liveness beacon.
struct Heartbeat {
  uint16_t tile = 0;
  uint8_t stream = 0;

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

// Decoder -> root: this node consumed the whole stream.
struct Finished {
  uint16_t tile = 0;
  uint8_t stream = 0;

  friend bool operator==(const Finished&, const Finished&) = default;
};

// Root -> everyone: `dead_tile`'s node is gone. Nobody serves its pictures
// before `resync_pic`; from there on `adopter_tile`'s node does (kNoTile:
// degraded mode, the tile stays frozen).
struct DeathNotice {
  uint16_t dead_tile = 0;
  uint16_t adopter_tile = kNoTile;
  uint32_t resync_pic = 0;
  uint8_t stream = 0;

  friend bool operator==(const DeathNotice&, const DeathNotice&) = default;
};

// Splitter -> decoders: picture `pic_index` of `tile` is lost (undeliverable
// or undecodable). The owner emits a frozen frame; neighbours conceal the
// halo data it would have sent.
struct SkipBroadcast {
  uint32_t pic_index = 0;
  uint16_t tile = 0;
  uint8_t stream = 0;

  friend bool operator==(const SkipBroadcast&, const SkipBroadcast&) = default;
};

// --- Adaptive partitioning -------------------------------------------------

// Root -> everyone: partition epoch `epoch` (cut lines on the macroblock
// grid, wall/partition.h) applies from picture `apply_from_pic` onward.
// Epochs are dense per stream; the root only ever rebalances at closed-GOP I
// pictures, so no picture >= apply_from_pic references a frame cut under an
// older epoch.
struct PartitionUpdateMsg {
  uint32_t epoch = 0;
  uint32_t apply_from_pic = 0;
  uint8_t stream = 0;
  std::vector<uint16_t> col_cuts_mb;  // m-1 strictly increasing interior cuts
  std::vector<uint16_t> row_cuts_mb;  // n-1 likewise

  friend bool operator==(const PartitionUpdateMsg&,
                         const PartitionUpdateMsg&) = default;
};

// Splitter -> root: the per-axis decode-cost profile of one split picture
// (core::SplitStats.cost_col/cost_row). Only sent when adaptive partitioning
// is enabled; the root accumulates profiles and runs the planner at GOP
// boundaries.
struct CostReportMsg {
  uint32_t pic_index = 0;
  uint8_t stream = 0;
  std::vector<uint32_t> col_cost;  // one entry per MB column
  std::vector<uint32_t> row_cost;  // one entry per MB row

  friend bool operator==(const CostReportMsg&, const CostReportMsg&) = default;
};

// --- Admission handshake (multi-tenant serving) ----------------------------

// QoS class of a tenant's stream. Lower classes degrade and shed first; the
// admission controller never degrades class N while class N+1 still has
// headroom to give up.
enum class PriorityClass : uint8_t {
  kBackground = 0,  // best-effort (preview walls, transcode feeds)
  kStandard = 1,    // normal interactive viewing
  kPremium = 2,     // contractual QoS: protected until everything else is shed
};

// Degradation ladder, in the order overload applies it. Skipping B pictures
// is free of drift (nothing references a B picture); kSkipP decodes only I
// pictures (a P picture's references would be stale); kFreeze holds the last
// displayed frame. Reverting is only bit-exact at a closed-GOP I picture, so
// the controller *raises* a stream's level immediately but *lowers* it
// lazily, at the next picture whose span carries a GOP header.
enum class DegradeLevel : uint8_t {
  kNone = 0,
  kSkipB = 1,
  kSkipP = 2,
  kFreeze = 3,
};

enum class AdmissionVerdict : uint8_t {
  kAccept = 0,
  kReject = 1,       // no capacity at any degrade level
  kRenegotiate = 2,  // admitted, but only at the granted degrade level
};

const char* priority_class_name(PriorityClass c);
const char* degrade_level_name(DegradeLevel l);
const char* admission_verdict_name(AdmissionVerdict v);

// Tenant -> root: admit stream `stream` with this declared cost. The root
// answers with a StreamReply naming the verdict; attach before an accept is
// a protocol error.
struct StreamRequest {
  uint16_t width_mb = 0;   // declared picture geometry, in macroblocks
  uint16_t height_mb = 0;
  uint16_t fps = 0;        // declared picture rate (deadline source)
  PriorityClass priority = PriorityClass::kStandard;
  uint8_t stream = 0;

  friend bool operator==(const StreamRequest&, const StreamRequest&) = default;
};

// Root -> tenant: the admission verdict. On kRenegotiate, `level` is the
// degrade level the stream is granted at (the tenant may attach at that
// level or walk away); on kAccept it is kNone; on kReject it is kFreeze
// (nothing would be decoded anyway).
struct StreamReply {
  AdmissionVerdict verdict = AdmissionVerdict::kReject;
  DegradeLevel level = DegradeLevel::kNone;
  uint8_t stream = 0;

  friend bool operator==(const StreamReply&, const StreamReply&) = default;
};

// --- Packing ---------------------------------------------------------------

// An encoded protocol message plus the envelope fields transports key on.
// seq/aux/bulk are derived from the typed message at pack() time — the
// envelope can never disagree with the body.
struct Packed {
  MsgType type = MsgType::kHeartbeat;
  uint8_t stream = 0;
  uint32_t seq = 0;   // picture index (0 when not applicable)
  uint16_t aux = 0;   // tile / NSID (0 when not applicable)
  bool bulk = false;  // consumes a posted receive buffer
  // Pooled, exact-size buffer: pack() knows every body size up front (the
  // *_wire_bytes() helpers), so encoding is a single pool pop + fill.
  mem::Bytes body;

  size_t wire_bytes() const { return body.size() + kEnvelopeBytes; }
  // Models GM's small-message header (same figure net::Message uses).
  static constexpr size_t kEnvelopeBytes = 16;
};

Packed pack(const PictureMsg& m);
Packed pack(const SpMsg& m);
// Zero-copy variants that serialize straight into the pooled body, skipping
// the intermediate PictureMsg::coded / SpMsg::subpicture buffer entirely —
// the hosts' hot-path encode.
Packed pack_picture(uint32_t pic_index, uint16_t nsid, uint8_t stream,
                    std::span<const uint8_t> coded, uint32_t epoch = 0);
Packed pack_sp(uint32_t pic_index, uint16_t tile, uint8_t stream,
               const core::SubPicture& sp,
               const std::vector<core::MeiInstruction>& mei,
               uint32_t epoch = 0);
Packed pack(const GoAheadAck& m);
Packed pack(const ExchangeMsg& m);
Packed pack(const EndOfStream& m);
Packed pack(const Heartbeat& m);
Packed pack(const Finished& m);
Packed pack(const DeathNotice& m);
Packed pack(const SkipBroadcast& m);
Packed pack(const StreamRequest& m);
Packed pack(const StreamReply& m);
Packed pack(const PartitionUpdateMsg& m);
Packed pack(const CostReportMsg& m);

// Strict typed decode: false on malformed input, never crashes. `data` is
// the body produced by pack() (including the version/type prefix).
bool decode(std::span<const uint8_t> data, PictureMsg* out);
bool decode(std::span<const uint8_t> data, SpMsg* out);
bool decode(std::span<const uint8_t> data, GoAheadAck* out);
bool decode(std::span<const uint8_t> data, ExchangeMsg* out);
bool decode(std::span<const uint8_t> data, EndOfStream* out);
bool decode(std::span<const uint8_t> data, Heartbeat* out);
bool decode(std::span<const uint8_t> data, Finished* out);
bool decode(std::span<const uint8_t> data, DeathNotice* out);
bool decode(std::span<const uint8_t> data, SkipBroadcast* out);
bool decode(std::span<const uint8_t> data, StreamRequest* out);
bool decode(std::span<const uint8_t> data, StreamReply* out);
bool decode(std::span<const uint8_t> data, PartitionUpdateMsg* out);
bool decode(std::span<const uint8_t> data, CostReportMsg* out);

// Zero-copy decode: bulk fields (PictureMsg::coded, SpMsg::subpicture)
// become views sharing `data`'s block instead of copies. The span overloads
// above still copy (fuzzers and tests hand in unpooled storage).
bool decode(const mem::Bytes& data, PictureMsg* out);
bool decode(const mem::Bytes& data, SpMsg* out);

using AnyMsg =
    std::variant<PictureMsg, SpMsg, GoAheadAck, ExchangeMsg, EndOfStream,
                 Heartbeat, Finished, DeathNotice, SkipBroadcast, StreamRequest,
                 StreamReply, PartitionUpdateMsg, CostReportMsg>;

// Dispatch on the body's type byte. nullopt on malformed input.
std::optional<AnyMsg> decode_any(std::span<const uint8_t> data);
// Bytes overload: bulk payload fields decode as views into `data`.
std::optional<AnyMsg> decode_any(const mem::Bytes& data);

// Accounting constants shared with the lockstep trace / DES cost model: the
// per-entry wire cost of a halo macroblock exchange (pixels + the 8-byte MEI
// instruction framing, as serialized by core::serialize_mei).
inline constexpr size_t kExchangeEntryWireBytes =
    sizeof(mpeg2::MacroblockPixels) + core::kMeiWireBytes;

// Body sizes of the bulk messages without building them (the serial engines
// deliver typed messages in memory and size them for accounting).
size_t sp_msg_wire_bytes(size_t subpicture_bytes, size_t mei_count);
size_t picture_msg_wire_bytes(size_t coded_bytes);
size_t exchange_msg_wire_bytes(size_t entry_count);
size_t partition_update_wire_bytes(size_t col_cuts, size_t row_cuts);
size_t cost_report_wire_bytes(size_t cols, size_t rows);

}  // namespace pdw::proto
