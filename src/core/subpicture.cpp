#include "core/subpicture.h"

#include "common/bytes.h"

namespace pdw::core {

using mpeg2::MbState;

mpeg2::PictureCodingExt PicInfo::to_pce() const {
  mpeg2::PictureCodingExt pce;
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) pce.f_code[s][t] = f_code[s][t];
  pce.intra_dc_precision = intra_dc_precision;
  pce.q_scale_type = q_scale_type;
  pce.alternate_scan = alternate_scan;
  return pce;
}

PicInfo PicInfo::from(uint32_t index, const mpeg2::PictureHeader& ph,
                      const mpeg2::PictureCodingExt& pce) {
  PicInfo info;
  info.pic_index = index;
  info.type = ph.type;
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) info.f_code[s][t] = uint8_t(pce.f_code[s][t]);
  info.intra_dc_precision = uint8_t(pce.intra_dc_precision);
  info.q_scale_type = pce.q_scale_type;
  info.alternate_scan = pce.alternate_scan;
  info.temporal_reference = uint16_t(ph.temporal_reference);
  return info;
}

namespace {

// Field lists (common/bytes.h), in wire order.

template <class IO, Layout<PicInfo> M>
void fields(IO& io, M& info) {
  io.u32(info.pic_index);
  io.u8(info.type);
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) io.u8(info.f_code[s][t]);
  io.u8(info.intra_dc_precision);
  io.u8(info.q_scale_type);
  io.u8(info.alternate_scan);
  io.u16(info.temporal_reference);
}

// The decoder state a State Propagation Header carries.
template <class IO, Layout<MbState> M>
void fields(IO& io, M& st) {
  for (auto& dc : st.dc_pred) io.i32(dc);
  for (auto& dir : st.pmv)
    for (auto& v : dir) io.i16(v);
  io.u8(st.quant_scale_code);
  io.u8(st.prev_motion_flags);
}

template <class IO, Layout<SpRun> M>
void fields(IO& io, M& run) {
  fields(io, run.state);
  io.u8(run.skip_bits);
  io.u32(run.first_coded_addr);
  io.u16(run.num_coded);
  io.u32(run.lead_skip_addr);
  io.u16(run.lead_skip_count);
  io.u32(run.trail_skip_addr);
  io.u16(run.trail_skip_count);
  io.bytes32(run.payload);
}

template <class IO, Layout<SubPicture> M>
void fields(IO& io, M& sp) {
  fields(io, sp.info);
  io.count32(sp.runs, SpRun{}.header_wire_bytes());
  for (auto& run : sp.runs) fields(io, run);
}

// `parent` non-null: run payloads become views into its block (zero-copy);
// null: payloads are pooled copies of the spans.
SubPicture deserialize_impl(std::span<const uint8_t> data,
                            const mem::Bytes* parent) {
  ByteReader r(data, parent);
  SubPicture sp;
  fields(r, sp);
  PDW_CHECK(r.done()) << "malformed sub-picture";
  return sp;
}

}  // namespace

size_t SpRun::header_wire_bytes() const {
  ByteSizer s;
  fields(s, *this);
  return s.size() - payload.size();
}

size_t SubPicture::wire_bytes() const {
  ByteSizer s;
  fields(s, *this);
  return s.size();
}

size_t SubPicture::payload_bytes() const {
  size_t n = 0;
  for (const SpRun& run : runs) n += run.payload.size();
  return n;
}

void SubPicture::serialize_into(ByteWriter* w) const { fields(*w, *this); }

void SubPicture::serialize(std::vector<uint8_t>* out) const {
  ByteWriter w(out);
  serialize_into(&w);
}

SubPicture SubPicture::deserialize(std::span<const uint8_t> data) {
  return deserialize_impl(data, nullptr);
}

SubPicture SubPicture::deserialize(const mem::Bytes& data) {
  return deserialize_impl(data.span(), &data);
}

}  // namespace pdw::core
