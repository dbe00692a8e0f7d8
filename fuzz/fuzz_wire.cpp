// Fuzz target: the typed wire codec. Arbitrary bytes through decode_any()
// and every typed decode(). Contract: malformed input is reported by a
// false/nullopt return — never an exception, sanitizer report, OOM or hang.
// Messages that do decode must re-encode to the same envelope type.
#include <cstdint>
#include <span>

#include "proto/wire.h"

using namespace pdw;

namespace {

template <typename T>
void try_typed(std::span<const uint8_t> data) {
  T out;
  if (proto::decode(data, &out)) {
    // Accepted bodies must round-trip through pack() unchanged.
    const proto::Packed p = proto::pack(out);
    T again;
    if (!proto::decode(p.body, &again) || !(again == out)) __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> body(data, size);
  (void)proto::decode_any(body);
  try_typed<proto::PictureMsg>(body);
  try_typed<proto::SpMsg>(body);
  try_typed<proto::GoAheadAck>(body);
  try_typed<proto::ExchangeMsg>(body);
  try_typed<proto::EndOfStream>(body);
  try_typed<proto::Heartbeat>(body);
  try_typed<proto::Finished>(body);
  try_typed<proto::DeathNotice>(body);
  try_typed<proto::SkipBroadcast>(body);
  try_typed<proto::PartitionUpdateMsg>(body);
  try_typed<proto::CostReportMsg>(body);
  return 0;
}
