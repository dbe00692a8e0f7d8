// Fuzz target: the telemetry sideband's frame parser, obs::decode_frame —
// what the collector runs on each datagram its socket receives (exporters
// only send). Contract: malformed input is refused by a false return, never
// an exception, sanitizer report, OOM or hang. A frame that decodes
// re-encodes to a canonical frame that decodes and re-encodes unchanged.
#include <cstdint>
#include <vector>

#include "obs/telemetry.h"

using namespace pdw;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  obs::TelemetryFrame frame;
  if (!obs::decode_frame(data, size, &frame)) return 0;
  const std::vector<uint8_t> canonical = obs::encode_frame(frame);
  obs::TelemetryFrame again;
  if (!obs::decode_frame(canonical.data(), canonical.size(), &again) ||
      obs::encode_frame(again) != canonical)
    __builtin_trap();
  return 0;
}
