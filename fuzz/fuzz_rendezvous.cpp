// Fuzz target: the rendezvous datagram parser, net::decode_rendezvous —
// what the listener and every joiner run on each JOIN/WAIT/MAP/MAP_ACK
// their socket receives. Each input is parsed as a datagram of walls of
// several sizes. Contract: malformed input is refused by nullopt, never an
// exception, sanitizer report, OOM or hang. The parse is exact, so an
// accepted datagram re-encodes to the same bytes.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "net/rendezvous.h"

using namespace pdw;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> dgram(data, size);
  for (const int nodes : {1, 3, 64}) {
    const auto msg = net::decode_rendezvous(dgram, nodes);
    if (msg && !std::ranges::equal(net::encode_rendezvous(*msg), dgram))
      __builtin_trap();
  }
  return 0;
}
