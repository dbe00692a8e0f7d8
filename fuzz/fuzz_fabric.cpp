// Fuzz target: SocketFabric's receive path — net::parse_datagram_header and
// the reassembly behind it — reached the way every received datagram
// reaches it, through the node's socket. An input is a sequence of
// datagrams, each [u16 length][bytes] (the last one cut to what remains).
// The harness stamps a valid header CRC on every datagram long enough to
// carry one, as a hostile sender would, so mutations reach the framing
// checks and the reassembly map instead of stopping at the CRC. Contract:
// no sanitizer report, OOM or hang, and the reassembly map never holds more
// than kMaxPartials messages.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "net/fault.h"
#include "net/socket_fabric.h"

using namespace pdw;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static net::UdpSocket sender;
  obs::MetricsRegistry metrics;
  net::SocketFabric node(1, 3, {.metrics = &metrics});
  constexpr size_t kCrcAt = net::kDatagramHeaderBytes - 4;
  net::Message msg;
  for (size_t at = 0; at + 2 <= size;) {
    uint16_t len = 0;
    std::memcpy(&len, data + at, 2);
    at += 2;
    const size_t n = std::min<size_t>(
        {len, size - at, net::kDatagramHeaderBytes + net::kMaxFragmentBytes});
    std::vector<uint8_t> dgram(data + at, data + at + n);
    at += n;
    if (dgram.size() >= net::kDatagramHeaderBytes) {
      const uint32_t crc = net::crc32({dgram.data(), kCrcAt});
      std::memcpy(dgram.data() + kCrcAt, &crc, 4);
    }
    node.post_receive(1);  // a buffer per datagram: bulk messages complete
    sender.send(node.local_endpoint(), dgram);
    while (node.receive_for(1, 0.0, &msg) == net::RecvStatus::kOk) {
    }
    if (node.reassemblies() > net::kMaxPartials) __builtin_trap();
  }
  return 0;
}
