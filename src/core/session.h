// Multi-stream sessions: the lockstep scheduler over N streams.
//
// StreamSession is the multi-stream layer the wire format's `stream` byte
// exists for: N independent elementary streams decoded through one wall,
// pictures interleaved round-robin across streams (the paper's Table-4
// catalog served concurrently). Each stream is its own LockstepPipeline
// (own protocol machines and reference state, tagged with its stream id);
// bench_multistream measures aggregate fps as N grows.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>

#include "core/lockstep.h"
#include "proto/admission.h"
#include "wall/geometry.h"

namespace pdw::core {

// N independent elementary streams through one wall, one picture per stream
// per round. Optionally admission-gated: with enable_admission() every
// attach goes through the AdmissionController and the per-round scheduler
// consults its degradation ladder before stepping each stream.
class StreamSession {
 public:
  StreamSession(const wall::TileGeometry& geo, int k);
  ~StreamSession();

  // Returns the stream id (also the wire `stream` tag). `es` is borrowed.
  // Ungated legacy attach — always admitted, never shed.
  int add_stream(std::span<const uint8_t> es);
  int streams() const { return int(streams_.size()); }

  // Turn on multi-tenant admission. Must precede attach_stream().
  void enable_admission(proto::AdmissionController::Config cfg);
  proto::AdmissionController* admission() { return adm_.get(); }

  // Admission-gated attach at an explicit stream id. Creates the stream only
  // on accept/renegotiate; a duplicate id (live or already attached) or an
  // out-of-range id gets a typed kReject and changes nothing.
  proto::StreamReply attach_stream(int stream_id, std::span<const uint8_t> es,
                                   const proto::TenantSpec& spec);

  using DisplayFn =
      std::function<void(int stream, int tile, const mpeg2::TileFrame&,
                         const TileDisplayInfo&)>;

  struct Result {
    int streams = 0;
    uint64_t pictures = 0;  // total across streams (shed ones included)
    uint64_t shed = 0;      // pictures shed by the QoS ladder
    double wall_seconds = 0;
    double aggregate_fps = 0;  // pictures / wall_seconds
    std::vector<uint64_t> stream_pictures;  // indexed by stream id
  };

  // Decode every stream to completion, interleaving pictures round-robin.
  // Streams may finish in any order relative to attach order; a stream that
  // ends mid-GOP simply stops stepping while the others continue. Admitted
  // tenants are released from the controller as they finish.
  Result run(const DisplayFn& on_display);

 private:
  struct Slot {
    std::unique_ptr<LockstepPipeline> pipe;
    proto::TenantSpec spec;
    bool gated = false;  // attached through admission
  };

  const wall::TileGeometry& geo_;
  int k_;
  std::map<int, Slot> streams_;  // keyed by stream id
  std::unique_ptr<proto::AdmissionController> adm_;
};

}  // namespace pdw::core
