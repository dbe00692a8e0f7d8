// Typed result for the hot parse paths.
//
// A corrupt bitstream is an expected, localized event — not an exception.
// Parse functions on the per-macroblock path return a DecodeStatus instead
// of unwinding, carrying what went wrong, where (absolute bit position in
// the buffer being parsed), and how much of the stream is poisoned (the
// severity ladder). Callers contain the damage at the matching boundary:
// a kSlice error conceals the rest of the slice and resyncs at the next
// slice start code; a kPicture error drops/skips the picture.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>

namespace pdw {

enum class DecodeErr {
  kOk = 0,
  kBadVlc,        // no entry in a VLC table matched the peeked window
  kBadValue,      // a fixed-length field decoded to a forbidden value
  kOverrun,       // the reader consumed bits past the end of the buffer
  kTruncated,     // a structure announced more bytes than the buffer holds
  kBadStructure,  // start codes / syntax elements in an impossible order
  kUnsupported,   // legal MPEG-2 but outside this decoder's profile subset
};

// How much of the stream an error poisons. Ordered: higher is worse.
enum class DecodeSeverity {
  kNone = 0,
  kSlice,    // contained by slice resync + macroblock concealment
  kPicture,  // picture undecodable; drop it and broadcast a skip
};

struct DecodeStatus {
  DecodeErr code = DecodeErr::kOk;
  DecodeSeverity severity = DecodeSeverity::kNone;
  size_t bit_pos = 0;  // where the damage was detected

  bool ok() const { return code == DecodeErr::kOk; }
  explicit operator bool() const { return ok(); }

  static DecodeStatus success() { return {}; }
  static DecodeStatus error(DecodeErr code, DecodeSeverity severity,
                            size_t bit_pos) {
    return {code, severity, bit_pos};
  }
  // Re-tag an error with a worse severity as it climbs the ladder (a slice
  // error in the first slice's header may doom the whole picture, etc.).
  DecodeStatus escalate(DecodeSeverity s) const {
    DecodeStatus r = *this;
    if (s > r.severity) r.severity = s;
    return r;
  }
};

inline const char* to_string(DecodeErr e) {
  switch (e) {
    case DecodeErr::kOk: return "ok";
    case DecodeErr::kBadVlc: return "bad-vlc";
    case DecodeErr::kBadValue: return "bad-value";
    case DecodeErr::kOverrun: return "overrun";
    case DecodeErr::kTruncated: return "truncated";
    case DecodeErr::kBadStructure: return "bad-structure";
    case DecodeErr::kUnsupported: return "unsupported";
  }
  return "?";
}

inline const char* to_string(DecodeSeverity s) {
  switch (s) {
    case DecodeSeverity::kNone: return "none";
    case DecodeSeverity::kSlice: return "slice";
    case DecodeSeverity::kPicture: return "picture";
  }
  return "?";
}

inline std::ostream& operator<<(std::ostream& os, const DecodeStatus& s) {
  if (s.ok()) return os << "ok";
  return os << to_string(s.code) << "/" << to_string(s.severity) << "@bit "
            << s.bit_pos;
}

}  // namespace pdw
