// Runtime invariant checking.
//
// PDW_CHECK(cond) aborts the current operation with a pdw::InternalError
// carrying file:line and the failed expression. It is for *programmer*
// errors only: misuse of an API, a broken internal invariant, an impossible
// state. Bitstream conformance violations are not internal errors — hot
// parse paths report them through pdw::DecodeStatus (common/decode_status.h)
// and cold structural paths throw pdw::BitstreamError via
// PDW_BITSTREAM_CHECK. Both exception types derive from CheckError so legacy
// top-level handlers keep working.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pdw {

// Base of both error flavours. Derives from std::runtime_error so callers
// can treat "stream malformed" and "internal bug" uniformly at the top
// level; catch the subclasses to tell them apart.
class CheckError : public std::runtime_error {
 public:
  explicit CheckError(std::string msg) : std::runtime_error(std::move(msg)) {}
};

// A broken internal invariant or API misuse — a bug in this codebase, never
// a property of the input. Not recoverable; should surface to the operator.
class InternalError : public CheckError {
 public:
  explicit InternalError(std::string msg) : CheckError(std::move(msg)) {}
};

// Malformed input: a damaged elementary stream. Recoverable in principle —
// the decoder conceals, resyncs or drops the affected unit and keeps running.
class BitstreamError : public CheckError {
 public:
  explicit BitstreamError(std::string msg) : CheckError(std::move(msg)) {}
};

[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& extra);
[[noreturn]] void bitstream_check_failed(const char* file, int line,
                                         const char* expr,
                                         const std::string& extra);

namespace detail {

// Stream-style message collector for CHECK(...) << "context".
class CheckMessage {
 public:
  using FailFn = void (*)(const char*, int, const char*, const std::string&);

  CheckMessage(const char* file, int line, const char* expr,
               FailFn fail = &check_failed)
      : file_(file), line_(line), expr_(expr), fail_(fail) {}

  [[noreturn]] ~CheckMessage() noexcept(false) {
    fail_(file_, line_, expr_, stream_.str());
#if defined(__GNUC__)
    __builtin_unreachable();
#endif
  }

  template <typename T>
  CheckMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* expr_;
  FailFn fail_;
  std::ostringstream stream_;
};

struct Voidify {
  // Lowest-precedence operator so the macro's ternary works with <<.
  void operator&&(const CheckMessage&) {}
};

}  // namespace detail
}  // namespace pdw

#define PDW_CHECK(cond)                  \
  (cond) ? (void)0                       \
         : ::pdw::detail::Voidify{} &&   \
               ::pdw::detail::CheckMessage(__FILE__, __LINE__, #cond)

// Conformance check on *input* data in a cold path: throws BitstreamError.
// Hot per-macroblock paths must not use this either — they return a
// DecodeStatus instead of unwinding.
#define PDW_BITSTREAM_CHECK(cond)                                          \
  (cond) ? (void)0                                                         \
         : ::pdw::detail::Voidify{} &&                                     \
               ::pdw::detail::CheckMessage(__FILE__, __LINE__, #cond,      \
                                           &::pdw::bitstream_check_failed)

#define PDW_CHECK_EQ(a, b) PDW_CHECK((a) == (b)) << " [" << (a) << " vs " << (b) << "] "
#define PDW_CHECK_NE(a, b) PDW_CHECK((a) != (b)) << " [" << (a) << " vs " << (b) << "] "
#define PDW_CHECK_LT(a, b) PDW_CHECK((a) < (b)) << " [" << (a) << " vs " << (b) << "] "
#define PDW_CHECK_LE(a, b) PDW_CHECK((a) <= (b)) << " [" << (a) << " vs " << (b) << "] "
#define PDW_CHECK_GT(a, b) PDW_CHECK((a) > (b)) << " [" << (a) << " vs " << (b) << "] "
#define PDW_CHECK_GE(a, b) PDW_CHECK((a) >= (b)) << " [" << (a) << " vs " << (b) << "] "
