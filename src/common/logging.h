// CHECK macros: FUSER_CHECK* abort on violated invariants, printing the
// failed condition and any streamed context to stderr. They are used for
// programmer errors only (user-facing failures go through Status).
#ifndef FUSER_COMMON_LOGGING_H_
#define FUSER_COMMON_LOGGING_H_

#include <sstream>

namespace fuser {
namespace internal {

/// Accumulates one failure message and, on destruction, writes it to
/// stderr and aborts the process.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace fuser

#define FUSER_CHECK(condition)                                        \
  if (!(condition))                                                   \
  ::fuser::internal::FatalLogMessage(__FILE__, __LINE__).stream()     \
      << "Check failed: " #condition " "

#define FUSER_CHECK_EQ(a, b) FUSER_CHECK((a) == (b))
#define FUSER_CHECK_NE(a, b) FUSER_CHECK((a) != (b))
#define FUSER_CHECK_LT(a, b) FUSER_CHECK((a) < (b))
#define FUSER_CHECK_LE(a, b) FUSER_CHECK((a) <= (b))
#define FUSER_CHECK_GT(a, b) FUSER_CHECK((a) > (b))
#define FUSER_CHECK_GE(a, b) FUSER_CHECK((a) >= (b))

#endif  // FUSER_COMMON_LOGGING_H_
