#include "common/logging.h"

#include <cstdlib>
#include <iostream>

namespace fuser {
namespace internal {

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  stream_ << "[FATAL " << file << ":" << line << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  std::abort();
}

}  // namespace internal
}  // namespace fuser
