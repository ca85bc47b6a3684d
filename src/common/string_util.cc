#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace fuser {

std::string_view StrTrim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return result;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ParseDouble(std::string_view text, double* out) {
  std::string buf(StrTrim(text));
  if (buf.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

bool ParseSizeT(std::string_view text, size_t* out) {
  std::string buf(StrTrim(text));
  // strtoull negates a leading '-' instead of rejecting it.
  if (buf.empty() || buf[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return false;
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace fuser
