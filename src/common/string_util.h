// Small string helpers (trim/format/parse) used across the project.
#ifndef FUSER_COMMON_STRING_UTIL_H_
#define FUSER_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>

namespace fuser {

/// Removes leading/trailing ASCII whitespace.
std::string_view StrTrim(std::string_view text);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses a double; returns false on malformed input or trailing junk.
bool ParseDouble(std::string_view text, double* out);

/// Parses a non-negative integer; returns false on malformed input, a
/// leading '-' or a value that overflows size_t.
bool ParseSizeT(std::string_view text, size_t* out);

}  // namespace fuser

#endif  // FUSER_COMMON_STRING_UTIL_H_
