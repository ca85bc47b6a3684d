#include "common/bit_util.h"

namespace fuser {

std::vector<int> BitIndices(Mask m) {
  std::vector<int> bits;
  bits.reserve(static_cast<size_t>(PopCount(m)));
  ForEachBit(m, [&](int i) { bits.push_back(i); });
  return bits;
}

uint64_t HashBytes64(const void* data, size_t size, uint64_t seed) {
  // FNV-1a processed 8 input bytes per step (little-endian chunking) so
  // hashing runs at memory speed on multi-megabyte inputs. Each step is
  // h -> (h ^ chunk) * prime — a bijection of h for a fixed chunk — so a
  // change to any input byte changes the final value.
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t chunk = 0;
    __builtin_memcpy(&chunk, bytes + i, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    h ^= chunk;
    h *= 0x100000001B3ULL;
  }
  for (; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace fuser
