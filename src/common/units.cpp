#include "common/units.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace xfl {

std::string format_bytes(double bytes) {
  static constexpr std::array<const char*, 6> prefixes = {"", "K", "M", "G", "T", "P"};
  double magnitude = std::fabs(bytes);
  std::size_t idx = 0;
  while (magnitude >= 1000.0 && idx + 1 < prefixes.size()) {
    magnitude /= 1000.0;
    bytes /= 1000.0;
    ++idx;
  }
  char buf[64];
  if (idx == 0) {
    std::snprintf(buf, sizeof buf, "%.0f %sB", bytes, prefixes[idx]);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f %sB", bytes, prefixes[idx]);
  }
  return buf;
}

}  // namespace xfl
