// Byte- and rate-unit helpers. The paper mixes MB/s (disk-to-disk rates) and
// Gb/s (NIC/testbed capacities); all internal quantities in this library are
// SI: bytes, seconds, bytes/second. These helpers exist only at the I/O
// boundary (formatting tables, declaring scenario capacities).
#pragma once

#include <cstdint>
#include <string>

namespace xfl {

inline constexpr double kKB = 1e3;
inline constexpr double kMB = 1e6;
inline constexpr double kGB = 1e9;
inline constexpr double kTB = 1e12;
inline constexpr double kPB = 1e15;

/// Convert a rate expressed in megabytes/second to bytes/second.
constexpr double mbps(double megabytes_per_second) { return megabytes_per_second * kMB; }

/// Convert a rate expressed in network gigabits/second to bytes/second.
constexpr double gbit(double gigabits_per_second) { return gigabits_per_second * 1e9 / 8.0; }

/// Convert bytes/second to network gigabits/second (Table 1 is in Gb/s).
constexpr double to_gbit(double bytes_per_second) { return bytes_per_second * 8.0 / 1e9; }

/// Convert bytes/second to megabytes/second (most figures are in MB/s).
constexpr double to_mbps(double bytes_per_second) { return bytes_per_second / kMB; }

/// Human-readable byte count, e.g. "2.05 TB" or "513 B".
std::string format_bytes(double bytes);

}  // namespace xfl
