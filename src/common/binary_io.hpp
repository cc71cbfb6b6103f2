// Minimal binary (de)serialization helpers: little-endian, fixed-width,
// explicit sizes. Used by the model save/load paths.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace spnerf {

static_assert(std::endian::native == std::endian::little,
              "serialization assumes a little-endian host");

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  SPNERF_CHECK_MSG(out.good(), "binary write failed");
}

template <typename T>
T ReadPod(std::istream& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  SPNERF_CHECK_MSG(in.good(), "binary read failed (truncated stream?)");
  return value;
}

template <typename T>
void WriteVector(std::ostream& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  WritePod<u64>(out, v.size());
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
  SPNERF_CHECK_MSG(out.good(), "binary vector write failed");
}

/// Reads a length-prefixed vector. The vector grows as the bytes arrive,
/// one bounded chunk at a time, so a length field the stream cannot back
/// fails once the stream runs dry: the claimed length is never allocated
/// (and zero-filled) up front.
template <typename T>
std::vector<T> ReadVector(std::istream& in, u64 max_elements = (1ull << 32)) {
  static_assert(std::is_trivially_copyable_v<T>);
  constexpr u64 kChunkElements = std::max<u64>(1, (u64{1} << 20) / sizeof(T));
  const u64 n = ReadPod<u64>(in);
  SPNERF_CHECK_MSG(n <= max_elements, "vector length " << n
                                                       << " exceeds limit");
  std::vector<T> v;
  while (v.size() < n) {
    const std::size_t at = v.size();
    v.resize(at + static_cast<std::size_t>(std::min(n - at, kChunkElements)));
    in.read(reinterpret_cast<char*>(v.data() + at),
            static_cast<std::streamsize>((v.size() - at) * sizeof(T)));
    SPNERF_CHECK_MSG(in.good(), "binary vector read failed");
  }
  return v;
}

/// Reads and validates a format magic word; `what` names the artifact in
/// the error message.
inline void ExpectMagic(std::istream& in, u32 magic, const char* what) {
  const u32 got = ReadPod<u32>(in);
  SPNERF_CHECK_MSG(got == magic, "not a " << what << " stream (bad magic 0x"
                                          << std::hex << got << ")");
}

/// Reads a format version and rejects anything but `expected` — older or
/// newer files fail cleanly instead of being misparsed.
inline u32 ExpectVersion(std::istream& in, u32 expected, const char* what) {
  const u32 version = ReadPod<u32>(in);
  SPNERF_CHECK_MSG(version == expected, "unsupported " << what << " version "
                                                       << version
                                                       << " (expected "
                                                       << expected << ")");
  return version;
}

inline void WriteString(std::ostream& out, const std::string& s) {
  WritePod<u64>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
  SPNERF_CHECK_MSG(out.good(), "binary string write failed");
}

inline std::string ReadString(std::istream& in, u64 max_len = 1u << 20) {
  const u64 n = ReadPod<u64>(in);
  SPNERF_CHECK_MSG(n <= max_len, "string length exceeds limit");
  std::string s(n, '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  SPNERF_CHECK_MSG(in.good(), "binary string read failed");
  return s;
}

}  // namespace spnerf
