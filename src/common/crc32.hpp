#pragma once
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// checksum used by the fault-tolerance layer: every host<->device transfer is
// verified end-to-end, and every frame of the compressed containers
// (GSNPOUT2 / GSNPTMP2) carries the CRC of its payload so corruption is
// caught at read time instead of producing garbage rows.
//
// Implementation: zlib's crc32_z (zlib is already a dependency of the
// codecs), bit-equal to the textbook table CRC and several times faster than
// a portable table lookup.

#include <zlib.h>

#include <cstddef>
#include <filesystem>
#include <fstream>

#include "src/common/error.hpp"
#include "src/common/types.hpp"

namespace gsnp {

/// One-shot CRC-32 of a byte range ("123456789" -> 0xCBF43926).
inline u32 crc32(const void* data, std::size_t n) {
  return static_cast<u32>(
      ::crc32_z(0, static_cast<const Bytef*>(data), static_cast<z_size_t>(n)));
}

/// Streaming accumulator for multi-buffer checksums.
class Crc32 {
 public:
  void update(const void* data, std::size_t n) {
    state_ = ::crc32_z(state_, static_cast<const Bytef*>(data),
                       static_cast<z_size_t>(n));
  }
  u32 value() const { return static_cast<u32>(state_); }

 private:
  uLong state_ = 0;
};

/// CRC-32 of a whole file (manifest output verification on --resume).
inline u32 crc32_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  GSNP_CHECK_MSG(in.good(), "cannot open for checksum " << path);
  Crc32 crc;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
    crc.update(buf, static_cast<std::size_t>(in.gcount()));
  GSNP_CHECK_MSG(in.eof(), "read failed while checksumming " << path);
  return crc.value();
}

}  // namespace gsnp
