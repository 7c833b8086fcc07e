#pragma once
// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init and final
// xor 0xFFFFFFFF) — the integrity frame of every durability artifact
// (online/durability.* checkpoint and journal records, the optional
// stream-file footer). Slicing-by-8: eight 1 KiB tables computed at
// compile time fold eight input bytes per step, and the bytes left over
// go through the first table one at a time. The classic check vector
// CRC32("123456789") == 0xCBF43926 and a bytewise reference are pinned
// by tests/test_durability.cpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sps::util {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the bytewise table. tables[k][b] is the register after
/// byte b and then k zero bytes, starting from zero, so one step can xor
/// the contributions of eight bytes.
consteval Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Little-endian 32-bit load, byte by byte so that it holds for any
/// host byte order and alignment.
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace detail

/// Incremental CRC-32 accumulator (for framing multi-part payloads
/// without concatenating them first).
class Crc32 {
 public:
  void Update(const void* data, std::size_t n) {
    const auto& t = detail::kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (; n >= 8; p += 8, n -= 8) {
      const std::uint32_t lo = c ^ detail::LoadLe32(p);
      const std::uint32_t hi = detail::LoadLe32(p + 4);
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    state_ = c;
  }
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  [[nodiscard]] std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

[[nodiscard]] inline std::uint32_t Crc32Of(const void* data,
                                           std::size_t n) {
  Crc32 c;
  c.Update(data, n);
  return c.value();
}

[[nodiscard]] inline std::uint32_t Crc32Of(std::string_view s) {
  return Crc32Of(s.data(), s.size());
}

}  // namespace sps::util
