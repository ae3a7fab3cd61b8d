// Wire encoding of the Packet Re-cycling header bits.
//
// The paper proposes carrying the PR bit and the distance-discriminator (DD)
// bits inside DSCP pool 2 -- the 'xxxx11' codepoints of the 6-bit DiffServ
// field reserved for experimental/local use (RFC 2474).  Pool-2 codepoints
// leave 4 free bits, so PR fits whenever 1 + ceil(log2(d+1)) <= 4, i.e. for
// hop diameters up to 7.  Larger networks (or weighted discriminators) need
// additional header space; the codec reports the requirement either way and
// the header-overhead bench (E8) compares it against FCP's failure list.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace pr::net {

/// Number of bits needed to represent values 0..max_value.
[[nodiscard]] unsigned bits_for_value(std::uint64_t max_value) noexcept;

/// Bit budget of a PR header for a given maximum distance discriminator.
struct PrHeaderLayout {
  unsigned dd_bits = 0;

  /// Layout sized for hop-count discriminators on a network of hop diameter
  /// `diameter` (DD values range over 0..diameter).
  [[nodiscard]] static PrHeaderLayout for_hop_diameter(std::uint32_t diameter) noexcept;

  [[nodiscard]] unsigned total_bits() const noexcept { return 1 + dd_bits; }

  /// True when the header fits in the 4 free bits of a DSCP pool-2 codepoint.
  [[nodiscard]] bool fits_dscp_pool2() const noexcept { return total_bits() <= 4; }

  [[nodiscard]] std::uint32_t max_encodable_dd() const noexcept {
    return dd_bits >= 32 ? 0xFFFFFFFFu : (1u << dd_bits) - 1;
  }
};

/// Encodes (pr, dd) as a DSCP pool-2 codepoint: payload bits shifted over the
/// fixed '11' pool discriminator.  Throws std::invalid_argument when dd does
/// not fit the layout or the layout exceeds the 6-bit DSCP field.
[[nodiscard]] std::uint8_t encode_dscp(const PrHeaderLayout& layout, bool pr_bit,
                                       std::uint32_t dd);

/// Inverse of encode_dscp.  Throws std::invalid_argument when the codepoint is
/// not a pool-2 codepoint.
struct DecodedPrHeader {
  bool pr_bit = false;
  std::uint32_t dd = 0;
};
[[nodiscard]] DecodedPrHeader decode_dscp(const PrHeaderLayout& layout,
                                          std::uint8_t codepoint);

/// Header bits an FCP packet needs to name `failure_count` failed links out of
/// `edge_count` total: count field + one link id per failure.  Mirrors the
/// paper's argument that FCP "employs more bits than are currently available".
[[nodiscard]] std::uint64_t fcp_header_bits(std::size_t failure_count,
                                            std::size_t edge_count) noexcept;

}  // namespace pr::net
