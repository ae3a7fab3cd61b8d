#include "net/header_codec.hpp"

#include <stdexcept>

namespace pr::net {

unsigned bits_for_value(std::uint64_t max_value) noexcept {
  unsigned bits = 0;
  while (max_value > 0) {
    ++bits;
    max_value >>= 1;
  }
  return bits;
}

PrHeaderLayout PrHeaderLayout::for_hop_diameter(std::uint32_t diameter) noexcept {
  return PrHeaderLayout{bits_for_value(diameter)};
}

std::uint8_t encode_dscp(const PrHeaderLayout& layout, bool pr_bit, std::uint32_t dd) {
  if (layout.total_bits() > 4) {
    throw std::invalid_argument(
        "encode_dscp: layout does not fit DSCP pool 2 (needs " +
        std::to_string(layout.total_bits()) + " bits, 4 available)");
  }
  if (dd > layout.max_encodable_dd()) {
    throw std::invalid_argument("encode_dscp: dd value " + std::to_string(dd) +
                                " exceeds layout capacity " +
                                std::to_string(layout.max_encodable_dd()));
  }
  const std::uint8_t payload =
      static_cast<std::uint8_t>((pr_bit ? 1u << layout.dd_bits : 0u) | dd);
  return static_cast<std::uint8_t>((payload << 2) | 0b11);  // pool-2 'xxxx11'
}

DecodedPrHeader decode_dscp(const PrHeaderLayout& layout, std::uint8_t codepoint) {
  if ((codepoint & 0b11) != 0b11) {
    throw std::invalid_argument("decode_dscp: not a DSCP pool-2 codepoint");
  }
  if (codepoint > 0b111111) {
    throw std::invalid_argument("decode_dscp: value exceeds the 6-bit DSCP field");
  }
  const std::uint8_t payload = static_cast<std::uint8_t>(codepoint >> 2);
  DecodedPrHeader out;
  out.pr_bit = (payload >> layout.dd_bits) & 1u;
  out.dd = payload & layout.max_encodable_dd();
  return out;
}

std::uint64_t fcp_header_bits(std::size_t failure_count, std::size_t edge_count) noexcept {
  const unsigned id_bits = bits_for_value(edge_count == 0 ? 0 : edge_count - 1);
  const unsigned count_bits = bits_for_value(edge_count);
  return static_cast<std::uint64_t>(count_bits) +
         static_cast<std::uint64_t>(failure_count) * id_bits;
}

}  // namespace pr::net
