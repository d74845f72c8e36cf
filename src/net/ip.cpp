#include "net/ip.h"

#include <charconv>
#include <cstdio>

namespace farm::net {

std::optional<Ipv4> Ipv4::parse(std::string_view s) {
  std::uint32_t octets[4];
  const char* p = s.data();
  const char* end = s.data() + s.size();
  for (int i = 0; i < 4; ++i) {
    unsigned v = 0;
    auto [ptr, ec] = std::from_chars(p, end, v);
    if (ec != std::errc{} || v > 255) return std::nullopt;
    octets[i] = v;
    p = ptr;
    if (i < 3) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
  }
  if (p != end) return std::nullopt;
  return Ipv4((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) |
              octets[3]);
}

std::string Ipv4::to_string() const {
  // Hand-formatted dotted quad: seeds read packet addresses on every probe,
  // and snprintf's format parsing cost more than the rest of the field read.
  char buf[16];
  char* p = buf;
  for (int shift = 24; shift >= 0; shift -= 8) {
    unsigned octet = (value_ >> shift) & 0xff;
    if (octet >= 100) *p++ = static_cast<char>('0' + octet / 100);
    if (octet >= 10) *p++ = static_cast<char>('0' + octet / 10 % 10);
    *p++ = static_cast<char>('0' + octet % 10);
    if (shift > 0) *p++ = '.';
  }
  return std::string(buf, p);
}

std::optional<Prefix> Prefix::parse(std::string_view s) {
  auto slash = s.find('/');
  if (slash == std::string_view::npos) {
    auto ip = Ipv4::parse(s);
    if (!ip) return std::nullopt;
    return Prefix::host(*ip);
  }
  auto ip = Ipv4::parse(s.substr(0, slash));
  if (!ip) return std::nullopt;
  int len = 0;
  auto rest = s.substr(slash + 1);
  auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), len);
  if (ec != std::errc{} || ptr != rest.data() + rest.size() || len < 0 ||
      len > 32)
    return std::nullopt;
  return Prefix(*ip, len);
}

std::string Prefix::to_string() const {
  if (len_ == 32) return addr_.to_string();
  return addr_.to_string() + "/" + std::to_string(len_);
}

}  // namespace farm::net
