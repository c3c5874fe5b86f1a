// Byte builders for signed payloads and digest inputs.
//
// append_fields(out, "req|", client, '|', request_id, '|', operation)
// appends each field in order: strings as they are, a `char` as one
// character, every other integer in decimal (std::to_chars, so a
// `std::uint8_t` prints as a number, never as a raw byte), and a Digest as
// 64 lowercase hex characters.  The output is the same bytes an
// `std::ostringstream` with default flags writes for those fields, without
// the stream: the capacity is reserved once from per-field upper bounds.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

#include "tolerance/crypto/sha256.hpp"

namespace tolerance::crypto {
namespace detail {

template <class T>
std::size_t field_bound(const T& v) {
  if constexpr (std::is_same_v<T, char>) {
    return 1;
  } else if constexpr (std::is_same_v<T, Digest>) {
    return 2 * v.size();
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(!std::is_same_v<T, bool>, "spell a bool field out");
    return 20;  // UINT64_MAX has 20 digits; INT64_MIN 19 and a sign
  } else {
    return std::string_view(v).size();
  }
}

template <class T>
void append_field(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, char>) {
    out.push_back(v);
  } else if constexpr (std::is_same_v<T, Digest>) {
    append_hex(out, v);
  } else if constexpr (std::is_integral_v<T>) {
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  } else {
    out.append(std::string_view(v));
  }
}

}  // namespace detail

template <class... Fields>
void append_fields(std::string& out, const Fields&... parts) {
  out.reserve(out.size() + (detail::field_bound(parts) + ... + 0));
  (detail::append_field(out, parts), ...);
}

template <class... Fields>
std::string fields(const Fields&... parts) {
  std::string out;
  append_fields(out, parts...);
  return out;
}

}  // namespace tolerance::crypto
