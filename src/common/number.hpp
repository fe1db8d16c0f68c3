// The number codec: how every text format xferlearn keeps (CSV logs and
// datasets, model files, JSON, the retrain journal, metrics) turns a
// number into text and back. Doubles are written as printf("%.17g")
// writes them, enough digits to read back the same bits; integers are
// plain decimal. Header-only, so xfl_obs (below xfl_common) uses it too.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>

namespace xfl {

/// Append `v` as "%.17g" would, "inf" and "nan" included.
inline void append_number(std::string& out, double v) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

template <std::integral T>
void append_number(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Append `values` separated by spaces and end the line: one model-file
/// record.
template <class... T>
void append_line(std::string& out, T... values) {
  const char* sep = "";
  ((out += sep, append_number(out, values), sep = " "), ...);
  out += '\n';
}

/// Parse all of `token` into `out`, which is left untouched on failure:
/// an empty token, trailing bytes, a leading space or '+', hex, a negative
/// number into an unsigned type, or a value out of the type's range.
/// Doubles read everything append_number writes, "inf" and "nan" too.
template <class T>
  requires std::integral<T> || std::same_as<T, double>
bool parse_number(std::string_view token, T& out) {
  T value{};
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

/// Whitespace-separated tokens over one buffer, split as operator>> splits
/// them in the C locale: the reader behind the model loaders and the
/// retrain journal.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text) : text_(text) {}

  /// The next token; empty once the buffer is exhausted.
  std::string_view token() {
    while (pos_ < text_.size() && space(pos_)) ++pos_;
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !space(pos_)) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// Parse the next tokens into `out...` in order; false at the first one
  /// that is missing, malformed or not finite.
  template <class... T>
  bool read(T&... out) {
    return ((parse_number(token(), out) && std::isfinite(out)) && ...);
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const { return text_.size() - pos_; }

  /// Whether `count` records of `tokens_each` tokens could still follow,
  /// a token taking at least a byte and a separator. Loaders ask this
  /// before sizing anything by a count they just read.
  bool fits(std::size_t count, std::size_t tokens_each) const {
    return count <= remaining() / (2 * tokens_each);
  }

 private:
  /// The "C" locale's isspace set, ' ' and '\t'..'\r', tested inline:
  /// no code sets a locale, and a std::isspace call per byte cost about a
  /// third of a model load.
  bool space(std::size_t i) const {
    const char c = text_[i];
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace xfl
