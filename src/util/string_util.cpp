#include "util/string_util.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace wsmd {

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool parse_long_strict(const std::string& token, long& out) {
  try {
    std::size_t pos = 0;
    out = std::stol(token, &pos);
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_double_strict(const std::string& token, double& out) {
  // strtod, as std::stod calls it, but an underflow to a subnormal is a
  // value here, not an error: the writers emit such numbers and the
  // readers must take them back. Overflow and underflow to zero still fail.
  const char* begin = token.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin || end != begin + token.size()) return false;
  if (errno == ERANGE && (std::isinf(v) || v == 0.0)) return false;
  out = v;
  return true;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

std::string with_commas(long long value) {
  const bool neg = value < 0;
  unsigned long long v =
      neg ? 0ull - static_cast<unsigned long long>(value)
          : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (std::size_t i = digits.size(); i-- > 0;) {
    out.push_back(digits[i]);
    if (++count == 3 && i != 0) {
      out.push_back(',');
      count = 0;
    }
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace wsmd
