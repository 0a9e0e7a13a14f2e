#pragma once
// Minimal JSON object writer for the harness's result lines.  Numbers are
// written in their shortest round-trip form (std::to_chars), so every
// measured digit survives; non-finite values become null.

#include <charconv>
#include <cmath>
#include <string>

namespace perfbench {

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

class JsonObj {
 public:
  JsonObj& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObj& count(const std::string& key, unsigned long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObj& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObj& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObj& obj(const std::string& key, const JsonObj& v) {
    return raw(key, v.text());
  }
  JsonObj& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
