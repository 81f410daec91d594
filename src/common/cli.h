// One command-line parser for every driver and bench binary.
//
// A binary declares its flags as a table of cli::Flag entries: a name, an
// operand name (or none), one help line, and a setter that writes the parsed
// operand straight into the config the flag sets. cli::parse walks argv
// against the table:
//   --help / -h   prints the usage text generated from the table, exits 0;
//   an unknown flag, a missing operand or a malformed value
//                 prints the error and the usage to stderr, exits 2,
// so a typo can never silently run a default configuration. A repeated flag
// is set again, so the last one wins.
//
// The typed setters are strict: the whole operand must parse and lie in
// range, or the setter throws SimError and parse reports it.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace tsim::cli {

/// Writes a flag's operand into the config it sets; throws SimError on a
/// malformed value. A switch gets nullptr, and so does an optional operand
/// that was left out.
using Setter = std::function<void(const char* operand)>;

struct Flag {
  const char* name;     // e.g. "--cells"
  const char* operand;  // e.g. "N"; nullptr for a switch; "[DIR]" = optional
  const char* help;     // one line of usage text
  Setter set;
};

// ---- strict operand parsers ----

/// An integer in [1, 2^32 - 1]. Signs and junk are errors, not wrapped.
inline u32 parse_positive_u32(const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  check(end != text && *end == '\0' && v >= 1 && v <= 0xFFFFFFFFll,
        std::string("expects a positive integer, got '") + text + "'");
  return static_cast<u32>(v);
}

/// A non-negative integer that fits in T (decimal, or 0x-prefixed hex). It
/// must start with a digit: strtoull would otherwise skip whitespace and a
/// sign, and " -5" would wrap to a huge value.
template <class T>
T parse_unsigned(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  check(std::isdigit(static_cast<unsigned char>(text[0])) && end != text &&
            *end == '\0',
        std::string("expects a non-negative integer, got '") + text + "'");
  check(v <= std::numeric_limits<T>::max(),
        std::string("value out of range: '") + text + "'");
  return static_cast<T>(v);
}

/// A number >= 0, or > 0 when `positive`.
inline double parse_double(const char* text, bool positive) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  check(end != text && *end == '\0' && (positive ? v > 0.0 : v >= 0.0),
        std::string(positive ? "expects a positive number, got '"
                             : "expects a non-negative number, got '") +
            text + "'");
  return v;
}

// ---- typed setters ----

inline Setter positive(u32& out) {
  return [&out](const char* s) { out = parse_positive_u32(s); };
}
inline Setter positive(double& out) {
  return [&out](const char* s) { out = parse_double(s, true); };
}
inline Setter non_negative(double& out) {
  return [&out](const char* s) { out = parse_double(s, false); };
}
template <class T>
Setter non_negative(T& out) {
  return [&out](const char* s) { out = parse_unsigned<T>(s); };
}
/// A path operand. An optional "[DIR]" operand that was left out means ".".
inline Setter path(std::string& out) {
  return [&out](const char* s) { out = s ? s : "."; };
}
/// A switch: the flag stores `value`.
template <class T>
Setter set_to(T& out, T value) {
  return [&out, value](const char*) { out = value; };
}

// ---- the parser ----

inline void usage(std::FILE* f, const char* prog, const std::vector<Flag>& flags) {
  const auto left = [](const Flag& flag) {
    return std::string(flag.name) + (flag.operand ? std::string(" ") + flag.operand : "");
  };
  size_t width = std::strlen("--help");
  for (const Flag& flag : flags) width = std::max(width, left(flag).size());
  std::fprintf(f, "usage: %s [flags]\n", prog);
  for (const Flag& flag : flags)
    std::fprintf(f, "  %-*s  %s\n", static_cast<int>(width), left(flag).c_str(),
                 flag.help);
  std::fprintf(f, "  %-*s  %s\n", static_cast<int>(width), "--help", "this message");
}

[[noreturn]] inline void fail(const std::string& message, const char* prog,
                              const std::vector<Flag>& flags) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  usage(stderr, prog, flags);
  std::exit(2);
}

/// Applies argv to `flags`. Exits 0 after --help, 2 on any error.
inline void parse(int argc, char** argv, const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout, argv[0], flags);
      std::exit(0);
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags)
      if (arg == f.name) flag = &f;
    if (flag == nullptr) fail("unknown flag '" + arg + "'", argv[0], flags);
    const char* operand = nullptr;
    if (flag->operand != nullptr) {
      // An optional operand is never flag-shaped, so `--json -q` still
      // reports -q as an unknown flag instead of writing into "-q".
      const bool optional = flag->operand[0] == '[';
      if (i + 1 < argc && !(optional && argv[i + 1][0] == '-'))
        operand = argv[++i];
      else if (!optional)
        fail(arg + " needs a value", argv[0], flags);
    }
    try {
      flag->set(operand);
    } catch (const SimError& e) {
      fail(arg + ": " + e.what(), argv[0], flags);
    }
  }
}

}  // namespace tsim::cli
