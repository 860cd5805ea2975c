// Command-line flags shared by freshenctl and freshend: `--flag=value` and
// `--flag value` parsing plus checked numeric accessors. A flag the caller
// does not know, or a malformed value (trailing garbage, a non-finite
// number, an integer out of its type's range), ends the process with exit
// code 2 and a message naming the flag; a misspelt flag is never silently
// ignored, and a value is never silently read as 0 or cast out of range.
#ifndef FRESHEN_EXAMPLES_FLAGS_H_
#define FRESHEN_EXAMPLES_FLAGS_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace freshen {

using FlagMap = std::map<std::string, std::string>;

/// Parses argv[first..argc) into a flag map. A flag listed in `known` takes
/// a value (`--flag=value` or `--flag value`); one listed in `bool_flags`
/// reads as "1" when given bare. Any other flag exits 2.
inline FlagMap ParseFlags(int argc, char** argv, int first,
                          const std::vector<std::string>& known,
                          const std::vector<std::string>& bool_flags = {}) {
  const auto listed = [](const std::vector<std::string>& names,
                         const std::string& name) {
    for (const std::string& listed_name : names) {
      if (name == listed_name) return true;
    }
    return false;
  };
  FlagMap flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const bool is_bool = listed(bool_flags, name);
    if (!is_bool && !listed(known, name)) {
      std::fprintf(stderr, "unknown flag: %s\n", name.c_str());
      std::exit(2);
    }
    if (eq != std::string::npos) {
      flags[name] = arg.substr(eq + 1);
      continue;
    }
    if (is_bool) {
      // Not `= "1"`: GCC 12 inlines that into a false -Wrestrict warning.
      flags[name].assign(1, '1');
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", arg.c_str());
      std::exit(2);
    }
    flags[name] = argv[++i];
  }
  return flags;
}

/// The flag's text, or `fallback` when absent.
inline std::string GetFlag(const FlagMap& flags, const std::string& name,
                           const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

[[noreturn]] inline void DieBadFlag(const std::string& name,
                                    const std::string& text,
                                    const std::string& expected) {
  std::fprintf(stderr, "invalid value for %s: '%s' (expected %s)\n",
               name.c_str(), text.c_str(), expected.c_str());
  std::exit(2);
}

/// The flag as a finite double, or `fallback` when absent. The whole value
/// must parse as a number.
inline double GetDouble(const FlagMap& flags, const std::string& name,
                        double fallback) {
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    DieBadFlag(name, it->second, "a finite number");
  }
  return value;
}

/// The flag as an integer of type T, or `fallback` when absent. Any number
/// spelling GetDouble accepts is allowed ("1e3" is 1000) as long as it is
/// a whole number inside T's range.
template <typename T>
T GetInteger(const FlagMap& flags, const std::string& name, T fallback) {
  static_assert(std::numeric_limits<T>::is_integer);
  auto it = flags.find(name);
  if (it == flags.end()) return fallback;
  const double value = GetDouble(flags, name, 0.0);
  // max() + 1 == 2^digits is exact in a double; so is a signed min().
  const double end = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double lowest = std::numeric_limits<T>::is_signed ? -end : 0.0;
  if (value != std::trunc(value) || value < lowest || value >= end) {
    DieBadFlag(name, it->second,
               "an integer in [" +
                   std::to_string(std::numeric_limits<T>::min()) + ", " +
                   std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(value);
}

}  // namespace freshen

#endif  // FRESHEN_EXAMPLES_FLAGS_H_
