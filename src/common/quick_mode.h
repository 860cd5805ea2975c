// FRESHEN_QUICK: the one switch that shrinks the benches, the drills, the
// large examples and the serving torture test to smoke-test size. It is on
// when the variable is set, non-empty and not "0"; full size is the default.
#ifndef FRESHEN_COMMON_QUICK_MODE_H_
#define FRESHEN_COMMON_QUICK_MODE_H_

#include <cstdlib>
#include <cstring>

namespace freshen {

/// True when FRESHEN_QUICK is set, non-empty and not "0".
inline bool QuickMode() {
  const char* env = std::getenv("FRESHEN_QUICK");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

}  // namespace freshen

#endif  // FRESHEN_COMMON_QUICK_MODE_H_
