// Helpers shared by the FRSHCAT1 tests: the catalogs they write, bit-level
// catalog equality, and the load of a byte string through a file.
#ifndef FRESHEN_TESTS_CATALOG_BINARY_TESTING_H_
#define FRESHEN_TESTS_CATALOG_BINARY_TESTING_H_

#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "io/catalog_binary.h"
#include "io/catalog_io.h"
#include "workload/generator.h"

namespace freshen {

inline ElementSet TestCatalog(size_t n) {
  ExperimentSpec spec;
  spec.num_objects = n;
  spec.theta = 1.1;
  spec.size_model = SizeModel::kPareto;
  spec.seed = 321;
  return GenerateCatalog(spec).value();
}

inline std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

// memcmp-level equality of two catalogs: every double must round-trip to
// the exact same bit pattern, not merely compare approximately.
inline void ExpectBitIdentical(const ElementSet& a, const ElementSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i].change_rate, &b[i].change_rate,
                          sizeof(double)),
              0)
        << "change_rate differs at " << i;
    EXPECT_EQ(std::memcmp(&a[i].access_prob, &b[i].access_prob,
                          sizeof(double)),
              0)
        << "access_prob differs at " << i;
    EXPECT_EQ(std::memcmp(&a[i].size, &b[i].size, sizeof(double)), 0)
        << "size differs at " << i;
  }
}

// Writes `bytes` (not empty: an empty file has a message of its own) to a
// file named after the running test, loads it with LoadCatalogBinary and
// removes it. A failure must carry the file's `path: ` prefix and is
// returned without it, as the load pass words it.
inline Result<ElementSet> LoadCatalogBytes(const std::string& bytes) {
  const testing::TestInfo* test =
      testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = TempPath(std::string(test->test_suite_name()) +
                                    "." + test->name() + ".fcat");
  EXPECT_TRUE(WriteStringToFile(bytes, path).ok()) << path;
  Result<ElementSet> loaded = LoadCatalogBinary(path);
  std::remove(path.c_str());
  if (loaded.ok()) return loaded;
  const std::string prefix = path + ": ";
  const std::string& message = loaded.status().message();
  if (message.rfind(prefix, 0) != 0) {
    ADD_FAILURE() << "no path prefix: " << message;
    return loaded;
  }
  return Status(loaded.status().code(), message.substr(prefix.size()));
}

}  // namespace freshen

#endif  // FRESHEN_TESTS_CATALOG_BINARY_TESTING_H_
