// Helpers shared by the FRSHCAT1 tests: the catalogs they write, bit-level
// catalog equality, and the check that a file loads exactly as its bytes
// parse through every entry point.
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

// Expects `loaded` (read from `path`) to be `parsed` with the path prefix a
// file entry point adds: the same elements, or the same code and message.
template <typename Loaded>
void ExpectSameOutcome(const Result<ElementSet>& parsed, const Loaded& loaded,
                       const std::string& path) {
  ASSERT_EQ(parsed.ok(), loaded.ok())
      << "parse: " << parsed.status().ToString()
      << " / load: " << loaded.status().ToString();
  if (parsed.ok()) return;
  EXPECT_EQ(loaded.status().code(), parsed.status().code());
  EXPECT_EQ(loaded.status().message(),
            path + ": " + parsed.status().message());
}

// Writes `bytes` (not empty: an empty file has a message of its own) to
// `path` and expects LoadCatalogBinary and MmapCatalog::Open on the file to
// return what ParseCatalogBinary returns on the bytes. Returns the parse.
inline Result<ElementSet> ExpectLoadMatchesParse(const std::string& bytes,
                                                 const std::string& path) {
  Result<ElementSet> parsed = ParseCatalogBinary(bytes.data(), bytes.size());
  EXPECT_TRUE(WriteStringToFile(bytes, path).ok()) << path;
  const Result<ElementSet> loaded = LoadCatalogBinary(path);
  ExpectSameOutcome(parsed, loaded, path);
  const Result<MmapCatalog> mapped = MmapCatalog::Open(path);
  ExpectSameOutcome(parsed, mapped, path);
  if (parsed.ok() && loaded.ok() && mapped.ok()) {
    ExpectBitIdentical(*parsed, *loaded);
    ExpectBitIdentical(*parsed, mapped->ToElementSet());
  }
  std::remove(path.c_str());
  return parsed;
}

}  // namespace freshen

#endif  // FRESHEN_TESTS_CATALOG_BINARY_TESTING_H_
