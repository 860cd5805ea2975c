// Seeded mutations of the FRSHCAT1 files the catalog tests write: byte
// flips, truncations, appended bytes, header-field and section-table edits,
// and payload values rewritten under a refreshed checksum. Every mutant,
// loaded from a file by LoadCatalogBinary, must load or fail with an
// InvalidArgument Status, and never crash; the sanitizer builds run the
// same mutants.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog_binary_testing.h"
#include "io/catalog_binary.h"
#include "rng/rng.h"

namespace freshen {
namespace {

constexpr size_t kMutantsPerCatalog = 600;

template <typename T>
void Put(std::string& file, size_t at, T value) {
  if (at + sizeof(T) <= file.size()) std::memcpy(&file[at], &value, sizeof(T));
}

template <typename T>
T Get(const std::string& file, size_t at) {
  T value{};
  if (at + sizeof(T) <= file.size()) std::memcpy(&value, &file[at], sizeof(T));
  return value;
}

uint64_t Pick(Rng& rng, const std::vector<uint64_t>& choices) {
  return choices[rng.NextUint64Below(choices.size())];
}

// A count, offset or length at the edges the checks guard: zero, the
// file's size and its neighbours, the true value's neighbours, and values
// whose products with 8 wrap.
uint64_t EdgeValue(Rng& rng, uint64_t truth, uint64_t file_size) {
  return Pick(rng, {0, 1, truth - 1, truth + 1, truth + 8, file_size,
                    file_size - 1, file_size + 8, uint64_t{1} << 61,
                    (uint64_t{1} << 61) + 1, UINT64_MAX, UINT64_MAX / 8,
                    rng.NextUint64()});
}

void RefreshHeaderChecksum(std::string& file) {
  if (file.size() >= 32) Put<uint32_t>(file, 28, Crc32(file.data(), 28));
}

// Rewrites one value of one section and refreshes that section's checksum,
// so the value reaches the domain checks.
void RewriteValue(std::string& file, Rng& rng) {
  const int s = static_cast<int>(rng.NextUint64Below(3));
  const size_t entry = 32 + 32 * s;
  const uint64_t offset = Get<uint64_t>(file, entry + 8);
  const uint64_t length = Get<uint64_t>(file, entry + 16);
  if (length < 8 || offset + length > file.size()) return;
  const double value = static_cast<double>(Pick(rng, {0, 1, 2, 3, 4, 5, 6, 7}));
  const double specials[] = {std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -1.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             1.5,
                             value};
  const uint64_t i = rng.NextUint64Below(length / 8);
  Put<double>(file, offset + 8 * i, specials[rng.NextUint64Below(8)]);
  Put<uint32_t>(file, entry + 24, Crc32(&file[offset], length));
}

std::string Mutate(const std::string& base, Rng& rng) {
  std::string file = base;
  const uint64_t n = Get<uint64_t>(base, 16);
  switch (rng.NextUint64Below(7)) {
    case 0: {  // Flip one to four bytes anywhere.
      const uint64_t flips = 1 + rng.NextUint64Below(4);
      for (uint64_t f = 0; f < flips; ++f) {
        file[rng.NextUint64Below(file.size())] ^=
            static_cast<char>(1 + rng.NextUint64Below(255));
      }
      break;
    }
    case 1:  // Cut the file short (never to nothing).
      file.resize(1 + rng.NextUint64Below(file.size() - 1));
      break;
    case 2:  // Append bytes past the last section.
      file.append(1 + rng.NextUint64Below(64), '\x5a');
      break;
    case 3: {  // Edit a header field, usually under a fresh checksum.
      switch (rng.NextUint64Below(4)) {
        case 0:
          Put<uint32_t>(file, 8, static_cast<uint32_t>(Pick(rng, {0, 2, 7})));
          break;
        case 1:
          Put<uint32_t>(file, 12,
                        static_cast<uint32_t>(Pick(rng, {0, 1, 2, 4, 255})));
          break;
        case 2:
          Put<uint64_t>(file, 16, EdgeValue(rng, n, file.size()));
          break;
        default:
          Put<uint32_t>(file, 24, static_cast<uint32_t>(rng.NextUint64()));
          break;
      }
      if (rng.NextUint64Below(4) != 0) RefreshHeaderChecksum(file);
      break;
    }
    case 4: {  // Edit a section-table field (no checksum covers the table).
      const size_t entry = 32 + 32 * rng.NextUint64Below(3);
      switch (rng.NextUint64Below(4)) {
        case 0:
          Put<uint32_t>(file, entry,
                        static_cast<uint32_t>(Pick(rng, {0, 1, 2, 3, 4, 99})));
          break;
        case 1:
          Put<uint64_t>(file, entry + 8,
                        EdgeValue(rng, Get<uint64_t>(file, entry + 8),
                                  file.size()));
          break;
        case 2:
          Put<uint64_t>(file, entry + 16,
                        EdgeValue(rng, Get<uint64_t>(file, entry + 16),
                                  file.size()));
          break;
        default:
          Put<uint32_t>(file, entry + 24,
                        static_cast<uint32_t>(rng.NextUint64()));
          break;
      }
      break;
    }
    case 5:  // Rewrite a value under a valid checksum.
      RewriteValue(file, rng);
      break;
    default:  // Rewrite a value, then flip a byte elsewhere.
      RewriteValue(file, rng);
      file[rng.NextUint64Below(file.size())] ^= 0x10;
      break;
  }
  return file;
}

// Which kind of verdict a mutant got, so the test can check that the
// mutants reach every layer of checks, not only the first.
enum Verdict { kLoaded, kHeader, kStructure, kChecksum, kDomain, kVerdicts };

Verdict Classify(const Result<ElementSet>& loaded) {
  if (loaded.ok()) return kLoaded;
  const std::string& message = loaded.status().message();
  if (message.find("payload checksum") != std::string::npos) return kChecksum;
  if (message.rfind("element", 0) == 0 ||
      message.find("weights are zero") != std::string::npos) {
    return kDomain;
  }
  if (message.rfind("section", 0) == 0 ||
      message.find("missing") != std::string::npos ||
      message.find("unknown section") != std::string::npos) {
    return kStructure;
  }
  return kHeader;
}

TEST(CatalogBinaryMutationTest, MutantsLoadOrFailWithAStatus) {
  size_t seen[kVerdicts] = {};
  uint64_t seed = 0x46525348u;
  for (const size_t n : {size_t{0}, size_t{100}, kCatalogLoadChunk + 5}) {
    const std::string base =
        CatalogToBinary(n == 0 ? ElementSet{} : TestCatalog(n));
    Rng rng(seed++);
    for (size_t m = 0; m < kMutantsPerCatalog; ++m) {
      const std::string mutant = Mutate(base, rng);
      SCOPED_TRACE(testing::Message() << "n = " << n << ", mutant " << m);
      const Result<ElementSet> loaded = LoadCatalogBytes(mutant);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
            << loaded.status();
      }
      ++seen[Classify(loaded)];
    }
  }
  for (int v = 0; v < kVerdicts; ++v) {
    EXPECT_GT(seen[v], 0u) << "no mutant got verdict " << v;
  }
}

}  // namespace
}  // namespace freshen
