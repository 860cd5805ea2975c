// Tests for the FRSHCAT1 binary catalog format: bit-identical round trips,
// corruption detection, zero-copy mmap loads, and parity with the CSV
// reader.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/catalog_binary.h"
#include "io/catalog_io.h"
#include "workload/generator.h"

namespace freshen {
namespace {

ElementSet TestCatalog(size_t n) {
  ExperimentSpec spec;
  spec.num_objects = n;
  spec.theta = 1.1;
  spec.size_model = SizeModel::kPareto;
  spec.seed = 321;
  return GenerateCatalog(spec).value();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

// memcmp-level equality of two catalogs: every double must round-trip to
// the exact same bit pattern, not merely compare approximately.
void ExpectBitIdentical(const ElementSet& a, const ElementSet& b) {
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

TEST(CatalogBinaryTest, InMemoryRoundTripIsBitIdentical) {
  const ElementSet catalog = TestCatalog(1000);
  const std::string blob = CatalogToBinary(catalog);
  const ElementSet loaded =
      ParseCatalogBinary(blob.data(), blob.size()).value();
  ExpectBitIdentical(catalog, loaded);
}

TEST(CatalogBinaryTest, FileRoundTripIsBitIdentical) {
  const ElementSet catalog = TestCatalog(777);
  const std::string path = TempPath("catalog_binary_roundtrip.fcat");
  ASSERT_TRUE(SaveCatalogBinary(catalog, path).ok());
  const ElementSet loaded = LoadCatalogBinary(path).value();
  ExpectBitIdentical(catalog, loaded);
  // Serializing the loaded catalog reproduces the file byte for byte.
  const std::string original = ReadFileToString(path).value();
  EXPECT_EQ(CatalogToBinary(loaded), original);
  std::remove(path.c_str());
}

TEST(CatalogBinaryTest, EmptyCatalogRoundTrips) {
  const std::string blob = CatalogToBinary({});
  const ElementSet loaded =
      ParseCatalogBinary(blob.data(), blob.size()).value();
  EXPECT_TRUE(loaded.empty());
}

TEST(CatalogBinaryTest, MmapExposesColumnsZeroCopy) {
  const ElementSet catalog = TestCatalog(500);
  const std::string path = TempPath("catalog_binary_mmap.fcat");
  ASSERT_TRUE(SaveCatalogBinary(catalog, path).ok());
  MmapCatalog mapped = MmapCatalog::Open(path).value();
  ASSERT_EQ(mapped.size(), catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(mapped.change_rates()[i], catalog[i].change_rate);
    EXPECT_EQ(mapped.access_probs()[i], catalog[i].access_prob);
    EXPECT_EQ(mapped.sizes()[i], catalog[i].size);
  }
  ExpectBitIdentical(catalog, mapped.ToElementSet());

  // Move semantics keep the mapping valid exactly once.
  MmapCatalog moved = std::move(mapped);
  EXPECT_EQ(moved.size(), catalog.size());
  EXPECT_EQ(moved.change_rates()[0], catalog[0].change_rate);
  std::remove(path.c_str());
}

TEST(CatalogBinaryTest, DetectsCorruption) {
  const ElementSet catalog = TestCatalog(100);
  std::string blob = CatalogToBinary(catalog);

  // Flip one payload byte: the section CRC must catch it.
  std::string corrupted = blob;
  corrupted[corrupted.size() - 5] ^= 0x40;
  EXPECT_FALSE(ParseCatalogBinary(corrupted.data(), corrupted.size()).ok());

  // Flip a header byte.
  corrupted = blob;
  corrupted[9] ^= 0x01;
  EXPECT_FALSE(ParseCatalogBinary(corrupted.data(), corrupted.size()).ok());

  // Truncation.
  EXPECT_FALSE(ParseCatalogBinary(blob.data(), blob.size() / 2).ok());
  EXPECT_FALSE(ParseCatalogBinary(blob.data(), 4).ok());

  // Wrong magic.
  corrupted = blob;
  corrupted[0] = 'X';
  EXPECT_FALSE(ParseCatalogBinary(corrupted.data(), corrupted.size()).ok());
}

TEST(CatalogBinaryTest, RejectsOutOfDomainValues) {
  ElementSet catalog = TestCatalog(10);
  catalog[3].change_rate = -1.0;
  std::string blob = CatalogToBinary(catalog);
  // CRCs are over the stored bytes, so this file is "intact" but invalid:
  // domain validation must reject it.
  EXPECT_FALSE(ParseCatalogBinary(blob.data(), blob.size()).ok());

  catalog = TestCatalog(10);
  catalog[0].size = 0.0;
  blob = CatalogToBinary(catalog);
  EXPECT_FALSE(ParseCatalogBinary(blob.data(), blob.size()).ok());

  catalog = TestCatalog(10);
  catalog[9].access_prob = std::nan("");
  blob = CatalogToBinary(catalog);
  EXPECT_FALSE(ParseCatalogBinary(blob.data(), blob.size()).ok());
}

// An access profile with no positive weight is refused by the column check
// that reads it, as the CSV loader refuses one; an empty catalog is not.
TEST(CatalogBinaryTest, RejectsAllZeroAccessWeights) {
  ElementSet catalog = TestCatalog(3);
  for (Element& element : catalog) element.access_prob = 0.0;
  const std::string blob = CatalogToBinary(catalog);
  const auto parsed = ParseCatalogBinary(blob.data(), blob.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("all weights are zero"),
            std::string::npos);

  const std::string path = TempPath("catalog_zero_weights.fcat");
  ASSERT_TRUE(SaveCatalogBinary(catalog, path).ok());
  const auto loaded = LoadCatalogBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  // One positive weight is enough.
  catalog[2].access_prob = 1.0;
  const std::string one = CatalogToBinary(catalog);
  EXPECT_TRUE(ParseCatalogBinary(one.data(), one.size()).ok());
}

TEST(CatalogBinaryTest, FormatDetection) {
  const ElementSet catalog = TestCatalog(50);
  const std::string binary_path = TempPath("catalog_detect.fcat");
  const std::string csv_path = TempPath("catalog_detect.csv");
  ASSERT_TRUE(SaveCatalogBinary(catalog, binary_path).ok());
  ASSERT_TRUE(SaveCatalogCsv(catalog, csv_path).ok());
  EXPECT_TRUE(LooksLikeBinaryCatalog(binary_path));
  EXPECT_FALSE(LooksLikeBinaryCatalog(csv_path));
  EXPECT_FALSE(LooksLikeBinaryCatalog(TempPath("does_not_exist.fcat")));
  std::remove(binary_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CatalogBinaryTest, LoadCatalogHonorsFormat) {
  const ElementSet catalog = TestCatalog(50);
  const std::string binary_path = TempPath("catalog_format.fcat");
  const std::string csv_path = TempPath("catalog_format.csv");
  ASSERT_TRUE(SaveCatalogBinary(catalog, binary_path).ok());
  ASSERT_TRUE(SaveCatalogCsv(catalog, csv_path).ok());
  // auto picks the reader from the file's first bytes.
  EXPECT_EQ(LoadCatalog(binary_path, "auto").value().size(), catalog.size());
  EXPECT_EQ(LoadCatalog(csv_path, "auto").value().size(), catalog.size());
  // An explicit format forces its reader: CSV text is not a FRSHCAT1 file.
  EXPECT_TRUE(LoadCatalog(binary_path, "binary").ok());
  EXPECT_FALSE(LoadCatalog(csv_path, "binary").ok());
  EXPECT_TRUE(LoadCatalog(csv_path, "csv").ok());
  const Status unknown = LoadCatalog(csv_path, "parquet").status();
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("parquet"), std::string::npos);
  std::remove(binary_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(CatalogBinaryTest, AgreesWithCsvReader) {
  // A catalog whose CSV probabilities are already normalized survives the
  // CSV round trip, so both formats must load element-for-element equal.
  const ElementSet catalog = TestCatalog(200);
  const std::string csv_path = TempPath("catalog_parity.csv");
  const std::string bin_path = TempPath("catalog_parity.fcat");
  ASSERT_TRUE(SaveCatalogCsv(catalog, csv_path).ok());
  ASSERT_TRUE(SaveCatalogBinary(catalog, bin_path).ok());
  const ElementSet from_csv = LoadCatalogCsv(csv_path).value();
  const ElementSet from_bin = LoadCatalogBinary(bin_path).value();
  ASSERT_EQ(from_csv.size(), from_bin.size());
  for (size_t i = 0; i < from_csv.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_csv[i].change_rate, from_bin[i].change_rate);
    EXPECT_NEAR(from_csv[i].access_prob, from_bin[i].access_prob, 1e-15);
    EXPECT_DOUBLE_EQ(from_csv[i].size, from_bin[i].size);
  }
}

TEST(CatalogBinaryTest, Crc32MatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

// One bit at a time, straight from the definition of the reflected
// polynomial: the reference both Crc32 paths (carry-less multiply over whole
// 16-byte blocks, slicing-by-8 for the rest) must match.
uint32_t BitwiseCrc32(const unsigned char* bytes, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

// Every length from 0 to 1,024 bytes at every start offset 0-15, so each
// path, each block count and each tail length is read from every alignment.
TEST(CatalogBinaryTest, Crc32MatchesBitwiseReference) {
  constexpr size_t kMaxLength = 1024;
  constexpr size_t kOffsets = 16;
  std::vector<unsigned char> buffer(kMaxLength + kOffsets);
  uint32_t state = 0x2545F491u;
  for (unsigned char& byte : buffer) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<unsigned char>(state >> 24);
  }
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const unsigned char* start = buffer.data() + offset;
      ASSERT_EQ(Crc32(start, length), BitwiseCrc32(start, length))
          << "length " << length << " offset " << offset;
    }
  }
}

// A single flipped bit in the first, a middle or the last 16-byte block of
// a payload fails the section checksum. The flip is in a low mantissa bit,
// so the value stays in its domain and only the CRC can catch it.
TEST(CatalogBinaryTest, PayloadBitFlipsFailTheChecksum) {
  const ElementSet catalog = TestCatalog(100);
  const std::string blob = CatalogToBinary(catalog);
  constexpr size_t kPayloadStart = 32 + 3 * 32;  // Header + section table.
  constexpr size_t kPayloadBytes = 100 * sizeof(double);
  for (const size_t at : {kPayloadStart, kPayloadStart + kPayloadBytes / 2,
                          kPayloadStart + kPayloadBytes - 8}) {
    std::string corrupted = blob;
    corrupted[at] ^= 0x01;
    const auto parsed =
        ParseCatalogBinary(corrupted.data(), corrupted.size());
    ASSERT_FALSE(parsed.ok()) << "flip at byte " << at;
    EXPECT_NE(parsed.status().message().find("payload checksum mismatch"),
              std::string::npos)
        << parsed.status().message();
  }
}

}  // namespace
}  // namespace freshen
