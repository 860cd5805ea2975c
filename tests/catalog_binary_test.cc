// Tests for the FRSHCAT1 binary catalog format: bit-identical round trips,
// corruption detection, parity with the CSV reader, and the streaming
// loader's chunk boundaries.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog_binary_testing.h"
#include "common/string_util.h"
#include "io/catalog_binary.h"
#include "io/catalog_io.h"

namespace freshen {
namespace {

// operator new calls made while counting is on (see the replacement
// operator new at the end of this file).
std::atomic<bool> counting_allocations{false};
std::atomic<size_t> allocations{0};

TEST(CatalogBinaryTest, InMemoryRoundTripIsBitIdentical) {
  const ElementSet catalog = TestCatalog(1000);
  const std::string blob = CatalogToBinary(catalog);
  const ElementSet loaded = LoadCatalogBytes(blob).value();
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
  const ElementSet loaded = LoadCatalogBytes(blob).value();
  EXPECT_TRUE(loaded.empty());
}

TEST(CatalogBinaryTest, DetectsCorruption) {
  const ElementSet catalog = TestCatalog(100);
  std::string blob = CatalogToBinary(catalog);

  // Flip one payload byte: the section CRC must catch it.
  std::string corrupted = blob;
  corrupted[corrupted.size() - 5] ^= 0x40;
  EXPECT_FALSE(LoadCatalogBytes(corrupted).ok());

  // Flip a header byte.
  corrupted = blob;
  corrupted[9] ^= 0x01;
  EXPECT_FALSE(LoadCatalogBytes(corrupted).ok());

  // Truncation.
  EXPECT_FALSE(LoadCatalogBytes(blob.substr(0, blob.size() / 2)).ok());
  EXPECT_FALSE(LoadCatalogBytes(blob.substr(0, 4)).ok());

  // Wrong magic.
  corrupted = blob;
  corrupted[0] = 'X';
  EXPECT_FALSE(LoadCatalogBytes(corrupted).ok());
}

TEST(CatalogBinaryTest, RejectsOutOfDomainValues) {
  ElementSet catalog = TestCatalog(10);
  catalog[3].change_rate = -1.0;
  std::string blob = CatalogToBinary(catalog);
  // CRCs are over the stored bytes, so this file is "intact" but invalid:
  // domain validation must reject it.
  EXPECT_FALSE(LoadCatalogBytes(blob).ok());

  catalog = TestCatalog(10);
  catalog[0].size = 0.0;
  blob = CatalogToBinary(catalog);
  EXPECT_FALSE(LoadCatalogBytes(blob).ok());

  catalog = TestCatalog(10);
  catalog[9].access_prob = std::nan("");
  blob = CatalogToBinary(catalog);
  EXPECT_FALSE(LoadCatalogBytes(blob).ok());
}

// An access profile with no positive weight is refused by the column check
// that reads it, as the CSV loader refuses one; an empty catalog is not.
TEST(CatalogBinaryTest, RejectsAllZeroAccessWeights) {
  ElementSet catalog = TestCatalog(3);
  for (Element& element : catalog) element.access_prob = 0.0;
  const auto parsed = LoadCatalogBytes(CatalogToBinary(catalog));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("all weights are zero"),
            std::string::npos);

  // One positive weight is enough.
  catalog[2].access_prob = 1.0;
  EXPECT_TRUE(LoadCatalogBytes(CatalogToBinary(catalog)).ok());
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
  // The reader is picked from the file's first bytes.
  EXPECT_EQ(LoadCatalog(binary_path).value().size(), catalog.size());
  EXPECT_EQ(LoadCatalog(csv_path).value().size(), catalog.size());
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
    const auto parsed = LoadCatalogBytes(corrupted);
    ASSERT_FALSE(parsed.ok()) << "flip at byte " << at;
    EXPECT_NE(parsed.status().message().find("payload checksum mismatch"),
              std::string::npos)
        << parsed.status().message();
  }
}

constexpr size_t kK = kCatalogLoadChunk;
constexpr size_t kTableBytes = 32 + 3 * 32;  // Header + section table.

// Byte offset of element `i` of section `s` in a file CatalogToBinary wrote
// for `n` elements (the sections follow the table in kind order).
size_t PayloadByte(size_t n, int s, size_t i) {
  return kTableBytes + (s * n + i) * sizeof(double);
}

// Round trips at the chunk boundaries: nothing, one element, one short of a
// chunk, one chunk, one past it, and three chunks and a tail, bit for bit.
TEST(CatalogBinaryTest, StreamingLoadRoundTripsAtChunkBoundaries) {
  for (const size_t n : {size_t{0}, size_t{1}, kK - 1, kK, kK + 1,
                         3 * kK + 7}) {
    const ElementSet catalog = n == 0 ? ElementSet{} : TestCatalog(n);
    const std::string blob = CatalogToBinary(catalog);
    const auto parsed = LoadCatalogBytes(blob);
    ASSERT_TRUE(parsed.ok()) << "n = " << n << ": " << parsed.status();
    ExpectBitIdentical(catalog, *parsed);
    EXPECT_EQ(CatalogToBinary(*parsed), blob) << "n = " << n;
  }
}

// A low-mantissa bit flipped in the first, a middle or the last (short)
// chunk of each column stays in its domain, so only that section's running
// checksum catches it.
TEST(CatalogBinaryTest, PayloadBitFlipInAnyChunkFailsTheChecksum) {
  constexpr size_t n = 3 * kK + 7;
  const std::string blob = CatalogToBinary(TestCatalog(n));
  for (int s = 0; s < 3; ++s) {
    for (const size_t i : {size_t{0}, kK + kK / 2, n - 1}) {
      std::string corrupted = blob;
      corrupted[PayloadByte(n, s, i)] ^= 0x01;
      const auto parsed = LoadCatalogBytes(corrupted);
      ASSERT_FALSE(parsed.ok()) << "section " << s << " element " << i;
      EXPECT_EQ(parsed.status().message(),
                StrFormat("section %d: payload checksum mismatch", s + 1));
    }
  }
}

// A value out of domain in the tail chunk is named by its element index.
TEST(CatalogBinaryTest, DomainErrorInTheTailChunkNamesItsElement) {
  constexpr size_t n = 3 * kK + 7;
  ElementSet catalog = TestCatalog(n);
  catalog[n - 4].size = 0.0;
  const auto parsed = LoadCatalogBytes(CatalogToBinary(catalog));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(),
            StrFormat("element %zu: size must be > 0", n - 4));
}

// The pass runs on past a value out of domain, so the checksum of its
// section still decides first, and sections report in table order: a
// domain error in the first section wins over a bad checksum in the last.
TEST(CatalogBinaryTest, EachSectionReportsItsChecksumBeforeItsValues) {
  constexpr size_t n = 3 * kK + 7;
  ElementSet catalog = TestCatalog(n);
  catalog[5].change_rate = -1.0;
  const std::string blob = CatalogToBinary(catalog);

  std::string same_section = blob;
  same_section[PayloadByte(n, 0, n - 1)] ^= 0x01;
  auto parsed = LoadCatalogBytes(same_section);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), "section 1: payload checksum mismatch");

  std::string later_section = blob;
  later_section[PayloadByte(n, 2, 0)] ^= 0x01;
  parsed = LoadCatalogBytes(later_section);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().message(), "element 5: change_rate must be >= 0");
}

// A file that shrinks after its size was read fails with a short read at
// the first byte the pass finds missing: cut inside the header, the section
// table, the first section (found at the second section's first chunk,
// which the pass reads before the first section's second one) and the last
// chunk of the last section.
TEST(CatalogBinaryTest, FileTruncatedAfterItsSizeWasReadFailsAsItsBytes) {
  constexpr size_t n = 3 * kK + 7;
  const std::string blob = CatalogToBinary(TestCatalog(n));
  const std::string path = TempPath("catalog_truncated.fcat");
  const struct {
    size_t cut;
    size_t missing;
  } cases[] = {{20, 20},
               {100, 100},
               {PayloadByte(n, 0, kK), PayloadByte(n, 1, 0)},
               {PayloadByte(n, 2, n - 3), PayloadByte(n, 2, n - 3)}};
  for (const auto& [cut, missing] : cases) {
    ASSERT_TRUE(WriteStringToFile(blob, path).ok());
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(cut)), 0);
    const auto loaded = internal::LoadCatalogBinaryFd(fd, blob.size());
    ::close(fd);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(loaded.status().message(),
              StrFormat("file ends at byte %zu, before its size %zu", missing,
                        blob.size()))
        << "cut at " << cut;
  }
  std::remove(path.c_str());
}

// A header claiming 2^61 + 1 elements over 8-byte sections (152 bytes, every
// checksum valid): n * 8 wraps to 8, so the section lengths must be checked
// against the count without multiplying it.
TEST(CatalogBinaryTest, ElementCountPast2To61IsRejectedBeforeItWraps) {
  std::string file(kTableBytes + 3 * sizeof(double), '\0');
  const uint64_t n = (uint64_t{1} << 61) + 1;
  const double values[3] = {1.0, 0.5, 1.0};
  for (uint32_t s = 0; s < 3; ++s) {
    const uint64_t offset = kTableBytes + s * sizeof(double);
    const uint64_t length = sizeof(double);
    std::memcpy(&file[offset], &values[s], sizeof(double));
    const uint32_t kind = s + 1;
    const uint32_t crc = Crc32(&file[offset], sizeof(double));
    char* entry = &file[32 + 32 * s];
    std::memcpy(entry, &kind, 4);
    std::memcpy(entry + 8, &offset, 8);
    std::memcpy(entry + 16, &length, 8);
    std::memcpy(entry + 24, &crc, 4);
  }
  const uint32_t version = 1;
  const uint32_t sections = 3;
  std::memcpy(&file[0], "FRSHCAT1", 8);
  std::memcpy(&file[8], &version, 4);
  std::memcpy(&file[12], &sections, 4);
  std::memcpy(&file[16], &n, 8);
  const uint32_t header_crc = Crc32(file.data(), 28);
  std::memcpy(&file[28], &header_crc, 4);
  ASSERT_EQ(file.size(), 152u);

  const auto parsed = LoadCatalogBytes(file);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed.status().message(),
            "section 1: length 8 != 2305843009213693953 elements * 8");
}

// A load allocates the ElementSet, reserved once to its final size, and
// nothing else: no mapping, no column buffer, no per-chunk allocation.
TEST(CatalogBinaryTest, LoadAllocatesOnlyTheElementSet) {
  const std::string path = TempPath("catalog_allocations.fcat");
  for (const size_t n : {size_t{0}, size_t{1}, 3 * kK + 7}) {
    const ElementSet catalog = n == 0 ? ElementSet{} : TestCatalog(n);
    ASSERT_TRUE(SaveCatalogBinary(catalog, path).ok());
    allocations = 0;
    counting_allocations = true;
    Result<ElementSet> loaded = LoadCatalogBinary(path);
    counting_allocations = false;
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(allocations.load(), n == 0 ? 0u : 1u) << "n = " << n;
    EXPECT_EQ(loaded->capacity(), n);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace freshen

// Counts allocations for LoadAllocatesOnlyTheElementSet; otherwise plain
// malloc and free. Not inlined, so the compiler does not pair a caller's
// new with the free inside delete.
__attribute__((noinline)) void* operator new(size_t size) {
  if (freshen::counting_allocations.load(std::memory_order_relaxed)) {
    ++freshen::allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
