#include "io/catalog_binary.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>
#endif

#include "common/macros.h"
#include "common/string_util.h"
#include "io/catalog_io.h"

namespace freshen {
namespace {

static_assert(sizeof(double) == 8, "binary catalog assumes 8-byte doubles");

// The format is defined little-endian; this toolchain targets x86-64 /
// aarch64, both little-endian, so serialization is memcpy. The static
// assert keeps a big-endian port from silently writing byte-swapped files.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "binary catalog writer requires a little-endian target");

constexpr char kMagic[8] = {'F', 'R', 'S', 'H', 'C', 'A', 'T', '1'};
constexpr uint32_t kVersion = 1;

enum SectionKind : uint32_t {
  kSectionChangeRate = 1,
  kSectionAccessProb = 2,
  kSectionSize = 3,
};

#pragma pack(push, 1)
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t num_sections;
  uint64_t num_elements;
  uint32_t reserved;
  uint32_t header_crc;  // CRC of the 28 bytes preceding this field.
};
struct SectionEntry {
  uint32_t kind;
  uint32_t reserved;
  uint64_t offset;
  uint64_t length;
  uint32_t payload_crc;
  uint32_t reserved2;
};
#pragma pack(pop)
static_assert(sizeof(FileHeader) == 32, "header layout drifted");
static_assert(sizeof(SectionEntry) == 32, "section layout drifted");

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][b] extends a byte that still has k more zero bytes behind it.
// Where the build targets PCLMULQDQ and SSE4.1, the carry-less-multiply
// kernel below takes every whole 16-byte block of an input of 64 bytes or
// more, and these tables take the rest: shorter inputs and the tail.
// Elsewhere they take everything, 8 input bytes per iteration.
using Crc32Tables = uint32_t[8][256];

const Crc32Tables& Crc32Table() {
  static const Crc32Tables& tables = [] () -> const Crc32Tables& {
    static Crc32Tables t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

#if defined(__PCLMUL__) && defined(__SSE4_1__)
// Folds `size` bytes (at least 64, a multiple of 16) into the running CRC
// `crc` (pre-inverted, as Crc32 keeps it) with carry-less multiplies, four
// 16-byte lanes at a time. Gopal, Ozturk et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009); the
// constants are that paper's for the bit-reflected IEEE polynomial:
// x^(4*128+64) and x^(4*128) mod P (k1, k2) fold 64 bytes ahead,
// x^(128+64) and x^128 mod P (k3, k4) fold 16 bytes ahead, x^64 mod P (k5)
// folds 96 bits to 64, and P' and mu drive the final Barrett reduction.
uint32_t Crc32Clmul(const unsigned char* bytes, size_t size, uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  // Folds one 128-bit lane ahead: x_hi * k_hi ^ x_lo * k_lo ^ next.
  const auto fold = [](__m128i x, __m128i k, __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                       _mm_clmulepi64_si128(x, k, 0x00)),
                         next);
  };

  __m128i x1 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(crc));
  __m128i x2 = load(bytes + 16);
  __m128i x3 = load(bytes + 32);
  __m128i x4 = load(bytes + 48);
  bytes += 64;
  size -= 64;
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(bytes));
    x2 = fold(x2, k1k2, load(bytes + 16));
    x3 = fold(x3, k1k2, load(bytes + 32));
    x4 = fold(x4, k1k2, load(bytes + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = fold(x1, k3k4, load(bytes));
  }

  // 128 bits to 64: fold the low half onto the high half by k4, then the
  // low 32 bits of the 96-bit result by k5.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif

// The running form of Crc32: folds `size` bytes into `crc`, which is kept
// pre-inverted (0xFFFFFFFF before the first byte, inverted once after the
// last), so a range folded in chunks of any length gets Crc32's value.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const Crc32Tables& table = Crc32Table();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
#if defined(__PCLMUL__) && defined(__SSE4_1__)
  if (size >= 64) {
    const size_t blocks = size & ~size_t{15};
    crc = Crc32Clmul(bytes, blocks, crc);
    bytes += blocks;
    size -= blocks;
  }
#endif
  // Eight bytes per iteration (slicing-by-8). The payloads are 8-aligned
  // by construction, but memcpy keeps the fast path valid for any input.
  while (size >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, bytes, 8);
    chunk ^= crc;  // Little-endian: the CRC folds into the low 4 bytes.
    crc = table[7][chunk & 0xFFu] ^ table[6][(chunk >> 8) & 0xFFu] ^
          table[5][(chunk >> 16) & 0xFFu] ^ table[4][(chunk >> 24) & 0xFFu] ^
          table[3][(chunk >> 32) & 0xFFu] ^ table[2][(chunk >> 40) & 0xFFu] ^
          table[1][(chunk >> 48) & 0xFFu] ^ table[0][(chunk >> 56) & 0xFFu];
    bytes += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[0][(crc ^ bytes[i]) & 0xFFu];
  }
  return crc;
}

constexpr uint64_t kTableEnd = sizeof(FileHeader) + 3 * sizeof(SectionEntry);

// Reads the `length` bytes at `offset` of the open file `fd` into `buffer`,
// a range the caller has checked lies inside the file's `size`. An
// interrupted read is retried; a file that ends early (it shrank after its
// size was read) or a read error fails.
Status ReadAt(int fd, uint64_t size, uint64_t offset, size_t length,
              unsigned char* buffer) {
  size_t done = 0;
  while (done < length) {
    const ssize_t got = ::pread(fd, buffer + done, length - done,
                                static_cast<off_t>(offset + done));
    if (got > 0) {
      done += static_cast<size_t>(got);
    } else if (got == 0) {
      return Status::InvalidArgument(
          StrFormat("file ends at byte %llu, before its size %llu",
                    static_cast<unsigned long long>(offset + done),
                    static_cast<unsigned long long>(size)));
    } else if (errno != EINTR) {
      return Status::Internal(StrFormat("pread: %s", std::strerror(errno)));
    }
  }
  return Status::OK();
}

double LoadDouble(const unsigned char* column, size_t i) {
  double value;
  std::memcpy(&value, column + i * sizeof(double), sizeof(double));
  return value;
}

// Element i of a chunk, read from its three columns: the iterator
// ElementSet::insert copies a chunk with, constructing each element in
// place once (no value-initialised set, no per-element capacity check).
struct ChunkElements {
  using iterator_category = std::forward_iterator_tag;
  using value_type = Element;
  using difference_type = std::ptrdiff_t;
  using pointer = const Element*;
  using reference = Element;

  const unsigned char* rates = nullptr;
  const unsigned char* probs = nullptr;
  const unsigned char* sizes = nullptr;
  size_t i = 0;

  Element operator*() const {
    return {LoadDouble(rates, i), LoadDouble(probs, i), LoadDouble(sizes, i)};
  }
  ChunkElements& operator++() {
    ++i;
    return *this;
  }
  ChunkElements operator++(int) {
    ChunkElements before = *this;
    ++i;
    return before;
  }
  bool operator==(const ChunkElements& other) const { return i == other.i; }
};

// One section's checks, advanced a chunk at a time: its running CRC and
// the first value outside its kind's domain. The domain is a closed range
// that NaN falls outside of: rates in [0, max], probabilities in [0, 1],
// sizes in [denorm_min, max] (so > 0); a section of unknown kind needs
// only finite values.
struct SectionCheck {
  SectionEntry entry;
  double lo = 0.0;
  double hi = 0.0;
  uint32_t crc = 0xFFFFFFFFu;
  bool any_positive = false;
  bool out_of_domain = false;  // first_bad and bad_value are set.
  uint64_t first_bad = 0;
  double bad_value = 0.0;

  void SetDomain() {
    constexpr double kMax = std::numeric_limits<double>::max();
    lo = -kMax;
    hi = kMax;
    switch (entry.kind) {
      case kSectionChangeRate:
        lo = 0.0;
        break;
      case kSectionAccessProb:
        lo = 0.0;
        hi = 1.0;
        break;
      case kSectionSize:
        lo = std::numeric_limits<double>::denorm_min();
        break;
    }
  }

  // Folds in the `count` values of elements [first, first + count).
  void Add(const unsigned char* values, uint64_t first, size_t count) {
    crc = Crc32Update(crc, values, count * sizeof(double));
    // Bounds in locals and int flags: the loop vectorizes (bools and
    // members, which the byte pointer may alias, keep it scalar).
    const double low = lo;
    const double high = hi;
    int in_domain = 1;
    int positive = 0;
    for (size_t i = 0; i < count; ++i) {
      const double v = LoadDouble(values, i);
      in_domain &= (v >= low) & (v <= high);
      positive |= v > 0.0;
    }
    any_positive |= positive != 0;
    if (in_domain != 0 || out_of_domain) return;
    for (size_t i = 0;; ++i) {
      const double v = LoadDouble(values, i);
      if (!(v >= low && v <= high)) {
        out_of_domain = true;
        first_bad = first + i;
        bad_value = v;
        return;
      }
    }
  }

  // The section's first fault, in the order a reader meets them: the
  // checksum, the first value outside the domain, an access profile with
  // no positive weight (an empty catalog has no profile and passes), an
  // unknown kind.
  Status Verdict(uint64_t num_elements) const {
    const unsigned kind = entry.kind;
    if ((crc ^ 0xFFFFFFFFu) != entry.payload_crc) {
      return Status::InvalidArgument(
          StrFormat("section %u: payload checksum mismatch", kind));
    }
    if (out_of_domain) {
      const size_t i = static_cast<size_t>(first_bad);
      if (!std::isfinite(bad_value)) {
        return Status::InvalidArgument(StrFormat(
            "element %zu: non-finite value in section %u", i, kind));
      }
      switch (kind) {
        case kSectionChangeRate:
          return Status::InvalidArgument(
              StrFormat("element %zu: change_rate must be >= 0", i));
        case kSectionAccessProb:
          return Status::InvalidArgument(
              StrFormat("element %zu: access_prob must be in [0, 1]", i));
        default:
          return Status::InvalidArgument(
              StrFormat("element %zu: size must be > 0", i));
      }
    }
    if (kind == kSectionAccessProb && num_elements > 0 && !any_positive) {
      return Status::InvalidArgument("access_prob: all weights are zero");
    }
    if (kind < kSectionChangeRate || kind > kSectionSize) {
      return Status::InvalidArgument(
          StrFormat("unknown section kind %u", kind));
    }
    return Status::OK();
  }
};

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::string CatalogToBinary(const ElementSet& elements) {
  const size_t n = elements.size();
  const size_t column_bytes = n * sizeof(double);
  const size_t table_end = sizeof(FileHeader) + 3 * sizeof(SectionEntry);
  std::string out(table_end + 3 * column_bytes, '\0');

  const std::vector<double> columns[3] = {ChangeRates(elements),
                                          AccessProbs(elements),
                                          Sizes(elements)};
  const SectionKind kinds[3] = {kSectionChangeRate, kSectionAccessProb,
                                kSectionSize};
  for (int s = 0; s < 3; ++s) {
    const size_t offset = table_end + s * column_bytes;
    if (column_bytes > 0) {
      std::memcpy(&out[offset], columns[s].data(), column_bytes);
    }
    SectionEntry entry;
    std::memset(&entry, 0, sizeof(entry));
    entry.kind = kinds[s];
    entry.offset = offset;
    entry.length = column_bytes;
    entry.payload_crc = Crc32(out.data() + offset, column_bytes);
    std::memcpy(&out[sizeof(FileHeader) + s * sizeof(entry)], &entry,
                sizeof(entry));
  }

  FileHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.num_sections = 3;
  header.num_elements = n;
  std::memcpy(&out[0], &header, sizeof(header));
  // CRC covers the header bytes as they appear in the file.
  header.header_crc = Crc32(out.data(), offsetof(FileHeader, header_crc));
  std::memcpy(&out[0], &header, sizeof(header));
  return out;
}

Status SaveCatalogBinary(const ElementSet& elements,
                         const std::string& path) {
  return WriteStringToFile(CatalogToBinary(elements), path);
}

namespace internal {

// The load pass. It reads the header and section table and makes every
// structural check, then walks the three sections kCatalogLoadChunk
// elements at a time: each chunk of each column is read once, folded into
// its section's CRC, checked against its domain and appended to the
// elements. A fault found in the walk does not stop it, so the faults are
// reported as a reader of one whole section after another would meet
// them: per section in table order its checksum, its first value out of
// domain, its kind; then a missing section. Nothing is allocated but the
// ElementSet, and only when every kind of section is present.
Result<ElementSet> LoadCatalogBinaryFd(int fd, uint64_t size) {
  if (size < sizeof(FileHeader)) {
    return Status::InvalidArgument(StrFormat(
        "file too small for header (%zu bytes)", static_cast<size_t>(size)));
  }
  unsigned char bytes[kTableEnd];
  FRESHEN_RETURN_IF_ERROR(
      ReadAt(fd, size, 0, std::min(size, kTableEnd), bytes));
  FileHeader header;
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic (not a FRSHCAT1 catalog)");
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported version %u (expected %u)", header.version,
                  kVersion));
  }
  if (header.header_crc != Crc32(bytes, offsetof(FileHeader, header_crc))) {
    return Status::InvalidArgument("header checksum mismatch");
  }
  if (header.num_sections != 3) {
    return Status::InvalidArgument(
        StrFormat("expected 3 sections, found %u", header.num_sections));
  }
  if (size < kTableEnd) {
    return Status::InvalidArgument("file truncated inside section table");
  }
  const uint64_t n = header.num_elements;

  SectionCheck sections[3];
  int section_of_kind[3] = {-1, -1, -1};
  for (int s = 0; s < 3; ++s) {
    SectionEntry& entry = sections[s].entry;
    std::memcpy(&entry, bytes + sizeof(FileHeader) + s * sizeof(entry),
                sizeof(entry));
    // Divided, not multiplied: n * 8 wraps for n >= 2^61. Once the range
    // check below passes, n * 8 = length fits in the file.
    if (entry.length % sizeof(double) != 0 ||
        entry.length / sizeof(double) != n) {
      return Status::InvalidArgument(
          StrFormat("section %u: length %llu != %llu elements * 8", entry.kind,
                    static_cast<unsigned long long>(entry.length),
                    static_cast<unsigned long long>(n)));
    }
    if (entry.offset % alignof(double) != 0) {
      return Status::InvalidArgument(
          StrFormat("section %u: offset not 8-byte aligned", entry.kind));
    }
    if (entry.offset < kTableEnd || entry.offset > size ||
        entry.length > size - entry.offset) {
      return Status::InvalidArgument(
          StrFormat("section %u: range [%llu, +%llu) outside file", entry.kind,
                    static_cast<unsigned long long>(entry.offset),
                    static_cast<unsigned long long>(entry.length)));
    }
    sections[s].SetDomain();
    if (entry.kind >= kSectionChangeRate && entry.kind <= kSectionSize &&
        section_of_kind[entry.kind - 1] < 0) {
      section_of_kind[entry.kind - 1] = s;
    }
  }
  const bool complete = section_of_kind[0] >= 0 && section_of_kind[1] >= 0 &&
                        section_of_kind[2] >= 0;
  ElementSet elements;
  if (complete) elements.reserve(static_cast<size_t>(n));

  alignas(16) unsigned char chunk[3][kCatalogLoadChunk * sizeof(double)];
  for (uint64_t first = 0; first < n; first += kCatalogLoadChunk) {
    const size_t count =
        static_cast<size_t>(std::min<uint64_t>(kCatalogLoadChunk, n - first));
    for (int s = 0; s < 3; ++s) {
      FRESHEN_RETURN_IF_ERROR(ReadAt(
          fd, size, sections[s].entry.offset + first * sizeof(double),
          count * sizeof(double), chunk[s]));
      sections[s].Add(chunk[s], first, count);
    }
    if (complete) {
      const unsigned char* rates = chunk[section_of_kind[0]];
      const unsigned char* probs = chunk[section_of_kind[1]];
      const unsigned char* sizes = chunk[section_of_kind[2]];
      elements.insert(elements.end(), ChunkElements{rates, probs, sizes, 0},
                      ChunkElements{rates, probs, sizes, count});
    }
  }

  for (const SectionCheck& section : sections) {
    FRESHEN_RETURN_IF_ERROR(section.Verdict(n));
  }
  if (!complete) {
    return Status::InvalidArgument("missing a required section");
  }
  return elements;
}

}  // namespace internal

Result<ElementSet> LoadCatalogBinary(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::NotFound(
        StrFormat("%s: %s", path.c_str(), std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(
        StrFormat("%s: fstat: %s", path.c_str(), std::strerror(err)));
  }
  if (st.st_size == 0) {
    ::close(fd);
    return Status::InvalidArgument(path + ": empty file");
  }
  Result<ElementSet> elements =
      internal::LoadCatalogBinaryFd(fd, static_cast<uint64_t>(st.st_size));
  ::close(fd);
  if (!elements.ok()) {
    return Status(elements.status().code(),
                  path + ": " + elements.status().message());
  }
  return elements;
}

bool LooksLikeBinaryCatalog(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char magic[8] = {};
  const size_t got = std::fread(magic, 1, sizeof(magic), file);
  std::fclose(file);
  return got == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

Result<ElementSet> LoadCatalog(const std::string& path) {
  return LooksLikeBinaryCatalog(path) ? LoadCatalogBinary(path)
                                      : LoadCatalogCsv(path);
}

}  // namespace freshen
