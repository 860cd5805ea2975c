#include "io/catalog_binary.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>

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

Status ValidateColumn(SectionKind kind, const double* values, size_t n) {
  // An access profile needs one positive weight: no access can be drawn
  // from an all-zero column, and the CSV loader and the online loop reject
  // one too. An empty catalog has no profile to draw from and stays valid.
  bool any_weight = n == 0;
  for (size_t i = 0; i < n; ++i) {
    const double v = values[i];
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          StrFormat("element %zu: non-finite value in section %u", i,
                    static_cast<unsigned>(kind)));
    }
    switch (kind) {
      case kSectionChangeRate:
        if (v < 0.0) {
          return Status::InvalidArgument(
              StrFormat("element %zu: change_rate must be >= 0", i));
        }
        break;
      case kSectionAccessProb:
        if (v < 0.0 || v > 1.0) {
          return Status::InvalidArgument(
              StrFormat("element %zu: access_prob must be in [0, 1]", i));
        }
        any_weight |= v > 0.0;
        break;
      case kSectionSize:
        if (!(v > 0.0)) {
          return Status::InvalidArgument(
              StrFormat("element %zu: size must be > 0", i));
        }
        break;
    }
  }
  if (kind == kSectionAccessProb && !any_weight) {
    return Status::InvalidArgument("access_prob: all weights are zero");
  }
  return Status::OK();
}

struct ParsedColumns {
  size_t num_elements = 0;
  const double* change_rates = nullptr;
  const double* access_probs = nullptr;
  const double* sizes = nullptr;
};

// Copies validated columns into an owned catalog, one element at a time.
ElementSet ToElements(const ParsedColumns& columns) {
  ElementSet elements(columns.num_elements);
  for (size_t i = 0; i < columns.num_elements; ++i) {
    elements[i].change_rate = columns.change_rates[i];
    elements[i].access_prob = columns.access_probs[i];
    elements[i].size = columns.sizes[i];
  }
  return elements;
}

// Shared validation core: checks every structural and domain invariant and
// returns pointers into `data`. Used by both the copying loader and the
// zero-copy mmap loader.
Result<ParsedColumns> ValidateCatalogBinary(const void* data, size_t size) {
  const char* bytes = static_cast<const char*>(data);
  if (size < sizeof(FileHeader)) {
    return Status::InvalidArgument(
        StrFormat("file too small for header (%zu bytes)", size));
  }
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
  const uint32_t expected_crc =
      Crc32(bytes, offsetof(FileHeader, header_crc));
  if (header.header_crc != expected_crc) {
    return Status::InvalidArgument("header checksum mismatch");
  }
  if (header.num_sections != 3) {
    return Status::InvalidArgument(
        StrFormat("expected 3 sections, found %u", header.num_sections));
  }
  const uint64_t n = header.num_elements;
  const uint64_t table_end =
      sizeof(FileHeader) + header.num_sections * sizeof(SectionEntry);
  if (size < table_end) {
    return Status::InvalidArgument("file truncated inside section table");
  }

  ParsedColumns columns;
  columns.num_elements = static_cast<size_t>(n);
  for (uint32_t s = 0; s < header.num_sections; ++s) {
    SectionEntry entry;
    std::memcpy(&entry, bytes + sizeof(FileHeader) + s * sizeof(entry),
                sizeof(entry));
    if (entry.length != n * sizeof(double)) {
      return Status::InvalidArgument(
          StrFormat("section %u: length %llu != %llu elements * 8", entry.kind,
                    static_cast<unsigned long long>(entry.length),
                    static_cast<unsigned long long>(n)));
    }
    if (entry.offset % alignof(double) != 0) {
      return Status::InvalidArgument(
          StrFormat("section %u: offset not 8-byte aligned", entry.kind));
    }
    if (entry.offset < table_end || entry.offset > size ||
        entry.length > size - entry.offset) {
      return Status::InvalidArgument(
          StrFormat("section %u: range [%llu, +%llu) outside file", entry.kind,
                    static_cast<unsigned long long>(entry.offset),
                    static_cast<unsigned long long>(entry.length)));
    }
    const char* payload = bytes + entry.offset;
    if (Crc32(payload, entry.length) != entry.payload_crc) {
      return Status::InvalidArgument(
          StrFormat("section %u: payload checksum mismatch", entry.kind));
    }
    const double* values = reinterpret_cast<const double*>(payload);
    const auto kind = static_cast<SectionKind>(entry.kind);
    FRESHEN_RETURN_IF_ERROR(
        ValidateColumn(kind, values, columns.num_elements));
    switch (kind) {
      case kSectionChangeRate:
        columns.change_rates = values;
        break;
      case kSectionAccessProb:
        columns.access_probs = values;
        break;
      case kSectionSize:
        columns.sizes = values;
        break;
      default:
        return Status::InvalidArgument(
            StrFormat("unknown section kind %u", entry.kind));
    }
  }
  if (columns.change_rates == nullptr || columns.access_probs == nullptr ||
      columns.sizes == nullptr) {
    return Status::InvalidArgument("missing a required section");
  }
  return columns;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const Crc32Tables& table = Crc32Table();
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
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
  return crc ^ 0xFFFFFFFFu;
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

Result<ElementSet> ParseCatalogBinary(const void* data, size_t size) {
  FRESHEN_ASSIGN_OR_RETURN(ParsedColumns columns,
                           ValidateCatalogBinary(data, size));
  return ToElements(columns);
}

Result<ElementSet> LoadCatalogBinary(const std::string& path) {
  FRESHEN_ASSIGN_OR_RETURN(MmapCatalog mapped, MmapCatalog::Open(path));
  return mapped.ToElementSet();
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

Result<ElementSet> LoadCatalog(const std::string& path,
                               const std::string& format) {
  if (format == "auto") {
    return LooksLikeBinaryCatalog(path) ? LoadCatalogBinary(path)
                                        : LoadCatalogCsv(path);
  }
  if (format == "csv") return LoadCatalogCsv(path);
  if (format == "binary") return LoadCatalogBinary(path);
  return Status::InvalidArgument("unknown catalog format " + format);
}

Result<MmapCatalog> MmapCatalog::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
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
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::InvalidArgument(path + ": empty file");
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (mapping == MAP_FAILED) {
    return Status::Internal(
        StrFormat("%s: mmap: %s", path.c_str(), std::strerror(errno)));
  }
  auto columns = ValidateCatalogBinary(mapping, size);
  if (!columns.ok()) {
    ::munmap(mapping, size);
    return Status(columns.status().code(),
                  path + ": " + columns.status().message());
  }
  MmapCatalog catalog;
  catalog.mapping_ = mapping;
  catalog.mapping_size_ = size;
  catalog.num_elements_ = columns->num_elements;
  catalog.change_rates_ = columns->change_rates;
  catalog.access_probs_ = columns->access_probs;
  catalog.sizes_ = columns->sizes;
  return catalog;
}

MmapCatalog::MmapCatalog(MmapCatalog&& other) noexcept
    : mapping_(other.mapping_),
      mapping_size_(other.mapping_size_),
      num_elements_(other.num_elements_),
      change_rates_(other.change_rates_),
      access_probs_(other.access_probs_),
      sizes_(other.sizes_) {
  other.mapping_ = nullptr;
  other.mapping_size_ = 0;
  other.num_elements_ = 0;
  other.change_rates_ = nullptr;
  other.access_probs_ = nullptr;
  other.sizes_ = nullptr;
}

MmapCatalog& MmapCatalog::operator=(MmapCatalog&& other) noexcept {
  if (this != &other) {
    if (mapping_ != nullptr) ::munmap(mapping_, mapping_size_);
    mapping_ = other.mapping_;
    mapping_size_ = other.mapping_size_;
    num_elements_ = other.num_elements_;
    change_rates_ = other.change_rates_;
    access_probs_ = other.access_probs_;
    sizes_ = other.sizes_;
    other.mapping_ = nullptr;
    other.mapping_size_ = 0;
    other.num_elements_ = 0;
    other.change_rates_ = nullptr;
    other.access_probs_ = nullptr;
    other.sizes_ = nullptr;
  }
  return *this;
}

MmapCatalog::~MmapCatalog() {
  if (mapping_ != nullptr) ::munmap(mapping_, mapping_size_);
}

ElementSet MmapCatalog::ToElementSet() const {
  return ToElements({num_elements_, change_rates_, access_probs_, sizes_});
}

}  // namespace freshen
