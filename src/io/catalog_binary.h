// Compact binary catalog format ("FRSHCAT1"): a streaming copying loader
// and a zero-copy mmap view.
//
// CSV (io/catalog_io.h) is the interchange format; this is the serving
// format: at production catalog sizes (10^6..10^8 elements) strtod-parsing
// CSV dominates daemon startup, while the binary columns need no parsing.
// LoadCatalogBinary reads them with pread, a fixed-size chunk at a time,
// and builds the ElementSet in the same pass, so a load holds the catalog
// once (no mapping beside the copy). MmapCatalog is the zero-copy view: it
// maps the file and its accessors read the columns in place.
//
// File layout (all integers little-endian, doubles IEEE-754 little-endian):
//
//   FileHeader (32 bytes)
//     magic[8]        "FRSHCAT1"
//     u32 version     1
//     u32 num_sections
//     u64 num_elements
//     u32 reserved    0
//     u32 header_crc  CRC-32 of the preceding 28 header bytes
//   SectionEntry x num_sections (32 bytes each)
//     u32 kind        1 = change_rate, 2 = access_prob, 3 = size
//     u32 reserved    0
//     u64 offset      payload start, from file start; 8-byte aligned
//     u64 length      payload bytes (= num_elements * 8)
//     u32 payload_crc CRC-32 of the payload bytes
//     u32 reserved2   0
//   Payloads: contiguous f64 arrays (structure-of-arrays).
//
// Every load verifies magic, version, both CRCs, section bounds, and value
// domains (finite, rate >= 0, prob in [0, 1] with one > 0, size > 0), so a
// truncated or bit-flipped file is an InvalidArgument, never garbage
// elements. All three entry points run one pass with the same checks and
// the same messages: structure first, then per section in table order its
// checksum before its values.
#ifndef FRESHEN_IO_CATALOG_BINARY_H_
#define FRESHEN_IO_CATALOG_BINARY_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "model/element.h"

namespace freshen {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of a byte range: a
/// carry-less-multiply (PCLMULQDQ) kernel over the whole 16-byte blocks of
/// an input of 64 bytes or more when the build targets it, slicing-by-8
/// tables for the rest. Exposed for tests that corrupt files deliberately.
uint32_t Crc32(const void* data, size_t size);

/// Serializes a catalog into the binary format.
std::string CatalogToBinary(const ElementSet& elements);

/// Writes a catalog to a binary file.
Status SaveCatalogBinary(const ElementSet& elements, const std::string& path);

/// Elements per chunk of the load pass: each of the three columns is read,
/// checksummed and checked this many values at a time (16 KB each).
inline constexpr size_t kCatalogLoadChunk = 2048;

/// Parses the binary format from an in-memory buffer (copying).
Result<ElementSet> ParseCatalogBinary(const void* data, size_t size);

/// Loads a binary catalog file in one streaming pass: pread into a stack
/// buffer a chunk at a time, appending to an ElementSet reserved up front,
/// which is the only allocation. Errors carry a `path: ` prefix.
Result<ElementSet> LoadCatalogBinary(const std::string& path);

namespace internal {
/// LoadCatalogBinary's pass over an open file of `size` bytes (errors carry
/// no path). When the pass fails and the file's size is no longer `size`,
/// it runs once more at the current size, so a file truncated while loading
/// fails as ParseCatalogBinary fails on its remaining bytes. Exposed so a
/// test can pass a size the file no longer has.
Result<ElementSet> LoadCatalogBinaryFd(int fd, uint64_t size);
}  // namespace internal

/// True when the first bytes of `path` carry the FRSHCAT1 magic — lets
/// callers auto-detect binary vs CSV catalogs.
bool LooksLikeBinaryCatalog(const std::string& path);

/// Loads a catalog in `format`: "csv", "binary", or "auto" (binary when the
/// file carries the FRSHCAT1 magic, CSV otherwise). Any other format is an
/// InvalidArgument.
Result<ElementSet> LoadCatalog(const std::string& path,
                               const std::string& format);

/// A binary catalog mapped read-only into memory. The column accessors
/// return pointers directly into the mapping — zero copies, zero parsing —
/// valid for the lifetime of this object. Move-only; unmaps on destruction.
class MmapCatalog {
 public:
  /// Maps and fully validates `path` (headers, CRCs, value domains), with
  /// the load pass reading the mapping in place.
  static Result<MmapCatalog> Open(const std::string& path);

  MmapCatalog(MmapCatalog&& other) noexcept;
  MmapCatalog& operator=(MmapCatalog&& other) noexcept;
  MmapCatalog(const MmapCatalog&) = delete;
  MmapCatalog& operator=(const MmapCatalog&) = delete;
  ~MmapCatalog();

  size_t size() const { return num_elements_; }
  const double* change_rates() const { return change_rates_; }
  const double* access_probs() const { return access_probs_; }
  const double* sizes() const { return sizes_; }

  /// Copies the mapped columns into an owned ElementSet.
  ElementSet ToElementSet() const;

 private:
  MmapCatalog() = default;

  void* mapping_ = nullptr;
  size_t mapping_size_ = 0;
  size_t num_elements_ = 0;
  const double* change_rates_ = nullptr;
  const double* access_probs_ = nullptr;
  const double* sizes_ = nullptr;
};

}  // namespace freshen

#endif  // FRESHEN_IO_CATALOG_BINARY_H_
