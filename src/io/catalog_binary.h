// Compact binary catalog format ("FRSHCAT1") and its one loader.
//
// CSV (io/catalog_io.h) is the interchange format; this is the serving
// format: at production catalog sizes (10^6..10^8 elements) strtod-parsing
// CSV dominates daemon startup, while the binary columns need no parsing.
// LoadCatalogBinary reads them with pread, a fixed-size chunk at a time,
// and builds the ElementSet in the same pass, so a load holds the catalog
// once (no mapping beside the copy).
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
// elements. The pass checks the structure first, then per section in
// table order its checksum before its values.
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

/// Loads a binary catalog file in one streaming pass: pread into a stack
/// buffer a chunk at a time, appending to an ElementSet reserved up front,
/// which is the only allocation. Errors carry a `path: ` prefix.
Result<ElementSet> LoadCatalogBinary(const std::string& path);

namespace internal {
/// LoadCatalogBinary's pass over an open file of `size` bytes (errors carry
/// no path). A file that ends before `size` (it shrank while loading)
/// fails with "file ends at byte ...". Exposed so a test can pass a size
/// the file no longer has.
Result<ElementSet> LoadCatalogBinaryFd(int fd, uint64_t size);
}  // namespace internal

/// True when the first bytes of `path` carry the FRSHCAT1 magic — lets
/// callers auto-detect binary vs CSV catalogs.
bool LooksLikeBinaryCatalog(const std::string& path);

/// Loads a catalog file: FRSHCAT1 when it carries the magic, CSV
/// otherwise.
Result<ElementSet> LoadCatalog(const std::string& path);

}  // namespace freshen

#endif  // FRESHEN_IO_CATALOG_BINARY_H_
