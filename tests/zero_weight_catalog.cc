// Writes a 3-element FRSHCAT1 catalog whose access_prob column is all zero
// to the path given as the only argument. The writer does not validate, so
// the file is intact and the loaders must reject it on its values:
//
//   zero_weight_catalog zero.fcat && freshenctl plan --catalog=zero.fcat
#include <cstdio>

#include "io/catalog_binary.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: zero_weight_catalog PATH\n");
    return 2;
  }
  freshen::ElementSet catalog(3);
  for (size_t i = 0; i < catalog.size(); ++i) {
    catalog[i].change_rate = 1.0 + static_cast<double>(i);
    catalog[i].access_prob = 0.0;
    catalog[i].size = 1.0;
  }
  const freshen::Status status = freshen::SaveCatalogBinary(catalog, argv[1]);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
