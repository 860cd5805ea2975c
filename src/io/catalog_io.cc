#include "io/catalog_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "common/string_util.h"
#include "profile/profile.h"

namespace freshen {
namespace {

// Finds a column index by (trimmed, lowercased) header name, or -1.
int FindColumn(const std::vector<std::string>& header,
               const std::string& name) {
  for (size_t c = 0; c < header.size(); ++c) {
    std::string cell = header[c];
    // Trim whitespace and lowercase.
    size_t begin = cell.find_first_not_of(" \t\r");
    size_t end = cell.find_last_not_of(" \t\r");
    cell = begin == std::string::npos ? "" : cell.substr(begin, end - begin + 1);
    for (char& ch : cell) {
      if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
    }
    if (cell == name) return static_cast<int>(c);
  }
  return -1;
}

Result<double> ParseNumber(const std::string& cell, size_t line, int column) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str()) {
    return Status::InvalidArgument(
        StrFormat("line %zu column %d: cannot parse \"%s\" as a number",
                  line, column + 1, cell.c_str()));
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    // NaN and +-inf parse as numbers but are never valid catalog values;
    // say so instead of the generic "cannot parse".
    return Status::InvalidArgument(
        StrFormat("line %zu column %d: \"%s\" is not a finite number",
                  line, column + 1, cell.c_str()));
  }
  return value;
}

// Parses the optional id column: a non-negative integer element id.
Result<uint64_t> ParseElementId(const std::string& cell, size_t line,
                                int column) {
  const std::string trimmed = [&] {
    const size_t begin = cell.find_first_not_of(" \t\r");
    const size_t end = cell.find_last_not_of(" \t\r");
    return begin == std::string::npos ? std::string()
                                      : cell.substr(begin, end - begin + 1);
  }();
  errno = 0;
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(trimmed.c_str(), &end, 10);
  if (trimmed.empty() || end != trimmed.c_str() + trimmed.size() ||
      errno == ERANGE || trimmed[0] == '-') {
    return Status::InvalidArgument(StrFormat(
        "line %zu column %d: \"%s\" is not a valid element id "
        "(expected a non-negative integer)",
        line, column + 1, cell.c_str()));
  }
  return static_cast<uint64_t>(value);
}

}  // namespace

Result<ElementSet> ParseCatalogCsv(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  // Drop trailing blank lines.
  while (!lines.empty() && lines.back().find_first_not_of(" \t\r") ==
                               std::string::npos) {
    lines.pop_back();
  }
  if (lines.size() < 2) {
    return Status::InvalidArgument(
        "catalog CSV needs a header and at least one data row");
  }
  const std::vector<std::string> header = Split(lines[0], ',');
  const int rate_col = FindColumn(header, "change_rate");
  const int prob_col = FindColumn(header, "access_prob");
  const int size_col = FindColumn(header, "size");
  const int id_col = FindColumn(header, "id");
  if (rate_col < 0 || prob_col < 0) {
    return Status::InvalidArgument(
        "catalog CSV header must contain change_rate and access_prob");
  }

  std::vector<double> rates;
  std::vector<double> probs;
  std::vector<double> sizes;
  // id -> first line that declared it, for duplicate diagnostics.
  std::unordered_map<uint64_t, size_t> seen_ids;
  for (size_t line = 1; line < lines.size(); ++line) {
    if (lines[line].find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // Skip interior blank lines.
    }
    const std::vector<std::string> cells = Split(lines[line], ',');
    const int needed =
        std::max(std::max(std::max(rate_col, prob_col), size_col), id_col);
    if (static_cast<int>(cells.size()) <= needed) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected at least %d columns, got %zu",
                    line + 1, needed + 1, cells.size()));
    }
    if (id_col >= 0) {
      FRESHEN_ASSIGN_OR_RETURN(
          uint64_t id, ParseElementId(cells[id_col], line + 1, id_col));
      const auto [it, inserted] = seen_ids.emplace(id, line + 1);
      if (!inserted) {
        return Status::InvalidArgument(StrFormat(
            "line %zu: duplicate element id %llu (first declared on line "
            "%zu)",
            line + 1, static_cast<unsigned long long>(id), it->second));
      }
    }
    FRESHEN_ASSIGN_OR_RETURN(double rate,
                             ParseNumber(cells[rate_col], line + 1, rate_col));
    FRESHEN_ASSIGN_OR_RETURN(double prob,
                             ParseNumber(cells[prob_col], line + 1, prob_col));
    if (rate < 0.0) {
      return Status::InvalidArgument(
          StrFormat("line %zu: change_rate must be >= 0", line + 1));
    }
    if (prob < 0.0) {
      return Status::InvalidArgument(
          StrFormat("line %zu: access_prob must be >= 0", line + 1));
    }
    rates.push_back(rate);
    probs.push_back(prob);
    if (size_col >= 0) {
      FRESHEN_ASSIGN_OR_RETURN(
          double size, ParseNumber(cells[size_col], line + 1, size_col));
      if (!(size > 0.0)) {
        return Status::InvalidArgument(
            StrFormat("line %zu: size must be > 0", line + 1));
      }
      sizes.push_back(size);
    }
  }
  // Normalize raw counts/weights into probabilities.
  FRESHEN_ASSIGN_OR_RETURN(probs, NormalizeProbabilities(std::move(probs)));
  return MakeElementSet(rates, probs, sizes);
}

Result<ElementSet> LoadCatalogCsv(const std::string& path) {
  FRESHEN_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  auto catalog = ParseCatalogCsv(text);
  if (!catalog.ok()) {
    return Status(catalog.status().code(),
                  path + ": " + catalog.status().message());
  }
  return catalog;
}

std::string CatalogToCsv(const ElementSet& elements) {
  std::string out = "change_rate,access_prob,size\n";
  for (const Element& e : elements) {
    out += StrFormat("%.17g,%.17g,%.17g\n", e.change_rate, e.access_prob,
                     e.size);
  }
  return out;
}

Status SaveCatalogCsv(const ElementSet& elements, const std::string& path) {
  return WriteStringToFile(CatalogToCsv(elements), path);
}

std::string PlanToCsv(const ElementSet& elements,
                      const std::vector<double>& frequencies) {
  std::string out = "element,frequency,interval,bandwidth\n";
  for (size_t i = 0; i < frequencies.size(); ++i) {
    const double f = frequencies[i];
    const double size = i < elements.size() ? elements[i].size : 1.0;
    out += StrFormat("%zu,%.10g,%.10g,%.10g\n", i, f,
                     f > 0.0 ? 1.0 / f : 0.0, f * size);
  }
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound(
        StrFormat("%s: %s", path.c_str(), std::strerror(errno)));
  }
  std::string out;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out.append(buffer, got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return Status::Internal(StrFormat("%s: read error", path.c_str()));
  }
  return out;
}

Status WriteStringToFile(const std::string& text, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::InvalidArgument(
        StrFormat("%s: %s", path.c_str(), std::strerror(errno)));
  }
  const size_t wrote = std::fwrite(text.data(), 1, text.size(), file);
  // Closed on every path: a short write must not leak the descriptor.
  const bool closed = std::fclose(file) == 0;
  if (wrote != text.size() || !closed) {
    return Status::Internal(StrFormat("%s: write error", path.c_str()));
  }
  return Status::OK();
}

}  // namespace freshen
