#include "obs/export.h"

#include <cmath>
#include <cstdint>

#include "common/string_util.h"
#include "common/table_writer.h"

namespace freshen {
namespace obs {
namespace {

// Exact for integer-valued doubles (counters, bucket counts), compact
// otherwise — keeps exporter output deterministic for golden tests.
std::string FormatMetricValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    return StrFormat("%.0f", value);
  }
  return StrFormat("%.9g", value);
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += JsonEscape(labels[i].first);
    out += "\":\"";
    out += JsonEscape(labels[i].second);
    out += '"';
  }
  out += "}";
  return out;
}

// name{k="v",...} — the Prometheus series suffix; `extra` appends a label
// (used for the histogram le edge).
std::string PromSeries(const std::string& name, const Labels& labels,
                       const std::string& extra = "") {
  std::string out = name;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key + "=\"" + PromEscapeLabelValue(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

// One comma-separated k=v string for the CSV labels column; values are
// quoted/escaped so embedded commas or quotes cannot split a pair.
std::string CsvLabels(const Labels& labels) {
  std::vector<std::string> parts;
  parts.reserve(labels.size());
  for (const auto& [key, value] : labels) {
    parts.push_back(key + "=" + CsvLabelEscape(value));
  }
  return Join(parts, ",");
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string PromEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        // Everything else (including \t and \r) passes through raw — the
        // exposition format defines no escapes for them.
        out += c;
    }
  }
  return out;
}

std::string CsvLabelEscape(const std::string& value) {
  const bool needs_quoting =
      value.find_first_of(",\"=\\\n") != std::string::npos;
  if (!needs_quoting) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string FormatJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  for (size_t i = 0; i < snapshot.samples.size(); ++i) {
    const MetricSample& sample = snapshot.samples[i];
    if (i > 0) out += ",";
    out += "\n  {\"name\":\"" + JsonEscape(sample.name) + "\",";
    out += "\"type\":\"" + std::string(MetricKindName(sample.kind)) + "\",";
    out += "\"labels\":" + JsonLabels(sample.labels) + ",";
    if (sample.kind == MetricKind::kHistogram) {
      out += "\"count\":" + StrFormat("%llu",
                                      (unsigned long long)sample.count) +
             ",";
      out += "\"sum\":" + FormatMetricValue(sample.sum) + ",";
      out += "\"buckets\":[";
      uint64_t cumulative = 0;
      for (size_t b = 0; b < sample.bucket_counts.size(); ++b) {
        if (b > 0) out += ",";
        cumulative += sample.bucket_counts[b];
        const std::string le = b < sample.bounds.size()
                                   ? FormatMetricValue(sample.bounds[b])
                                   : "+Inf";
        out += "{\"le\":\"" + le + "\",\"count\":" +
               StrFormat("%llu", (unsigned long long)cumulative) + "}";
      }
      out += "]}";
    } else {
      out += "\"value\":" + FormatMetricValue(sample.value) + "}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::string FormatPrometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  std::string last_typed_name;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name != last_typed_name) {
      out += "# TYPE " + sample.name + " " + MetricKindName(sample.kind) +
             "\n";
      last_typed_name = sample.name;
    }
    if (sample.kind == MetricKind::kHistogram) {
      uint64_t cumulative = 0;
      for (size_t b = 0; b < sample.bucket_counts.size(); ++b) {
        cumulative += sample.bucket_counts[b];
        const std::string le =
            b < sample.bounds.size() ? FormatMetricValue(sample.bounds[b])
                                     : "+Inf";
        out += PromSeries(sample.name + "_bucket", sample.labels,
                          "le=\"" + le + "\"") +
               " " + StrFormat("%llu", (unsigned long long)cumulative) + "\n";
      }
      out += PromSeries(sample.name + "_sum", sample.labels) + " " +
             FormatMetricValue(sample.sum) + "\n";
      out += PromSeries(sample.name + "_count", sample.labels) + " " +
             StrFormat("%llu", (unsigned long long)sample.count) + "\n";
    } else {
      out += PromSeries(sample.name, sample.labels) + " " +
             FormatMetricValue(sample.value) + "\n";
    }
  }
  return out;
}

std::string FormatCsv(const RegistrySnapshot& snapshot) {
  TableWriter table({"metric", "labels", "type", "value", "count", "sum"});
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.kind == MetricKind::kHistogram) {
      table.AddRow({sample.name, CsvLabels(sample.labels),
                    MetricKindName(sample.kind), "",
                    StrFormat("%llu", (unsigned long long)sample.count),
                    FormatMetricValue(sample.sum)});
    } else {
      table.AddRow({sample.name, CsvLabels(sample.labels),
                    MetricKindName(sample.kind),
                    FormatMetricValue(sample.value), "", ""});
    }
  }
  return table.ToCsv();
}

}  // namespace obs
}  // namespace freshen
