// freshen::obs exporters — turn a RegistrySnapshot into bytes. Three wire
// formats: JSON for tooling, Prometheus text exposition for scrapers, CSV
// via table_writer for plotting scripts.
#ifndef FRESHEN_OBS_EXPORT_H_
#define FRESHEN_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace freshen {
namespace obs {

/// Escapes `text` for inclusion inside a JSON string literal (quotes,
/// backslashes, and control characters).
std::string JsonEscape(const std::string& text);

/// Escapes a Prometheus label value for the text exposition format. Only
/// three escapes are legal there: backslash, double quote, and line feed
/// (notably NOT \t or \r, which a JSON escaper would produce and a
/// Prometheus parser would reject).
std::string PromEscapeLabelValue(const std::string& value);

/// Escapes one label value for the CSV labels cell: values containing
/// `,` `"` `=` `\` or a newline are double-quoted with `\"` / `\\`
/// escapes, so the comma-joined k=v list stays parseable even when values
/// contain the separators.
std::string CsvLabelEscape(const std::string& value);

/// Formats the snapshot as a JSON document: {"metrics": [...]} with one
/// object per series (name, type, labels, value or count/sum/buckets).
/// Deterministic: series keep the snapshot's name-ordering.
std::string FormatJson(const RegistrySnapshot& snapshot);

/// Formats the snapshot in the Prometheus text exposition format (one
/// # TYPE line per metric name; histograms expand to _bucket/_sum/_count
/// with cumulative le edges and +Inf).
std::string FormatPrometheus(const RegistrySnapshot& snapshot);

/// Formats the snapshot as CSV (columns metric,labels,type,value,count,sum)
/// rendered by TableWriter, histograms reporting count/sum.
std::string FormatCsv(const RegistrySnapshot& snapshot);

}  // namespace obs
}  // namespace freshen

#endif  // FRESHEN_OBS_EXPORT_H_
