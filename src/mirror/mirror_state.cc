#include "mirror/mirror_state.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"
#include "rng/distributions.h"

namespace freshen {

Result<VersionedSource> VersionedSource::Create(const ElementSet& catalog,
                                                uint64_t seed) {
  if (catalog.empty()) {
    return Status::InvalidArgument("source needs at least one element");
  }
  for (size_t i = 0; i < catalog.size(); ++i) {
    const double rate = catalog[i].change_rate;
    if (!(rate >= 0.0) || !std::isfinite(rate)) {
      return Status::InvalidArgument(
          StrFormat("change rate %zu is negative or non-finite", i));
    }
  }
  return VersionedSource(catalog, seed);
}

VersionedSource::VersionedSource(const ElementSet& catalog, uint64_t seed)
    : elements_(catalog.data()),
      next_update_(catalog.size(), std::numeric_limits<double>::quiet_NaN()),
      seed_or_stream_(catalog.size()),
      has_stream_(catalog.size(), false) {
  // Element i's stream is the i-th root.Fork(), Rng(seed). Only the seeds
  // are drawn here, in id order, since the root cannot jump to draw i; the
  // first update waits for its first read (DrawFirstUpdate), the stream for
  // a second draw (Stream).
  Rng root(seed);
  for (uint64_t& element_seed : seed_or_stream_) {
    element_seed = root.NextUint64();
  }
}

double VersionedSource::DrawFirstUpdate(size_t element) const {
  const double rate = elements_[element].change_rate;
  double first = std::numeric_limits<double>::infinity();
  if (rate > 0.0) {
    Rng stream(seed_or_stream_[element]);
    first = SampleExponential(stream, rate);
  }
  next_update_[element] = first;
  return first;
}

Rng& VersionedSource::Stream(size_t element) {
  uint64_t& seed_or_stream = seed_or_stream_[element];
  if (!has_stream_[element]) {
    Rng& stream = streams_.emplace_back(seed_or_stream);
    // Skip the draw the first update took. Only an element with a finite
    // first update gets here, so it drew one (rate > 0).
    stream.NextUint64();
    seed_or_stream = streams_.size() - 1;
    has_stream_[element] = true;
  }
  return streams_[seed_or_stream];
}

double VersionedSource::AdvancePast(size_t element, double t) {
  FRESHEN_CHECK(element < next_update_.size());
  double& next = next_update_[element];
  if (NextUpdate(element) > t) return next;
  Rng& stream = Stream(element);
  const double rate = elements_[element].change_rate;
  while (next <= t) next += SampleExponential(stream, rate);
  return next;
}

MirrorState::MirrorState(const VersionedSource& source)
    : source_(&source),
      last_sync_time_(source.size(), 0.0),
      synced_(source.size(), false) {}

bool MirrorState::Sync(size_t element, double t, VersionedSource& source) {
  FRESHEN_CHECK(&source == source_);
  FRESHEN_CHECK(element < last_sync_time_.size());
  FRESHEN_CHECK(t >= last_sync_time_[element]);
  const bool changed = source.NextUpdate(element) <= t;
  source.AdvancePast(element, t);
  last_sync_time_[element] = t;
  synced_[element] = true;
  return changed;
}

}  // namespace freshen
