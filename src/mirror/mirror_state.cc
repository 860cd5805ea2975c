#include "mirror/mirror_state.h"

#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"
#include "rng/distributions.h"

namespace freshen {

Result<VersionedSource> VersionedSource::Create(
    std::vector<double> change_rates, uint64_t seed) {
  if (change_rates.empty()) {
    return Status::InvalidArgument("source needs at least one element");
  }
  for (size_t i = 0; i < change_rates.size(); ++i) {
    if (!(change_rates[i] >= 0.0) || !std::isfinite(change_rates[i])) {
      return Status::InvalidArgument(
          StrFormat("change rate %zu is negative or non-finite", i));
    }
  }
  return VersionedSource(std::move(change_rates), seed);
}

VersionedSource::VersionedSource(std::vector<double> rates, uint64_t seed)
    : rates_(std::move(rates)),
      next_update_(rates_.size(),
                   std::numeric_limits<double>::infinity()),
      seed_or_stream_(rates_.size()),
      has_stream_(rates_.size(), false) {
  // Element i's stream is the i-th root.Fork(), Rng(seed). Its first draw
  // is the first update; the stream itself waits until a second draw is
  // due (Stream).
  Rng root(seed);
  for (size_t i = 0; i < rates_.size(); ++i) {
    seed_or_stream_[i] = root.NextUint64();
    if (rates_[i] > 0.0) {
      Rng stream(seed_or_stream_[i]);
      next_update_[i] = SampleExponential(stream, rates_[i]);
    }
  }
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
  FRESHEN_CHECK(element < rates_.size());
  double& next = next_update_[element];
  if (next > t) return next;
  Rng& stream = Stream(element);
  while (next <= t) next += SampleExponential(stream, rates_[element]);
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
