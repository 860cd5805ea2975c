#include "schedule/schedule.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "stats/descriptive.h"

namespace freshen {

Result<SyncSchedule> SyncSchedule::FixedOrder(
    const std::vector<double>& frequencies, double horizon) {
  if (!(horizon >= 0.0) || !std::isfinite(horizon)) {
    return Status::InvalidArgument(
        StrFormat("horizon must be non-negative and finite, got %g", horizon));
  }
  const size_t n = frequencies.size();
  SyncSchedule schedule;
  size_t total_events = 0;
  for (size_t i = 0; i < n; ++i) {
    const double f = frequencies[i];
    if (!(f >= 0.0) || !std::isfinite(f)) {
      return Status::InvalidArgument(
          StrFormat("frequency %zu is negative or non-finite", i));
    }
    total_events += static_cast<size_t>(f * horizon) + 1;
  }
  schedule.events_.reserve(total_events);
  for (size_t i = 0; i < n; ++i) {
    ForEachFixedOrderSyncTime(i, n, frequencies[i], horizon, [&](double t) {
      schedule.events_.push_back(SyncEvent{t, i});
    });
  }
  std::sort(schedule.events_.begin(), schedule.events_.end(),
            [](const SyncEvent& a, const SyncEvent& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.element < b.element;
            });
  return schedule;
}

double SyncSchedule::BandwidthPerPeriod(const ElementSet& elements,
                                        double horizon) const {
  if (horizon <= 0.0) return 0.0;
  KahanSum total;
  for (const SyncEvent& event : events_) {
    total.Add(elements[event.element].size);
  }
  return total.Total() / horizon;
}

}  // namespace freshen
