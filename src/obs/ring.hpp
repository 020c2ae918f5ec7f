// The one walk over the recorders' rings (packet tracer, steering audit
// log, telemetry series): each fills its slots in order, then overwrites
// the oldest one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hvc::obs {

/// Calls `f` on each retained element of `ring`, oldest first. `head` is
/// the next write slot and `total` counts every write: once the ring has
/// wrapped (total > ring.size()) the oldest element is at `head`, else
/// at 0.
template <typename T, typename F>
void for_each_retained(const std::vector<T>& ring, std::size_t head,
                       std::uint64_t total, F&& f) {
  const bool wrapped = total > ring.size();
  std::size_t at = wrapped ? head : 0;
  for (auto n = wrapped ? ring.size() : static_cast<std::size_t>(total); n > 0;
       --n) {
    f(ring[at]);
    at = at + 1 == ring.size() ? 0 : at + 1;
  }
}

}  // namespace hvc::obs
