// Fixed-capacity ring buffer behind the span tracer and the decision audit
// log: the most recent `capacity` items, oldest evicted first.
//
// Push never allocates (the storage is reserved up front) and readers walk
// the retained window in place with ForEach, so exporting or scanning the
// ring never copies it.

#ifndef SRC_TELEMETRY_RING_H_
#define SRC_TELEMETRY_RING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dcc {
namespace telemetry {

template <typename T>
class Ring {
 public:
  explicit Ring(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {
    // Reserve eagerly so Push() never allocates on the hot path.
    items_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  // Items retained right now (<= capacity).
  size_t size() const { return items_.size(); }
  bool full() const { return items_.size() == capacity_; }
  // Items ever pushed, including overwritten ones.
  uint64_t total() const { return total_; }
  uint64_t dropped() const { return total_ - items_.size(); }

  // The item the next Push overwrites. Only valid when full().
  const T& oldest() const { return items_[next_]; }

  void Push(const T& item) {
    if (items_.size() < capacity_) {
      items_.push_back(item);
    } else {
      items_[next_] = item;
    }
    if (++next_ == capacity_) {
      next_ = 0;
    }
    ++total_;
  }

  // Calls fn(item) on every retained item, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // Until the ring fills, items sit in push order from slot 0; afterwards
    // the write cursor points at the oldest.
    const size_t start = full() ? next_ : 0;
    for (size_t i = start; i < items_.size(); ++i) {
      fn(items_[i]);
    }
    for (size_t i = 0; i < start; ++i) {
      fn(items_[i]);
    }
  }

 private:
  size_t capacity_;
  std::vector<T> items_;
  size_t next_ = 0;  // Write cursor, always < capacity_.
  uint64_t total_ = 0;
};

}  // namespace telemetry
}  // namespace dcc

#endif  // SRC_TELEMETRY_RING_H_
