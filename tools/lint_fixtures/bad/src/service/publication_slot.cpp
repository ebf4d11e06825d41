// Lint fixture (known-bad): publication-order through a publish slot written
// without its lock. The markers are in order, but the plain pointer write
// has no release of its own, so a reader that acquires the new epoch may
// still read the old pointer (or a torn one).
#include <atomic>
#include <cstdint>
#include <memory>

namespace bmf {

struct Snapshot {};

struct SlotPublisher {
  std::shared_ptr<const Snapshot> latest_;
  std::atomic<std::int64_t> published_epoch_{0};

  void publish(std::shared_ptr<const Snapshot> snap, std::int64_t epoch) {
    // publication-order[1]
    latest_ = std::move(snap);
    // publication-order[2]
    published_epoch_.store(epoch, std::memory_order_release);
  }
};

}  // namespace bmf
