// Lint fixture (good twin): the publication sequence through a mutex-guarded
// publish slot — the snapshot pointer is written under the slot lock (its
// unlock is the release) before the epoch counter is release-stored.
#include <atomic>
#include <cstdint>
#include <memory>

namespace bmf {

struct Snapshot {};
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};

struct SlotPublisher {
  Mutex latest_mutex_;
  std::shared_ptr<const Snapshot> latest_;
  std::atomic<std::int64_t> published_epoch_{0};

  void publish(std::shared_ptr<const Snapshot> snap, std::int64_t epoch) {
    // publication-order[1]
    {
      const MutexLock lock(latest_mutex_);
      latest_.swap(snap);
    }
    // publication-order[2]
    published_epoch_.store(epoch, std::memory_order_release);
  }
};

}  // namespace bmf
