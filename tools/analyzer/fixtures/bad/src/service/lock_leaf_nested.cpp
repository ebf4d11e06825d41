// Analyzer fixture (known-bad): lock-order, a nesting under a leaf mutex.
// NestingSlot::slot_mutex_ is listed under the fixture manifest's
// leaf_mutexes, yet publish() reaches a second lock while holding it (one
// level down, through note()). Fixtures are analyzer inputs, not build
// inputs.
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};

class NestingSlot {
 public:
  void publish() {
    MutexLock hold(slot_mutex_);
    note();  // acquires stats_mutex_ while the leaf slot_mutex_ is held
  }
  void note() { MutexLock hold(stats_mutex_); }

 private:
  Mutex slot_mutex_;
  Mutex stats_mutex_;
};
