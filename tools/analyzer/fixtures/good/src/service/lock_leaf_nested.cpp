// Analyzer fixture (known-good): the twin of
// bad/src/service/lock_leaf_nested.cpp. LeafSlot::slot_mutex_ is a leaf in
// the fixture manifest, and publish() lets it go before taking the second
// lock. Fixtures are analyzer inputs, not build inputs.
struct Mutex {};
struct MutexLock {
  explicit MutexLock(Mutex& m);
};

class LeafSlot {
 public:
  void publish() {
    {
      MutexLock hold(slot_mutex_);
    }
    note();  // slot_mutex_ is released by now
  }
  void note() { MutexLock hold(stats_mutex_); }

 private:
  Mutex slot_mutex_;
  Mutex stats_mutex_;
};
