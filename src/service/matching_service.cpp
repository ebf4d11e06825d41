#include "service/matching_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

namespace bmf {

void validate_service_config(const ServiceConfig& cfg, const char* who) {
  validate_core_config(cfg, cfg.shards, who);
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (cfg.max_lag < 1) fail("max_lag must be >= 1");
  if (cfg.queue_capacity < 1) fail("queue_capacity must be >= 1");
  if (cfg.coalesce_max < 1) fail("coalesce_max must be >= 1");
}

// ------------------------------------------------------------ SnapshotReader

SnapshotReader::SnapshotReader(MatchingService& service)
    : svc_(&service),
      staleness_hist_(static_cast<std::size_t>(service.cfg_.max_lag) + 2) {
  const MutexLock lock(svc_->registry_mutex_);
  svc_->readers_.push_back(this);
}

SnapshotReader::~SnapshotReader() {
  {
    // Lock order everywhere: registry before stats (stats() nests the same
    // way), so folding the departing reader's counters here cannot deadlock.
    const MutexLock registry_lock(svc_->registry_mutex_);
    std::erase(svc_->readers_, this);
    const MutexLock stats_lock(svc_->stats_mutex_);
    // relaxed-ok: reader-owned counter; this is the owning thread's own load
    svc_->wstats_.reads += reads_.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < staleness_hist_.size(); ++b)
      // relaxed-ok: same reader-owned histogram, folded by its own thread
      svc_->wstats_.staleness_hist[b] +=
          staleness_hist_[b].load(std::memory_order_relaxed);
  }
  // A departing reader can only raise the minimum observed epoch — wake a
  // stalled writer so it re-evaluates.
  svc_->stall_cv_.notify_all();
}

const MatchingSnapshot& SnapshotReader::refresh() const {
  const std::int64_t e_now =
      svc_->published_epoch_.load(std::memory_order_acquire);
  // SSP refresh rule: re-fetch only once the cache falls behind the window.
  // latest_ is stored (under its slot lock, whose unlock is a release) before
  // published_epoch_ (release), so the fetched snapshot's epoch is >= e_now
  // and post-refresh staleness clamps to 0.
  if (!snap_ || e_now - snap_->epoch() > svc_->cfg_.max_lag)
    snap_ = svc_->latest();
  last_staleness_ = std::max<std::int64_t>(0, e_now - snap_->epoch());
  const auto bucket = static_cast<std::size_t>(
      std::min(last_staleness_, svc_->cfg_.max_lag + 1));
  // relaxed-ok: reader-private stat counters; stats() readers tolerate lag
  staleness_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
  reads_.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: same as above
  if (e_now != last_observed_) {
    last_observed_ = e_now;
    if (svc_->cfg_.stall_writer) {
      // Advance the SSP clock under the registry lock and wake the writer:
      // an unlocked advance could slip between the stalled writer's predicate
      // check and its wait, losing the wakeup.
      {
        const MutexLock lock(svc_->registry_mutex_);
        // relaxed-ok: registry lock + stall_cv_ order this SSP clock advance
        observed_.store(e_now, std::memory_order_relaxed);
      }
      svc_->stall_cv_.notify_all();
    } else {
      // relaxed-ok: stall gate off — only lag-tolerant stats read this clock
      observed_.store(e_now, std::memory_order_relaxed);
    }
  }
  return *snap_;
}

Vertex SnapshotReader::num_vertices() const { return refresh().num_vertices(); }

Vertex SnapshotReader::mate_of(Vertex v) const { return refresh().mate_of(v); }

std::int64_t SnapshotReader::size() const { return refresh().size(); }

std::int64_t SnapshotReader::epoch() const { return refresh().epoch(); }

std::shared_ptr<const MatchingSnapshot> SnapshotReader::snapshot() const {
  refresh();
  return snap_;
}

// ----------------------------------------------------------- MatchingService

MatchingService::MatchingService(Vertex n, const ServiceConfig& cfg)
    : cfg_(cfg),
      owned_engine_([&] {
        validate_service_config(cfg, "MatchingService");
        return std::make_unique<ShardedDynamicMatcher>(n, cfg);
      }()),
      engine_(owned_engine_.get()),
      n_(engine_->num_vertices()),
      queue_(static_cast<std::size_t>(cfg_.queue_capacity)) {
  start();
}

MatchingService::MatchingService(ReplayEngine& engine, const ServiceConfig& cfg)
    : cfg_(cfg), engine_(&engine), n_(engine.num_vertices()),
      queue_([&] {
        validate_service_config(cfg, "MatchingService");
        return static_cast<std::size_t>(cfg.queue_capacity);
      }()) {
  start();
}

void MatchingService::start() {
  wstats_.staleness_hist.assign(static_cast<std::size_t>(cfg_.max_lag) + 2, 0);
  // Epoch 0 (the engine's current matching — empty for a fresh engine) is
  // published before the writer exists, so readers always find a snapshot.
  // Under the slot lock for uniformity with the publication below (any thread
  // that can reach latest_ was created after this store, so the constructor's
  // own synchronization already covers it).
  {
    const MutexLock lock(latest_mutex_);
    latest_ =
        std::make_shared<const MatchingSnapshot>(engine_->export_snapshot(0));
  }
  writer_ = std::thread([this] { writer_loop(); });
}

MatchingService::~MatchingService() { close(); }

void MatchingService::require_valid(const EdgeUpdate& update) const {
  if (!update.valid_for(n_))
    throw std::invalid_argument(
        "MatchingService: invalid update (endpoint out of range or u == v)");
}

bool MatchingService::submit(const EdgeUpdate& update) {
  require_valid(update);
  // Count before pushing so a concurrent flush() cannot observe the pushed
  // item as already-committed surplus; roll back if the push was refused.
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  if (queue_.push(update)) return true;
  submitted_.fetch_sub(1, std::memory_order_acq_rel);
  // The rollback may be what makes a concurrent flush()'s predicate true
  // (committed_ >= submitted_); bridge through flush_mutex_ so the flusher
  // cannot be between its check and its wait when we notify.
  { const MutexLock lock(flush_mutex_); }
  flush_cv_.notify_all();
  return false;
}

bool MatchingService::submit_batch(std::span<const EdgeUpdate> updates) {
  for (const EdgeUpdate& up : updates) require_valid(up);
  for (const EdgeUpdate& up : updates)
    if (!submit(up)) return false;
  return true;
}

bool MatchingService::try_submit(const EdgeUpdate& update) {
  require_valid(update);
  submitted_.fetch_add(1, std::memory_order_acq_rel);
  if (queue_.try_push(update)) return true;
  submitted_.fetch_sub(1, std::memory_order_acq_rel);
  // Same wakeup obligation as submit()'s refusal path: the annotation pass
  // caught this rollback not notifying, which could leave a concurrent
  // flush() waiting for a count that will never commit.
  { const MutexLock lock(flush_mutex_); }
  flush_cv_.notify_all();
  return false;
}

void MatchingService::flush() {
  // Everything counted at entry must commit — unless it was refused and
  // rolled back. committed_ only grows, and committed_ <= accepted <=
  // submitted_ always holds, so `committed_ >= submitted_` means every update
  // accepted so far (a superset of those accepted before this call) has
  // committed. Without that second disjunct, a submit whose push is refused
  // after we captured `target` would leave target forever unreachable.
  const std::int64_t target = submitted_.load(std::memory_order_acquire);
  const MutexLock lock(flush_mutex_);
  for (;;) {
    const std::int64_t c = committed_.load(std::memory_order_acquire);
    if (c >= target || c >= submitted_.load(std::memory_order_acquire)) return;
    flush_cv_.wait(flush_mutex_);
  }
}

void MatchingService::close() {
  const MutexLock lock(close_mutex_);
  if (!closing_.exchange(true, std::memory_order_acq_rel)) {
    queue_.close();
    stall_cv_.notify_all();  // closing overrides any SSP writer stall
  }
  if (writer_.joinable()) writer_.join();
}

std::int64_t MatchingService::min_observed_locked() const {
  std::int64_t lo = published_epoch_.load(std::memory_order_acquire);
  for (const SnapshotReader* r : readers_)
    // relaxed-ok: staleness-tolerant lower bound; cv wakeups re-evaluate it
    lo = std::min(lo, r->observed_.load(std::memory_order_relaxed));
  return lo;
}

bool MatchingService::publish_ready(std::int64_t epoch) const {
  return closing_.load(std::memory_order_acquire) || readers_.empty() ||
         min_observed_locked() + cfg_.max_lag >= epoch;
}

void MatchingService::writer_loop() {
  std::vector<EdgeUpdate> batch;
  for (;;) {
    std::size_t backlog = 0;
    const std::size_t got = queue_.drain(
        batch, static_cast<std::size_t>(cfg_.coalesce_max), &backlog);
    if (got == 0) break;  // closed and fully drained

    Timer timer;
    engine_->apply_batch(batch);
    // relaxed-ok: the single writer reads its own last epoch store
    const std::int64_t epoch =
        published_epoch_.load(std::memory_order_relaxed) + 1;
    auto snap = std::make_shared<const MatchingSnapshot>(
        engine_->export_snapshot(epoch));

    bool stalled = false;
    if (cfg_.stall_writer) {
      // SSP gate: hold publication of `epoch` until every registered reader
      // has observed at least epoch - max_lag. close() lifts the gate.
      const MutexLock lock(registry_mutex_);
      while (!publish_ready(epoch)) {
        if (!stalled) {
          stalled = true;
          writer_stalled_.store(true, std::memory_order_release);
        }
        stall_cv_.wait(registry_mutex_);
      }
      if (stalled) writer_stalled_.store(false, std::memory_order_release);
    }

    // Publication order matters and the lint holds us to it
    // (tools/determinism_lint.py, rule `publication-order`): the snapshot
    // pointer is stored under the slot lock — its unlock is the release —
    // before the epoch counter is release-stored, so a reader that acquires
    // the new epoch and then takes the slot lock is guaranteed a snapshot at
    // least that new — the SSP refresh rule's "staleness clamps to 0" proof
    // in SnapshotReader::refresh() leans on exactly this pairing. The old
    // snapshot is released after the unlock, outside the slot.
    // publication-order[1]
    {
      const MutexLock lock(latest_mutex_);
      latest_.swap(snap);
    }
    snap.reset();
    // publication-order[2]
    published_epoch_.store(epoch, std::memory_order_release);

    {
      const MutexLock lock(stats_mutex_);
      wstats_.epochs += 1;
      wstats_.updates_committed += static_cast<std::int64_t>(got);
      wstats_.rebuilds = engine_->rebuilds();
      if (stalled) wstats_.writer_stalls += 1;
      wstats_.epoch_log.push_back({epoch, static_cast<std::int64_t>(got),
                                   static_cast<std::int64_t>(backlog),
                                   timer.millis()});
    }
    committed_.fetch_add(static_cast<std::int64_t>(got),
                         std::memory_order_acq_rel);
    { const MutexLock lock(flush_mutex_); }
    flush_cv_.notify_all();
  }
}

ServiceStats MatchingService::stats() const {
  // Registry before stats — the same nesting SnapshotReader's destructor
  // uses. wstats_ already carries departed readers' counters; live readers
  // are merged on top.
  const MutexLock registry_lock(registry_mutex_);
  ServiceStats out;
  {
    const MutexLock stats_lock(stats_mutex_);
    out = wstats_;
  }
  for (const SnapshotReader* r : readers_) {
    // relaxed-ok: monotone live-reader counters; a stats() snapshot may lag
    out.reads += r->reads_.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < out.staleness_hist.size(); ++b)
      // relaxed-ok: same lag-tolerant histogram read as above
      out.staleness_hist[b] +=
          r->staleness_hist_[b].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace bmf
