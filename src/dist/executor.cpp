#include "dist/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "base/error.hpp"
#include "dist/channel_set.hpp"

namespace pia::dist {
namespace {

using Clock = std::chrono::steady_clock;

/// One pooled subsystem.  last_progress feeds the per-subsystem stall
/// clock, exactly like the local variable in the single-threaded run().
struct Entry {
  Subsystem* subsystem = nullptr;
  Clock::time_point last_progress{};
};

/// Best effort: pin the worker to one core so a scheduler thread does not
/// migrate mid-slice (cache locality for the event queue).  Failure is
/// ignored — restricted affinity masks and exotic configurations must not
/// break correctness.
void pin_to_core(std::size_t worker_index) {
#ifdef __linux__
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(worker_index % cores), &set);
  (void)::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
#else
  (void)worker_index;
#endif
}

class Pool {
 public:
  Pool(const std::vector<Subsystem*>& subsystems, std::size_t workers,
       const Subsystem::RunConfig& config)
      : config_(config),
        queues_(workers),
        remaining_(subsystems.size()) {
    // Initial placement: round-robin.  Imbalance is the steady state the
    // stealing path corrects; the initial assignment only has to be fair.
    const auto now = Clock::now();
    for (std::size_t i = 0; i < subsystems.size(); ++i)
      queues_[i % workers].push_back(Entry{subsystems[i], now});
  }

  void run_worker(std::size_t index) {
    pin_to_core(index);
    std::vector<Entry> batch;
    for (;;) {
      batch.clear();
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (done_locked()) return;
        if (queues_[index].empty() && !steal_locked(index)) {
          // Every unfinished subsystem is inside some other worker's
          // batch: nothing to run until one is requeued.
          idle_.wait_for(lock, std::chrono::milliseconds(1));
          continue;
        }
        // Take the whole queue as a batch.  While held here the entries
        // are invisible to thieves, so this worker is the only one that
        // can slice them — the ownership rule the confinement guard
        // asserts.
        batch.assign(queues_[index].begin(), queues_[index].end());
        queues_[index].clear();
      }

      bool any_progress = false;
      std::size_t kept = 0;
      for (Entry& entry : batch) {
        if (abort_.load(std::memory_order_acquire)) return;
        bool progressed = false;
        std::optional<Subsystem::RunOutcome> outcome;
        try {
          outcome = entry.subsystem->run_slice(config_, progressed);
        } catch (...) {
          fail(std::current_exception());
          return;
        }
        slices_.fetch_add(1, std::memory_order_relaxed);
        any_progress |= progressed;
        const auto now = Clock::now();
        if (progressed) entry.last_progress = now;
        if (!outcome && !progressed &&
            now - entry.last_progress > config_.stall_timeout)
          outcome = Subsystem::RunOutcome::kStalled;
        if (outcome) {
          finish(*entry.subsystem, *outcome);
          continue;
        }
        batch[kept++] = entry;
      }
      batch.resize(kept);
      if (batch.empty()) continue;

      // A fully unproductive pass: sleep on every owned channel at once.
      // A wake resets the stall clocks, mirroring the single-threaded
      // loop's treatment of wait_any() returning true.
      if (!any_progress && wait_batch(batch)) {
        const auto now = Clock::now();
        for (Entry& entry : batch) entry.last_progress = now;
      }

      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (Entry& entry : batch) queues_[index].push_back(entry);
      }
      idle_.notify_all();
    }
  }

  std::map<std::string, Subsystem::RunOutcome> take_results() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_) std::rethrow_exception(error_);
    return std::move(results_);
  }

  [[nodiscard]] std::uint64_t slices() const {
    return slices_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool done_locked() const {
    return remaining_ == 0 || abort_.load(std::memory_order_acquire);
  }

  /// Moves half of the largest victim queue (rounded up, from the back —
  /// the entries the victim would reach last) into `index`'s queue.
  bool steal_locked(std::size_t index) {
    std::size_t victim = index;
    std::size_t best = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (i != index && queues_[i].size() > best) {
        best = queues_[i].size();
        victim = i;
      }
    }
    if (best == 0) return false;
    auto& from = queues_[victim];
    auto& to = queues_[index];
    const std::size_t take = (best + 1) / 2;
    to.insert(to.end(), from.end() - static_cast<std::ptrdiff_t>(take),
              from.end());
    from.erase(from.end() - static_cast<std::ptrdiff_t>(take), from.end());
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void finish(Subsystem& subsystem, Subsystem::RunOutcome outcome) {
    const std::lock_guard<std::mutex> lock(mutex_);
    results_[subsystem.name()] = outcome;
    --remaining_;
    if (remaining_ == 0) idle_.notify_all();
  }

  void fail(std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::move(error);
    }
    abort_.store(true, std::memory_order_release);
    idle_.notify_all();
  }

  /// One poll across every channel of every batch member.  Returns true on
  /// a possible wake (fd readiness or a decorator-held frame maturing).
  bool wait_batch(const std::vector<Entry>& batch) {
    std::vector<pollfd> fds;
    auto wait = Clock::duration::max();
    bool clamped = false;
    for (const Entry& entry : batch) {
      ChannelSet& channels = entry.subsystem->channel_set();
      const Clock::duration hint = entry.subsystem->idle_wait_hint();
      const auto bounded = channels.prepare_wait(fds, hint);
      clamped |= bounded < hint;
      wait = std::min(wait, bounded);
    }
    if (fds.empty()) return false;
    const int pr = wait_fds(fds, wait);
    if (pr < 0) {
      if (errno == EINTR) return true;  // retried as a spurious wake
      raise(ErrorKind::kTransport,
            std::string("executor wait poll: ") + std::strerror(errno));
    }
    return pr > 0 || clamped;
  }

  const Subsystem::RunConfig config_;
  std::mutex mutex_;
  std::condition_variable idle_;
  std::vector<std::deque<Entry>> queues_;
  std::size_t remaining_;
  std::map<std::string, Subsystem::RunOutcome> results_;
  std::exception_ptr error_;
  std::atomic<bool> abort_{false};
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace

NodeExecutor::NodeExecutor(std::vector<Subsystem*> subsystems,
                           std::size_t workers)
    : subsystems_(std::move(subsystems)), workers_(std::max<std::size_t>(
                                              workers, 1)) {}

std::map<std::string, Subsystem::RunOutcome> NodeExecutor::run(
    const Subsystem::RunConfig& config) {
  if (subsystems_.empty()) return {};
  // More workers than subsystems would only contend on the queues.
  const std::size_t workers = std::min(workers_, subsystems_.size());
  Pool pool(subsystems_, workers, config);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads.emplace_back([&pool, i] { pool.run_worker(i); });
  for (auto& t : threads) t.join();
  stats_.slices += pool.slices();
  stats_.steals += pool.steals();
  return pool.take_results();  // rethrows the first worker error
}

}  // namespace pia::dist
