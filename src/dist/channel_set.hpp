// ChannelSet: a subsystem's channel table plus the unified idle wait.
//
// Owning the endpoints in one object lets the subsystem idle on *all* of
// them at once: every link shares one ReadySignal (in-process queues pulse
// it) and contributes its kernel fd (sockets), so wait_any() is a single
// ppoll() whose wake latency is independent of the channel count.  The old
// run-loop idle path scanned the channels sequentially with a 1 ms blocking
// receive each — worst case N × 1 ms before noticing traffic on the last
// channel.
//
// Deadlines are carried at steady_clock resolution all the way to the
// kernel: a frame a latency decorator holds for 100 us is waited out in
// ~100 us, not rounded up to a whole millisecond.
#pragma once

#include <poll.h>

#include <chrono>
#include <memory>
#include <vector>

#include "dist/channel.hpp"
#include "transport/ready.hpp"

namespace pia::dist {

class ChannelSet {
 public:
  ChannelSet();

  ChannelSet(const ChannelSet&) = delete;
  ChannelSet& operator=(const ChannelSet&) = delete;

  /// Appends an endpoint and attaches the shared readiness signal to its
  /// link.  The endpoint's position is its ChannelId value.
  void add(std::unique_ptr<ChannelEndpoint> endpoint);

  [[nodiscard]] ChannelEndpoint& at(ChannelId id);
  [[nodiscard]] const ChannelEndpoint& at(ChannelId id) const;
  [[nodiscard]] ChannelEndpoint& operator[](std::size_t i) {
    return *channels_[i];
  }
  [[nodiscard]] const ChannelEndpoint& operator[](std::size_t i) const {
    return *channels_[i];
  }
  [[nodiscard]] std::size_t size() const { return channels_.size(); }
  [[nodiscard]] bool empty() const { return channels_.empty(); }

  // Iteration yields the owning pointers so existing `c->field` loops keep
  // reading naturally.
  [[nodiscard]] auto begin() { return channels_.begin(); }
  [[nodiscard]] auto end() { return channels_.end(); }
  [[nodiscard]] auto begin() const { return channels_.begin(); }
  [[nodiscard]] auto end() const { return channels_.end(); }

  /// Swaps in a fresh link on one channel and re-attaches the shared
  /// readiness signal to it.
  void replace_link(ChannelId id, transport::LinkPtr link);

  /// Blocks until any channel may have receivable traffic (data, close, or
  /// a decorator-buffered frame maturing), or `timeout` elapses.  Returns
  /// true when woken by possible readiness — possibly spuriously; the
  /// caller's next drain pass decides.  False means the full timeout passed
  /// with no wake condition.  A `std::chrono::milliseconds` argument
  /// converts implicitly.
  bool wait_any(std::chrono::steady_clock::duration timeout);

  /// The fan-in half of wait_any, exposed so a worker pool can sleep on the
  /// channel sets of *several* subsystems in one poll: drains this set's
  /// shared signal and appends its poll entries (the signal fd plus every
  /// kernel-backed link fd) to `fds`.  Returns how long the caller may
  /// sleep, at full steady_clock resolution: `timeout` (negative values
  /// count as zero), lowered to the time left until the earliest
  /// decorator-buffered frame release, and to zero when a stale pulse was
  /// drained.  A return value strictly below `timeout` therefore means
  /// "something is or becomes receivable then — treat its expiry as a
  /// wake".  Call order matters: drain before inspect, so a pulse racing in
  /// after this point leaves the fd readable for the poll.
  std::chrono::steady_clock::duration prepare_wait(
      std::vector<pollfd>& fds, std::chrono::steady_clock::duration timeout);

 private:
  std::vector<std::unique_ptr<ChannelEndpoint>> channels_;
  transport::ReadySignalPtr signal_;
};

/// The idle-wait primitive behind wait_any and the worker pool: ppoll()
/// on `fds` for at most `timeout` (negative counts as zero), with the
/// deadline passed to the kernel at nanosecond resolution.  The first call
/// on a thread lowers that thread's timer slack to 1 ns, so a sleep ends
/// when its deadline falls due rather than up to the default 50 us later.
/// Returns ppoll's result; errno is preserved on -1.
int wait_fds(std::vector<pollfd>& fds,
             std::chrono::steady_clock::duration timeout);

/// Brackets a burst of sends: every channel holds its batch open until the
/// scope exits, so all messages one loop slice emits share a link frame.
/// Flushing from the destructor is safe — ChannelEndpoint::flush converts
/// transport failures into peer_closed instead of throwing.
class FlushHold {
 public:
  explicit FlushHold(ChannelSet& channels) : channels_(channels) {
    for (const auto& c : channels_) c->hold_flush();
  }
  ~FlushHold() {
    for (const auto& c : channels_) c->release_flush();
  }
  FlushHold(const FlushHold&) = delete;
  FlushHold& operator=(const FlushHold&) = delete;

 private:
  ChannelSet& channels_;
};

}  // namespace pia::dist
