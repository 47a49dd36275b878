#include "dist/channel_set.hpp"

#include <poll.h>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "base/error.hpp"

namespace pia::dist {

using Clock = std::chrono::steady_clock;

ChannelSet::ChannelSet()
    : signal_(std::make_shared<transport::ReadySignal>()) {}

void ChannelSet::add(std::unique_ptr<ChannelEndpoint> endpoint) {
  endpoint->link().set_ready_signal(signal_);
  channels_.push_back(std::move(endpoint));
}

ChannelEndpoint& ChannelSet::at(ChannelId id) {
  PIA_REQUIRE(id.valid() && id.value() < channels_.size(), "bad channel id");
  return *channels_[id.value()];
}

const ChannelEndpoint& ChannelSet::at(ChannelId id) const {
  PIA_REQUIRE(id.valid() && id.value() < channels_.size(), "bad channel id");
  return *channels_[id.value()];
}

void ChannelSet::replace_link(ChannelId id, transport::LinkPtr link) {
  ChannelEndpoint& endpoint = at(id);
  endpoint.replace_link(std::move(link));
  endpoint.link().set_ready_signal(signal_);
}

Clock::duration ChannelSet::prepare_wait(std::vector<pollfd>& fds,
                                         Clock::duration timeout) {
  // Frames parked inside fault/latency decorators mature silently: clamp
  // the wait to the earliest reported release so they are picked up on
  // time regardless of how long the caller was willing to sleep.
  const Clock::time_point now = Clock::now();
  auto wait = std::max(timeout, Clock::duration::zero());
  for (const auto& c : channels_) {
    if (const auto due = c->link().next_ready_time())
      wait = std::min(wait, std::max(*due - now, Clock::duration::zero()));
  }

  // Drain stale pulses BEFORE building the poll set: a pulse racing in
  // after this point simply leaves the signal fd readable and the poll
  // returns immediately — a spurious wake, never a lost one.
  //
  // A pulse consumed HERE is also a wake, not noise: it may belong to a
  // frame that landed after the caller's last queue inspection, and eating
  // it silently would stall that frame for the full idle timeout.  Clamp
  // the wait to zero so the caller re-inspects at once; at worst the frame
  // was already consumed and the caller pays one empty re-slice.
  if (signal_->drain()) wait = Clock::duration::zero();

  fds.push_back(pollfd{.fd = signal_->fd(), .events = POLLIN, .revents = 0});
  for (const auto& c : channels_) {
    const int fd = c->link().readable_fd();
    if (fd >= 0)
      fds.push_back(pollfd{.fd = fd, .events = POLLIN, .revents = 0});
  }
  return wait;
}

bool ChannelSet::wait_any(Clock::duration timeout) {
  // Allocating the poll set per call is fine: this is the idle path.
  std::vector<pollfd> fds;
  fds.reserve(channels_.size() + 1);
  const auto wait = prepare_wait(fds, timeout);
  const bool clamped = wait < timeout;

  const Clock::time_point deadline = Clock::now() + wait;
  for (;;) {
    const int pr = wait_fds(fds, deadline - Clock::now());
    if (pr < 0) {
      if (errno == EINTR) {
        // A signal interrupted the poll.  Reporting that as either a wake
        // or a timeout would be a lie; retry for whatever wait remains.
        if (Clock::now() >= deadline) break;
        continue;
      }
      raise(ErrorKind::kTransport,
            std::string("channel wait poll: ") + std::strerror(errno));
    }
    if (pr > 0) return true;
    break;  // full timeout elapsed
  }
  // A clamped timeout that expired is a wake too: the matured frame is now
  // receivable even though no fd fired.
  return clamped;
}

int wait_fds(std::vector<pollfd>& fds, Clock::duration timeout) {
#ifdef __linux__
  // The default 50 us slack lets the kernel batch this thread's wakes; a
  // 100 us latency-held frame would pay half its delay again in slack.
  // Timer slack is a property of the calling thread, so set it where every
  // waiting thread passes: the run loop, pool workers, external loops.
  [[maybe_unused]] thread_local const bool precise =
      ::prctl(PR_SET_TIMERSLACK, 1UL) == 0;
#endif
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::max(timeout, Clock::duration::zero()))
                      .count();
  const timespec ts{.tv_sec = static_cast<time_t>(ns / 1'000'000'000),
                    .tv_nsec = static_cast<long>(ns % 1'000'000'000)};
  return ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

}  // namespace pia::dist
