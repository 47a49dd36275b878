// Fig. 3 reproduction: "Subsystem 1 must stall to maintain continuous
// consistency".
//
// The figure's argument: a subsystem with a ready event at t=20 cannot
// dispatch it while a peer might still send t=15 — unless it runs
// optimistically and repairs mistakes.  This bench builds the figure's
// two-subsystem scenario with tunable cross-traffic and measures the cost
// of consistency three ways: single-host (no constraint), conservative
// channels (stall until granted), optimistic channels (run ahead, roll
// back), across cross-traffic rates — the trade the paper's §2.2.4
// describes ("if there isn't much communication expected between
// subsystems, it is often reasonable" to run optimistically).  The process
// exits non-zero when any configuration loses events.
#include <chrono>

#include "bench_util.hpp"
#include "dist/node.hpp"
#include "../tests/helpers.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::dist;
using namespace std::chrono_literals;

namespace {

constexpr std::uint64_t kLocalEvents = 4'000;

struct Outcome {
  double seconds = 0;
  std::uint64_t stalls = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t delivered = 0;
};

/// Subsystem 1 has plenty of local work (ticks of its own) plus a sink fed
/// by subsystem 2's producer, whose `period` controls cross-traffic rate.
Outcome run_mode(ChannelMode mode, std::uint64_t cross_events,
                 VirtualTime cross_period) {
  NodeCluster cluster;
  Subsystem& ss1 = cluster.add_node("n1").add_subsystem("ss1");
  Subsystem& ss2 = cluster.add_node("n2").add_subsystem("ss2");
  ss1.set_checkpoint_interval(64);

  auto& local_producer = ss1.scheduler().emplace<pia::testing::Producer>(
      "local", kLocalEvents, ticks(7));
  auto& local_sink = ss1.scheduler().emplace<pia::testing::Sink>("lsink");
  ss1.scheduler().connect(local_producer.id(), "out", local_sink.id(), "in");
  auto& remote_sink = ss1.scheduler().emplace<pia::testing::Sink>("rsink");
  const NetId net1 = ss1.scheduler().make_net("cross");
  ss1.scheduler().attach(net1, remote_sink.id(), "in");

  auto& cross_producer = ss2.scheduler().emplace<pia::testing::Producer>(
      "cross", cross_events, cross_period);
  const NetId net2 = ss2.scheduler().make_net("cross");
  ss2.scheduler().attach(net2, cross_producer.id(), "out");

  const ChannelPair channels = cluster.connect_checked(ss1, ss2, mode);
  split_net(ss1, channels.a, net1, ss2, channels.b, net2);
  cluster.start_all();

  Outcome outcome;
  outcome.seconds = timed([&] {
    cluster.run_all(Subsystem::RunConfig{.stall_timeout = 30'000ms});
  });
  outcome.stalls = ss1.stats().stalls;
  outcome.rollbacks = ss1.stats().rollbacks;
  outcome.delivered = remote_sink.received.size() + local_sink.received.size();
  return outcome;
}

double single_host_reference(std::uint64_t cross_events,
                             VirtualTime cross_period) {
  Scheduler sched("single");
  auto& local_producer = sched.emplace<pia::testing::Producer>(
      "local", kLocalEvents, ticks(7));
  auto& local_sink = sched.emplace<pia::testing::Sink>("lsink");
  sched.connect(local_producer.id(), "out", local_sink.id(), "in");
  auto& cross_producer = sched.emplace<pia::testing::Producer>(
      "cross", cross_events, cross_period);
  auto& remote_sink = sched.emplace<pia::testing::Sink>("rsink");
  sched.connect(cross_producer.id(), "out", remote_sink.id(), "in");
  sched.init();
  return timed([&] { sched.run(); });
}

}  // namespace

int main() {
  header("Fig. 3: the consistency stall, and what each strategy pays");
  JsonReport report("fig3_stall");
  int sweep_index = 0;
  bool lost_events = false;

  std::printf("\n%-22s %10s %10s %10s %10s\n", "cross-traffic",
              "single[ms]", "consv[ms]", "optim[ms]", "rollbacks");
  struct Sweep {
    const char* label;
    std::uint64_t events;
    VirtualTime period;
  };
  for (const Sweep sweep : {Sweep{"none", 0, ticks(100)},
                            Sweep{"sparse (1:100)", 40, ticks(700)},
                            Sweep{"moderate (1:10)", 400, ticks(70)},
                            Sweep{"dense (1:1)", 4000, ticks(7)}}) {
    const double single = single_host_reference(sweep.events, sweep.period);
    const Outcome conservative =
        run_mode(ChannelMode::kConservative, sweep.events, sweep.period);
    const Outcome optimistic =
        run_mode(ChannelMode::kOptimistic, sweep.events, sweep.period);
    std::printf("%-22s %10.2f %10.2f %10.2f %10llu\n", sweep.label,
                single * 1e3, conservative.seconds * 1e3,
                optimistic.seconds * 1e3,
                static_cast<unsigned long long>(optimistic.rollbacks));
    if (conservative.delivered != kLocalEvents + sweep.events ||
        optimistic.delivered != kLocalEvents + sweep.events) {
      note("  !! a configuration lost events");
      lost_events = true;
    }
    const std::string prefix = "sweep" + std::to_string(sweep_index++) + "_";
    report.text(prefix + "label", sweep.label);
    report.metric(prefix + "single_seconds", single);
    report.metric(prefix + "conservative_seconds", conservative.seconds);
    report.metric(prefix + "optimistic_seconds", optimistic.seconds);
    report.metric(prefix + "rollbacks", optimistic.rollbacks);
  }
  note("\nthe single-host kernel never stalls (Fig. 3's hypothetical); the\n"
       "conservative subsystem waits for safe times; the optimistic one\n"
       "runs ahead and pays in rollbacks as cross-traffic grows.");
  return lost_events ? 1 : 0;
}
