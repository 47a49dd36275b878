// Fig. 6 reproduction: "A possible architecture for the WubbleU system, and
// its simulation topology".
//
// The chosen architecture maps every process to the embedded processor
// except the network interface, which lives on the cellular ASIC and moves
// packets into memory by DMA.  The figure's right half is the simulation
// topology: the ASIC on a separate subsystem ("this chip is our candidate
// for remote operation").  This bench executes that mapping:
//   * detail sweep — the same page load with the chip rendering the
//     downlink at each of the four library levels, local and remote;
//   * DMA bus-width sweep — the burst engine at 1/2/4/8 bytes per cycle,
//     showing the DMA transfer cost the figure's arrow stands for.
// The process exits non-zero when a page load does not complete, or when
// the local and remote virtual load times differ: distribution must never
// change simulated behaviour.
#include <chrono>

#include "bench_util.hpp"
#include "wubbleu/system.hpp"

using namespace pia;
using namespace pia::bench;
using namespace pia::wubbleu;
using namespace std::chrono_literals;

namespace {

WubbleUConfig config_for(const RunLevel& level) {
  WubbleUConfig config;
  config.page.target_bytes = 66 * 1024;
  config.downlink_level = level;
  return config;
}

struct Run {
  bool completed = false;
  double virtual_load_ms = 0;  // request -> page done, virtual
  double wall_ms = 0;
  std::uint64_t events = 0;
};

/// Reads the virtual request -> page-done time of the run's single load.
void read_load(const WubbleUHandles& h, Run& run) {
  run.completed = h.ui->completed() == 1;
  if (!run.completed) return;
  const auto& load = h.ui->loads()[0];
  run.virtual_load_ms =
      static_cast<double>((load.completed_at - load.requested_at).ticks()) /
      1e6;
}

Run run_local(const RunLevel& level) {
  Scheduler sched("wubbleu");
  const WubbleUHandles h = build_local(sched, config_for(level));
  sched.init();
  Run run;
  run.wall_ms = timed([&] { sched.run(); }) * 1e3;
  run.events = sched.stats().events_dispatched;
  read_load(h, run);
  return run;
}

Run run_remote(const RunLevel& level) {
  dist::NodeCluster cluster;
  dist::Subsystem& handheld = cluster.add_node("hh").add_subsystem("handheld");
  dist::Subsystem& chip = cluster.add_node("ch").add_subsystem("chip");
  const dist::ChannelPair channels = cluster.connect_checked(
      handheld, chip, dist::ChannelMode::kConservative);
  const WubbleUHandles h =
      build_distributed(handheld, chip, channels, config_for(level));
  handheld.set_lookahead(channels.a, ticks(30'000));
  handheld.set_reaction_lookahead(channels.a, ticks(30'000));
  chip.set_lookahead(channels.b, ticks(100'000));
  chip.set_reaction_lookahead(channels.b, ticks(100'000));
  cluster.start_all();
  Run run;
  run.wall_ms = timed([&] {
                  cluster.run_all(
                      dist::Subsystem::RunConfig{.stall_timeout = 60'000ms});
                }) *
                1e3;
  run.events = handheld.scheduler().stats().events_dispatched +
               chip.scheduler().stats().events_dispatched;
  read_load(h, run);
  return run;
}

}  // namespace

int main() {
  header("Fig. 6: the chosen architecture, executed (chip local vs remote)");
  JsonReport report("fig6_architecture");
  bool ok = true;

  std::printf("\n%-18s %14s %14s %12s %14s %14s %12s\n", "detail level",
              "local virt[ms]", "local wall[ms]", "local evts",
              "remote virt[ms]", "remote wall[ms]", "remote evts");
  for (const RunLevel& level :
       {runlevels::kTransaction, runlevels::kPacket, runlevels::kWord}) {
    const Run local = run_local(level);
    const Run remote = run_remote(level);
    std::printf("%-18s %14.2f %14.2f %12llu %14.2f %14.2f %12llu\n",
                level.name.c_str(), local.virtual_load_ms, local.wall_ms,
                static_cast<unsigned long long>(local.events),
                remote.virtual_load_ms, remote.wall_ms,
                static_cast<unsigned long long>(remote.events));
    const std::string prefix = level.name + "_";
    report.metric(prefix + "local_wall_ms", local.wall_ms);
    report.metric(prefix + "remote_wall_ms", remote.wall_ms);
    report.metric(prefix + "local_virtual_ms", local.virtual_load_ms);
    report.metric(prefix + "remote_virtual_ms", remote.virtual_load_ms);
    report.metric(prefix + "local_events", local.events);
    report.metric(prefix + "remote_events", remote.events);
    if (!local.completed || !remote.completed) {
      note("  !! page load did not complete");
      ok = false;
    } else if (local.virtual_load_ms != remote.virtual_load_ms) {
      note("  !! virtual load time differs local vs remote");
      ok = false;
    }
  }
  note("\nvirtual page-load time is identical local vs remote at every level\n"
       "(distribution never changes simulated behaviour); wall time is what\n"
       "the designer pays for remote operation.");

  // --- the DMA arrow -------------------------------------------------------
  std::printf("\nDMA burst engine, 64 KB transfer, bus width sweep:\n");
  std::printf("%12s %18s\n", "bytes/cycle", "burst time [ms virt]");
  for (const std::uint64_t width : {1u, 2u, 4u, 8u}) {
    // burst cycles = size / width; NicDma charges 10 ticks per cycle.
    const double ms = static_cast<double>(66 * 1024 / width) * 10 / 1e6;
    std::printf("%12llu %18.3f\n", static_cast<unsigned long long>(width),
                ms);
  }
  return ok ? 0 : 1;
}
