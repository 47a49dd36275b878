// One benchmark for the paper's workloads.
//
//   paperbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one named workload in this process for about --seconds seconds of
// whole rounds, checks every round's outputs, and prints one JSON object as
// the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones (setup_s, run_s,
// events_per_s, cpu_s, peak_rss_mb); with --trace 1 every round runs the
// traced run loop instead and the metrics are the per-layer ones.
//
// Workloads (see README.md for their make-up and reference figures):
//   wubbleu_remote_word    Table 1 "remote / word passage": one 66 KB page
//                          load, chip side behind TCP + 100 us latency.
//   scaleout_conservative  1000 Zipf handhelds, 2 gateway shards, station
//                          aggregation, conservative channels, pooled edge.
//   scaleout_optimistic    200 handhelds, 2 shards, optimistic channels
//                          (runnable, but not gated by BENCHMARK.json: its
//                          times do not repeat from run to run).
//
// Layers are measured only from outside the program: the traced loop times
// the public calls it makes (Subsystem::run_slice, ChannelSet::wait_any,
// NodeExecutor::run, Scheduler::run, run_single_host) and reads public
// counters after each round.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/bytes.hpp"
#include "dist/executor.hpp"
#include "dist/node.hpp"
#include "dist/sharding.hpp"
#include "wubbleu/page.hpp"
#include "wubbleu/scaleout.hpp"
#include "wubbleu/system.hpp"

using namespace pia;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Per-layer figures of one traced round
// ---------------------------------------------------------------------------

struct Layers {
  // Traced run loop (thread-per-subsystem subsystems).
  double slice_s = 0;
  double wait_s = 0;
  std::uint64_t slices = 0;
  std::uint64_t idle_slices = 0;
  std::uint64_t waits = 0;
  // Pooled nodes.
  std::uint64_t executor_slices = 0;
  std::uint64_t executor_steals = 0;

  void add(const Layers& o) {
    slice_s += o.slice_s;
    wait_s += o.wait_s;
    slices += o.slices;
    idle_slices += o.idle_slices;
    waits += o.waits;
    executor_slices += o.executor_slices;
    executor_steals += o.executor_steals;
  }
};

/// Counters read from the public stats of every subsystem after a round.
struct Counters {
  std::uint64_t dispatched = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t event_msgs_sent = 0;
  std::uint64_t event_msgs_received = 0;
  std::uint64_t grants_sent = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t stalls = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t retracts_sent = 0;
  std::uint64_t retracts_received = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
};

Counters read_counters(dist::NodeCluster& cluster) {
  Counters c;
  for (dist::Subsystem* s : cluster.all_subsystems()) {
    c.dispatched += s->scheduler().stats().events_dispatched;
    const CheckpointStats& cp = s->checkpoints().stats();
    c.checkpoint_bytes += cp.full_image_bytes + cp.incremental_image_bytes;
    c.event_msgs_sent += s->traffic_stats().events_sent;
    c.event_msgs_received += s->traffic_stats().events_received;
    const dist::sync::ConservativeStats& cons = s->conservative_stats();
    c.grants_sent += cons.grants_sent;
    c.requests_sent += cons.requests_sent;
    c.stalls += cons.stalls;
    const dist::sync::OptimisticStats& opt = s->optimistic_stats();
    c.rollbacks += opt.rollbacks;
    c.retracts_sent += opt.retracts_sent;
    c.retracts_received += opt.retracts_received;
    c.checkpoints += opt.checkpoints;
    for (std::size_t i = 0; i < s->channel_count(); ++i) {
      const transport::LinkStats link =
          s->channel_set()[i].link().stats();
      c.frames_sent += link.frames_sent;
      c.messages_sent += link.messages_sent;
      c.bytes_sent += link.bytes_sent;
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Run loops
// ---------------------------------------------------------------------------

using Outcomes = std::map<std::string, dist::Subsystem::RunOutcome>;

/// Subsystem::run's loop, with run_slice and the idle wait_any timed.
dist::Subsystem::RunOutcome traced_subsystem_run(
    dist::Subsystem& s, const dist::Subsystem::RunConfig& config,
    Layers& layers) {
  auto last_progress = Clock::now();
  for (;;) {
    bool progressed = false;
    auto t0 = Clock::now();
    const auto outcome = s.run_slice(config, progressed);
    auto t1 = Clock::now();
    layers.slice_s += std::chrono::duration<double>(t1 - t0).count();
    ++layers.slices;
    if (outcome) return *outcome;
    if (progressed) {
      last_progress = t1;
      continue;
    }
    ++layers.idle_slices;
    const bool woke = s.channel_set().wait_any(s.idle_wait_hint());
    const auto t2 = Clock::now();
    layers.wait_s += std::chrono::duration<double>(t2 - t1).count();
    ++layers.waits;
    if (woke) {
      last_progress = t2;
      continue;
    }
    if (t2 - last_progress > config.stall_timeout)
      return dist::Subsystem::RunOutcome::kStalled;
  }
}

/// NodeCluster::run_all's layout, rebuilt from outside: a NodeExecutor per
/// pooled node, one thread running the traced loop per other subsystem.
Outcomes traced_run_all(const std::vector<dist::PiaNode*>& nodes,
                        const dist::Subsystem::RunConfig& config,
                        Layers& total) {
  struct Runner {
    std::thread thread;
    Outcomes outcomes;
    Layers layers;
    std::exception_ptr error;
  };
  std::vector<std::unique_ptr<Runner>> runners;
  const auto spawn = [&](auto body) {
    auto runner = std::make_unique<Runner>();
    Runner* r = runner.get();
    r->thread = std::thread([r, body] {
      try {
        body(*r);
      } catch (...) {
        r->error = std::current_exception();
      }
    });
    runners.push_back(std::move(runner));
  };
  for (dist::PiaNode* node : nodes) {
    if (node->worker_threads() > 0) {
      spawn([node, &config](Runner& r) {
        dist::NodeExecutor executor(node->subsystems(),
                                    node->worker_threads());
        r.outcomes = executor.run(config);
        r.layers.executor_slices = executor.stats().slices;
        r.layers.executor_steals = executor.stats().steals;
      });
    } else {
      for (dist::Subsystem* s : node->subsystems())
        spawn([s, &config](Runner& r) {
          r.outcomes[s->name()] = traced_subsystem_run(*s, config, r.layers);
        });
    }
  }
  for (auto& r : runners) r->thread.join();
  Outcomes outcomes;
  for (auto& r : runners) {
    if (r->error) std::rethrow_exception(r->error);
    outcomes.merge(r->outcomes);
    total.add(r->layers);
  }
  return outcomes;
}

bool all_quiescent(const Outcomes& outcomes) {
  return std::all_of(outcomes.begin(), outcomes.end(), [](const auto& kv) {
    return kv.second == dist::Subsystem::RunOutcome::kQuiescent;
  });
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One round: cold or warm set-up, the distributed run, the checks.
struct Round {
  double build_s = 0;
  double start_s = 0;
  double run_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // The single-host run of the same inputs.
  std::uint64_t oracle_dispatches = 0;
  double oracle_run_s = 0;
  Layers layers;
  Counters counters;
};

/// One round's inputs, made from the round's seed.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds, runs and checks one round.  `setup_start` is where set-up
  /// time is counted from (process start for the first, cold round).
  virtual Round round(bool traced, Clock::time_point setup_start) = 0;
};

void check(bool ok, const char* what, bool& all_ok) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    all_ok = false;
  }
}

// --- Table 1, remote word passage ---------------------------------------------

class WubbleuRemoteWord final : public Workload {
 public:
  explicit WubbleuRemoteWord(std::uint64_t seed) {
    config_.page.target_bytes = 66 * 1024;  // the paper's page size
    config_.page.seed = dist::stream_seed(seed, 1998);
    config_.downlink_level = runlevels::kWord;
  }

  Round round(bool traced, Clock::time_point setup_start) override {
    Round r;
    r.attempted = 1;  // one page load
    dist::NodeCluster cluster;
    dist::PiaNode& handheld_node = cluster.add_node("handheld-node");
    dist::PiaNode& chip_node = cluster.add_node("chip-node");
    dist::Subsystem& handheld = handheld_node.add_subsystem("handheld");
    dist::Subsystem& chip = chip_node.add_subsystem("chip");
    // Built exactly as bench_table1_wubbleu's remote rows: TCP sockets plus
    // 100 us one-way latency, and the same declared reaction slack.
    const dist::ChannelPair channels = cluster.connect_checked(
        handheld, chip, dist::ChannelMode::kConservative, dist::Wire::kTcp,
        transport::LatencyModel{.base = 100us});
    const wubbleu::WubbleUHandles h =
        wubbleu::build_distributed(handheld, chip, channels, config_);
    handheld.set_lookahead(channels.a, ticks(30'000));
    handheld.set_reaction_lookahead(channels.a, ticks(30'000));
    chip.set_lookahead(channels.b, ticks(100'000));
    chip.set_reaction_lookahead(channels.b, ticks(100'000));
    r.build_s = since(setup_start);
    const auto start_begin = Clock::now();
    cluster.start_all();
    r.start_s = since(start_begin);

    const dist::Subsystem::RunConfig run_config{.stall_timeout = 60'000ms};
    const double cpu0 = cpu_seconds();
    const auto run_begin = Clock::now();
    const Outcomes outcomes =
        traced ? traced_run_all({&handheld_node, &chip_node}, run_config,
                                r.layers)
               : cluster.run_all(run_config);
    r.run_s = since(run_begin);
    r.cpu_s = cpu_seconds() - cpu0;
    r.peak_rss_mb = peak_rss_mb();
    r.counters = read_counters(cluster);

    run_oracle(r);
    bool ok = true;
    check(all_quiescent(outcomes), "every subsystem reached quiescence", ok);
    check(h.ui->completed() == 1 && h.ui->loads().size() == 1,
          "the page load completed", ok);
    if (!h.ui->loads().empty()) {
      const wubbleu::Ui::PageLoad& load = h.ui->loads().front();
      check(load.body_bytes == expected_body_bytes_,
            "loaded body size equals make_page of the same spec", ok);
      check(load.images == expected_images_, "page carries every image", ok);
      check(load.completed_at - load.requested_at == oracle_load_time_,
            "virtual request-to-done time equals the single-host run", ok);
    }
    check(h.cpu->images_decoded() == expected_images_ &&
              h.cpu->image_pixel_errors() == 0,
          "all images decode", ok);
    check(r.counters.event_msgs_sent == r.counters.event_msgs_received &&
              r.counters.retracts_sent == r.counters.retracts_received,
          "EventMsgs and retractions sent equal those received", ok);
    r.failed = ok ? 0 : 1;
    return r;
  }

 private:
  // The single-host reference and the page generated apart from the run,
  // made after the round's peak RSS has been read.
  void run_oracle(Round& r) {
    const wubbleu::HttpResponse page = wubbleu::make_page(config_.page);
    expected_body_bytes_ = page.body.size();
    expected_images_ = page.images.size();

    Scheduler sched("wubbleu-oracle");
    const wubbleu::WubbleUHandles h = wubbleu::build_local(sched, config_);
    sched.init();
    const auto begin = Clock::now();
    sched.run();
    r.oracle_run_s = since(begin);
    r.oracle_dispatches = sched.stats().events_dispatched;
    if (h.ui->loads().size() == 1) {
      const wubbleu::Ui::PageLoad& load = h.ui->loads().front();
      oracle_load_time_ = load.completed_at - load.requested_at;
    }
  }

  wubbleu::WubbleUConfig config_;
  VirtualTime oracle_load_time_ = VirtualTime::infinity();
  std::size_t expected_body_bytes_ = 0;
  std::size_t expected_images_ = 0;
};

// --- scale-out ------------------------------------------------------------------

class Scaleout final : public Workload {
 public:
  explicit Scaleout(const wubbleu::ScaleoutSpec& spec) : spec_(spec) {}

  Round round(bool traced, Clock::time_point setup_start) override {
    Round r;
    r.attempted = spec_.clients * spec_.requests_per_client;
    // The constructor builds every subsystem and channel and ends with
    // start_all(), so the start phase is not separable from outside.
    wubbleu::ScaleoutCluster cluster(spec_);
    r.build_s = since(setup_start);

    const dist::Subsystem::RunConfig run_config{.stall_timeout = 120'000ms};
    const double cpu0 = cpu_seconds();
    const auto run_begin = Clock::now();
    Outcomes outcomes;
    if (traced) {
      std::vector<dist::PiaNode*> nodes{&cluster.cluster().node("edge"),
                                        &cluster.cluster().node("core")};
      for (std::uint32_t m = 0; m < spec_.shards; ++m)
        nodes.push_back(
            &cluster.cluster().node("shardnode" + std::to_string(m)));
      outcomes = traced_run_all(nodes, run_config, r.layers);
    } else {
      outcomes = cluster.run(run_config);
    }
    r.run_s = since(run_begin);
    r.cpu_s = cpu_seconds() - cpu0;
    r.peak_rss_mb = peak_rss_mb();
    r.counters = read_counters(cluster.cluster());

    run_oracle(r);
    const wubbleu::ScaleoutResult result = cluster.result();
    bool global_ok = true;
    check(all_quiescent(outcomes), "every subsystem reached quiescence",
          global_ok);
    check(result.total_fetches() == r.attempted,
          "fetches equal clients x requests", global_ok);
    check(r.counters.event_msgs_sent == r.counters.event_msgs_received &&
              r.counters.retracts_sent == r.counters.retracts_received,
          "EventMsgs and retractions sent equal those received", global_ok);

    // Per fetch: bit-exact against the single-host log, and body size and
    // fingerprint against the page generated apart from the run.
    std::uint64_t good = 0;
    bool oracle_ok = result.fetches.size() == oracle_.fetches.size();
    bool pages_ok = true;
    for (std::size_t c = 0; oracle_ok && c < result.fetches.size(); ++c) {
      const auto& got = result.fetches[c];
      const auto& want = oracle_.fetches[c];
      for (std::size_t k = 0; k < got.size(); ++k) {
        const wubbleu::Fetch& f = got[k];
        const bool exact = k < want.size() && f == want[k];
        const bool page = f.status == 200 && f.page < pages_.size() &&
                          f.body_bytes == pages_[f.page].bytes &&
                          f.body_hash == pages_[f.page].hash;
        oracle_ok &= exact;
        pages_ok &= page;
        good += exact && page;
      }
    }
    check(oracle_ok, "fetch logs are bit-exact against run_single_host",
          global_ok);
    check(pages_ok, "fetch bodies match the generated catalog pages",
          global_ok);
    r.failed = global_ok ? r.attempted - std::min(good, r.attempted)
                         : r.attempted;
    return r;
  }

 private:
  struct PageFacts {
    std::uint64_t bytes = 0;
    std::uint64_t hash = 0;
  };

  void run_oracle(Round& r) {
    const auto begin = Clock::now();
    oracle_ = wubbleu::run_single_host(spec_);
    r.oracle_run_s = since(begin);
    r.oracle_dispatches = oracle_.events_dispatched;
    for (std::uint32_t rank = 0; rank < spec_.catalog.pages; ++rank) {
      const wubbleu::HttpResponse page = wubbleu::make_page(
          wubbleu::catalog_page_spec(spec_.catalog, rank));
      pages_.push_back({page.body.size(), fnv1a(page.body)});
    }
  }

  wubbleu::ScaleoutSpec spec_;
  wubbleu::ScaleoutResult oracle_;
  std::vector<PageFacts> pages_;
};

wubbleu::ScaleoutSpec scaleout_spec(std::uint64_t seed, bool optimistic) {
  wubbleu::ScaleoutSpec spec;
  spec.aggregated = true;
  spec.clients_per_station = 50;
  spec.catalog.pages = 64;
  spec.catalog.page_bytes = 512;
  spec.catalog.seed = dist::stream_seed(seed, 64);
  spec.seed = dist::stream_seed(seed, 2026);
  if (optimistic) {
    const std::size_t cores =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    spec.clients = 200;
    spec.shards = 2;
    spec.requests_per_client = 64;
    spec.mode_cycle = {dist::ChannelMode::kOptimistic};
    spec.worker_threads = std::min<std::size_t>(2, cores);
  } else {
    // One edge worker, one frontend worker and two shard workers: four
    // threads, so a 4-core host is not oversubscribed.  With a 4-worker
    // edge pool and 4 shards (9 threads) rounds that take ~4 s on an idle
    // host took over 60 s, once 643 s, while the host was stealing CPU.
    spec.clients = 1000;
    spec.shards = 2;
    spec.requests_per_client = 16;
    spec.mode_cycle = {dist::ChannelMode::kConservative};
    spec.worker_threads = 1;
  }
  return spec;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "wubbleu_remote_word")
    return std::make_unique<WubbleuRemoteWord>(seed);
  if (name == "scaleout_conservative")
    return std::make_unique<Scaleout>(scaleout_spec(seed, false));
  if (name == "scaleout_optimistic")
    return std::make_unique<Scaleout>(scaleout_spec(seed, true));
  return nullptr;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int usage() {
  std::fprintf(stderr,
               "usage: paperbench --workload <wubbleu_remote_word|"
               "scaleout_conservative|scaleout_optimistic> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") workload_name = value;
    else if (key == "--seed") seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value, nullptr);
    else if (key == "--trace") trace = std::strcmp(value, "0") != 0;
    else return usage();
  }
  if (argc % 2 == 0 || !make_workload(workload_name, seed)) return usage();

  // Whole rounds until --seconds have gone by.  Round k draws its inputs
  // from stream_seed(seed, k), so a run's medians span several inputs of
  // the same make-up.  The first round's set-up is the cold one, counted
  // from process start.
  std::vector<Round> rounds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0;
  const auto measure_start = Clock::now();
  try {
    do {
      const bool cold = rounds.empty();
      const auto setup_start = cold ? process_start : Clock::now();
      Round r = make_workload(workload_name,
                              dist::stream_seed(seed, rounds.size()))
                    ->round(trace, setup_start);
      // The round's cluster is gone; hand its freed heap back to the
      // system so that every round starts from the same footprint.
      malloc_trim(0);
      if (cold) setup_s = r.build_s + r.start_s;
      attempted += r.attempted;
      failed += r.failed;
      std::fprintf(stderr,
                   "round %zu: setup %.4f s (build %.4f, start %.4f), run "
                   "%.4f s, cpu %.3f s, rss %.1f MB, %llu/%llu failed\n",
                   rounds.size(), r.build_s + r.start_s, r.build_s,
                   r.start_s, r.run_s, r.cpu_s, r.peak_rss_mb,
                   static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.attempted));
      rounds.push_back(std::move(r));
    } while (since(measure_start) < seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s\n", e.what());
    return 1;
  }

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(field(r));
    return median(v);
  };
  const double run_s = med([](const Round& r) { return r.run_s; });
  MetricsJson metrics;
  if (!trace) {
    metrics.add("setup_s", setup_s, "s");
    metrics.add("run_s", run_s, "s");
    metrics.add("events_per_s", med([](const Round& r) {
                  return ratio(static_cast<double>(r.oracle_dispatches),
                               r.run_s);
                }),
                "events/s");
    metrics.add("cpu_s", med([](const Round& r) { return r.cpu_s; }), "s");
    // High water through the first round's set-up and run, read before any
    // oracle ran, so it does not depend on how many rounds fit in a run.
    metrics.add("peak_rss_mb", rounds.front().peak_rss_mb, "MB");
  } else {
    const auto count = [&](auto field) {
      return med([&](const Round& r) {
        return static_cast<double>(field(r.counters));
      });
    };
    const auto layer = [&](auto field) {
      return med([&](const Round& r) { return field(r.layers); });
    };
    const double dispatched = count([](const Counters& c) { return c.dispatched; });
    const double event_msgs =
        count([](const Counters& c) { return c.event_msgs_sent; });
    const double grants = count([](const Counters& c) { return c.grants_sent; });
    const double frames = count([](const Counters& c) { return c.frames_sent; });
    const double messages =
        count([](const Counters& c) { return c.messages_sent; });
    const double wait_s = layer([](const Layers& l) { return l.wait_s; });
    const double slice_s = layer([](const Layers& l) { return l.slice_s; });
    const double waits =
        layer([](const Layers& l) { return static_cast<double>(l.waits); });

    metrics.add("core.events_dispatched", dispatched, "count");
    metrics.add("core.useful_dispatch_ratio", med([](const Round& r) {
                  return ratio(static_cast<double>(r.oracle_dispatches),
                               static_cast<double>(r.counters.dispatched));
                }),
                "ratio");
    metrics.add("core.oracle_run_s",
                med([](const Round& r) { return r.oracle_run_s; }), "s");
    metrics.add("core.checkpoint_bytes",
                count([](const Counters& c) { return c.checkpoint_bytes; }),
                "B");
    metrics.add("dist.slice_s", slice_s, "s");
    metrics.add("dist.slices", layer([](const Layers& l) {
                  return static_cast<double>(l.slices);
                }),
                "count");
    metrics.add("dist.idle_slices", layer([](const Layers& l) {
                  return static_cast<double>(l.idle_slices);
                }),
                "count");
    metrics.add("dist.wait_s", wait_s, "s");
    // Share of the traced loops' time spent in the idle wait; wait_s and
    // slice_s are summed over the loops' threads, so compare this, not
    // wait_s, with run_s.
    metrics.add("dist.wait_share", ratio(wait_s, wait_s + slice_s), "ratio");
    metrics.add("dist.wakes", waits, "count");
    metrics.add("dist.wait_per_wake_us", ratio(wait_s * 1e6, waits), "us");
    metrics.add("dist.executor.slices", layer([](const Layers& l) {
                  return static_cast<double>(l.executor_slices);
                }),
                "count");
    metrics.add("dist.executor.steals", layer([](const Layers& l) {
                  return static_cast<double>(l.executor_steals);
                }),
                "count");
    metrics.add("dist.event_msgs", event_msgs, "count");
    metrics.add("sync.grants_sent", grants, "count");
    metrics.add("sync.requests_sent",
                count([](const Counters& c) { return c.requests_sent; }),
                "count");
    metrics.add("sync.stalls", count([](const Counters& c) { return c.stalls; }),
                "count");
    metrics.add("sync.grants_per_event_msg", ratio(grants, event_msgs),
                "ratio");
    metrics.add("sync.rollbacks",
                count([](const Counters& c) { return c.rollbacks; }), "count");
    metrics.add("sync.retracts_sent",
                count([](const Counters& c) { return c.retracts_sent; }),
                "count");
    metrics.add("sync.checkpoints",
                count([](const Counters& c) { return c.checkpoints; }),
                "count");
    metrics.add("transport.frames_sent", frames, "count");
    metrics.add("transport.messages_sent", messages, "count");
    metrics.add("transport.bytes_sent",
                count([](const Counters& c) { return c.bytes_sent; }), "B");
    metrics.add("transport.msgs_per_frame", ratio(messages, frames),
                "msg/frame");
    metrics.add("setup.build_s", rounds.front().build_s, "s");
    metrics.add("setup.start_s", rounds.front().start_s, "s");
    metrics.add("trace.run_s", run_s, "s");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
