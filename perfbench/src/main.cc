// The cntr attach benchmark.
//
//   perfbench --workload tools-session|bulk-stream|fleet-rw --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Sets the world up several times (setup_s is their median), runs closed
// rounds of the workload for S seconds of host time, replays the first
// rounds natively for overhead_x, and prints the metrics as the last line
// of stdout. --trace 0 prints the end-to-end metrics; --trace 1 alternates
// untraced and traced rounds and prints the per-layer metrics. The exit
// code is non-zero when any call failed or any output was wrong.
// perfbench/README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/record.h"
#include "perfbench/src/workloads.h"
#include "src/analysis/lockdep.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

// Set-ups per run: at least kMinSetups and kSetupBudgetNs of host time, so
// a cheap set-up is repeated enough for a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr uint64_t kSetupBudgetNs = 5'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

// Figures of one side (attached or native) over the prefix rounds.
struct PrefixFigures {
  std::vector<uint64_t> virt_ns;  // every prefix call's virtual latency
  std::vector<uint64_t> hashes;
  // Per prefix round: the slowest client lane, and all clients' calls and
  // bytes.
  std::vector<double> makespan_s, calls, bytes;
};

PrefixFigures Prefix(const std::vector<Client>& clients, int prefix) {
  PrefixFigures f;
  const size_t n = static_cast<size_t>(prefix);
  f.makespan_s.assign(n, 0.0);
  f.calls.assign(n, 0.0);
  f.bytes.assign(n, 0.0);
  for (const Client& c : clients) {
    const auto& samples = c.rec->samples();
    for (size_t i = 0; i < c.rec->prefix_calls; ++i) {
      f.virt_ns.push_back(samples[i].virt_ns);
    }
    f.hashes.push_back(c.rec->prefix_hash);
    const auto& rounds = c.rec->rounds();
    for (size_t r = 0; r < n && r < rounds.size(); ++r) {
      f.makespan_s[r] = std::max(f.makespan_s[r], static_cast<double>(rounds[r].virt_ns) * 1e-9);
      f.calls[r] += static_cast<double>(rounds[r].calls);
      f.bytes[r] += static_cast<double>(rounds[r].bytes);
    }
  }
  return f;
}

// Median over rounds of num[r] / den[r].
double MedianRatio(const std::vector<double>& num, const std::vector<double>& den) {
  std::vector<double> ratios;
  for (size_t r = 0; r < num.size() && r < den.size(); ++r) {
    ratios.push_back(Ratio(num[r], den[r]));
  }
  return Median(ratios);
}

void WriteSpans(const std::string& path, const std::vector<const std::vector<Span>*>& lists) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const auto* spans : lists) {
    for (const Span& s : *spans) {
      out << "{\"name\":\"" << s.name << "\",\"parent\":" << s.parent
          << ",\"client\":" << s.client << ",\"session\":" << s.session
          << ",\"host_start_ns\":" << s.host_start_ns << ",\"host_end_ns\":" << s.host_end_ns
          << ",\"virt_start_ns\":" << s.virt_start_ns << ",\"virt_end_ns\":" << s.virt_end_ns
          << "}\n";
    }
  }
}

int Run(const Args& args) {
  cntr::analysis::SetLockdepEnabled(false);
  cntr::obs::SetTracingEnabled(false);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("machine %s\n", MachineFingerprint().c_str());
  const int prefix = workload->prefix_rounds();

  // --- set-up, several times; the last world is kept ---
  SetupRecord setup;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  const uint64_t setup_start = HostNowNs();
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && HostNowNs() - setup_start >= kSetupBudgetNs) {
      break;
    }
    if (world != nullptr) {
      cntr::Status st = world->Detach(&setup);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: detach failed: %s\n", st.ToString().c_str());
        return 1;
      }
      world.reset();
    }
    const uint64_t h0 = HostNowNs();
    auto built = World::Build(*workload, /*native=*/false, &setup);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    world = std::move(built.value());
    setup_s.push_back(static_cast<double>(HostNowNs() - h0) / 1e9);
  }

  // --- timed phase: closed rounds for --seconds of host time ---
  // Host figures are kept per round, traced and untraced rounds apart; their
  // medians absorb a round that another process on the machine slowed down.
  std::unique_ptr<LayerProbe> probe = world->MakeProbe();
  LayerTotals layers;
  std::vector<double> host_calls[2], host_s[2], cpu_s[2];  // [traced]
  auto total_calls = [&] {
    uint64_t n = 0;
    for (const Client& c : world->clients()) {
      n += c.rec->attempted();
    }
    return n;
  };
  const uint64_t t0 = HostNowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  int rounds = 0;
  for (;; ++rounds) {
    const bool traced = args.trace && rounds % 2 == 1;
    cntr::obs::SetTracingEnabled(traced);
    LayerCounters before;
    if (traced) {
      before = probe->Read();
    }
    const uint64_t calls0 = total_calls();
    const double cpu0 = CpuSeconds();
    const uint64_t r0 = HostNowNs();
    RunRound(*world, *workload, rounds, traced);
    host_s[traced].push_back(static_cast<double>(HostNowNs() - r0) * 1e-9);
    cpu_s[traced].push_back(CpuSeconds() - cpu0);
    host_calls[traced].push_back(static_cast<double>(total_calls() - calls0));
    if (traced) {
      layers.AddDelta(probe->Read(), before);
    }
    if (rounds + 1 >= prefix && HostNowNs() - t0 >= budget_ns) {
      ++rounds;
      break;
    }
  }
  cntr::obs::SetTracingEnabled(false);

  const size_t node_table = world->NodeTableSize();
  const uint64_t max_queue_depth = world->MaxQueueDepth();
  cntr::fuse::FuseServerPool::PoolStats pool_stats;
  if (world->pool() != nullptr) {
    pool_stats = world->pool()->stats();
  }
  std::vector<std::unique_ptr<Recorder>> timed;
  for (Client& c : world->clients()) {
    timed.push_back(std::move(c.rec));
  }
  const cntr::Status detached = world->Detach(&setup);
  world.reset();

  // --- native replay of the prefix rounds on a fresh kernel ---
  SetupRecord native_setup;
  auto native_or = World::Build(*workload, /*native=*/true, &native_setup);
  if (!native_or.ok()) {
    std::fprintf(stderr, "perfbench: native set-up failed: %s\n",
                 native_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<World> native = std::move(native_or.value());
  for (int r = 0; r < prefix; ++r) {
    RunRound(*native, *workload, r, /*traced=*/false);
  }

  // --- correctness ---
  std::vector<Client> attached(timed.size());
  for (size_t i = 0; i < timed.size(); ++i) {
    attached[i].rec = std::move(timed[i]);
  }
  const PrefixFigures cntr_fig = Prefix(attached, prefix);
  const PrefixFigures native_fig = Prefix(native->clients(), prefix);



  uint64_t attempted = 0, failed = setup.warmup_failed + native_setup.warmup_failed;
  for (const std::vector<Client>* side : {&attached, &native->clients()}) {
    for (const Client& c : *side) {
      attempted += c.rec->attempted();
      failed += c.rec->failed();
    }
  }
  const bool same_calls = cntr_fig.hashes == native_fig.hashes;
  if (!same_calls) {
    std::fprintf(stderr, "perfbench: native replay issued a different call sequence\n");
  }
  if (!detached.ok()) {
    std::fprintf(stderr, "perfbench: detach failed: %s\n", detached.ToString().c_str());
  }
  const bool correct = failed == 0 && same_calls && detached.ok();
  uint64_t call_hash = 0;
  for (uint64_t h : cntr_fig.hashes) {
    call_hash = Mix64(call_hash ^ h);
  }
  std::printf("calls %016" PRIx64 " rounds %d prefix_rounds %d prefix_calls %zu\n", call_hash,
              rounds, prefix, cntr_fig.virt_ns.size());

  MetricSet m;
  if (!args.trace) {
    std::vector<uint64_t> host_ns;
    for (const Client& c : attached) {
      for (const Sample& s : c.rec->samples()) {
        host_ns.push_back(s.host_ns);
      }
    }
    std::vector<double> cpu_us_per_op;
    for (size_t r = 0; r < cpu_s[0].size(); ++r) {
      cpu_us_per_op.push_back(Ratio(cpu_s[0][r] * 1e6, host_calls[0][r]));
    }
    std::vector<double> mb = cntr_fig.bytes;
    for (double& b : mb) {
      b /= 1e6;
    }
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("attach_ms", Median(setup.attach_virt_ms), "ms");
    m.Add("op_p50_us", Quantile(cntr_fig.virt_ns, 0.50) / 1e3, "us");
    m.Add("op_p99_us", Quantile(cntr_fig.virt_ns, 0.99) / 1e3, "us");
    m.Add("ops_per_s", MedianRatio(cntr_fig.calls, cntr_fig.makespan_s), "ops/s");
    m.Add("mb_per_s", MedianRatio(mb, cntr_fig.makespan_s), "MB/s");
    m.Add("overhead_x", MedianRatio(cntr_fig.makespan_s, native_fig.makespan_s), "ratio");
    m.Add("host_ops_per_s", MedianRatio(host_calls[0], host_s[0]), "ops/s");
    m.Add("host_op_p50_us", Quantile(host_ns, 0.50) / 1e3, "us");
    m.Add("host_cpu_us_per_op", Median(cpu_us_per_op), "us");
    m.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  } else {
    // Per-op figures from the traced rounds' calls; span coverage from
    // every span below a session (calls and untimed steps).
    std::map<Op, std::vector<uint64_t>> virt, host;
    uint64_t covered_virt = 0, traced_client_virt = 0, traced_user_bytes_read = 0,
             traced_user_bytes_written = 0, traced_syscalls = 0;
    std::vector<double> client_p99;
    std::vector<const std::vector<Span>*> span_lists;
    for (const Client& c : attached) {
      span_lists.push_back(&c.rec->spans());
      traced_client_virt += c.rec->traced_virt_ns;
      for (const Span& s : c.rec->spans()) {
        if (s.parent >= 0) {
          covered_virt += s.virt_end_ns - s.virt_start_ns;
        }
      }
      std::vector<uint64_t> mine;
      for (const Sample& s : c.rec->samples()) {
        if (s.traced) {
          mine.push_back(s.virt_ns);
          virt[s.op].push_back(s.virt_ns);
          host[s.op].push_back(s.host_ns);
          ++traced_syscalls;
        }
      }
      client_p99.push_back(Quantile(mine, 0.99));
      traced_user_bytes_read += c.rec->traced_bytes_read;
      traced_user_bytes_written += c.rec->traced_bytes_written;
    }
    const auto& ctr = layers.counters;
    auto C = [&](const std::string& key) {
      auto it = ctr.find(key);
      return it == ctr.end() ? 0.0 : it->second;
    };
    auto phase_sum = [&](const char* phase) {
      double sum = 0;
      for (const auto& [key, h] : layers.hists) {
        if (key.size() > std::strlen(phase) &&
            key.compare(key.size() - std::strlen(phase), std::string::npos, phase) == 0 &&
            key[key.size() - std::strlen(phase) - 1] == '/') {
          sum += static_cast<double>(h.snap.sum);
        }
      }
      return sum;
    };
    auto hist_p50_us = [&](const std::string& key) {
      auto it = layers.hists.find(key);
      return it == layers.hists.end() ? 0.0 : it->second.snap.Quantile(0.5) / 1e3;
    };

    const double elapsed = static_cast<double>(traced_client_virt);
    const double fuse_total = phase_sum("total");
    const double queue = phase_sum("queue");
    const double service = phase_sum("service");
    const double transit = phase_sum("transit");
    const double self_share = Ratio(static_cast<double>(covered_virt) - fuse_total, elapsed);
    const double queue_share = Ratio(queue, elapsed);
    const double transit_share = Ratio(transit, elapsed);
    const double service_share = Ratio(service, elapsed);

    for (size_t i = 0; i < static_cast<size_t>(Op::kExec); ++i) {
      const Op op = static_cast<Op>(i);
      const std::string name = std::string("kernel.") + OpName(op);
      m.Add(name + ".calls", static_cast<double>(virt[op].size()), "count");
      m.Add(name + ".virt_p50_us", Quantile(virt[op], 0.50) / 1e3, "us");
      m.Add(name + ".virt_p99_us", Quantile(virt[op], 0.99) / 1e3, "us");
      m.Add(name + ".host_p50_us", Quantile(host[op], 0.50) / 1e3, "us");
    }
    m.Add("kernel.self_share", self_share, "fraction");
    m.Add("kernel.dcache.hit_ratio",
          Ratio(C("dcache.hits"), C("dcache.hits") + C("dcache.misses")), "fraction");
    m.Add("kernel.dcache.misses", C("dcache.misses"), "count");
    m.Add("kernel.dcache.negative_hits", C("dcache.negative_hits"), "count");
    m.Add("kernel.page_cache.hit_ratio",
          Ratio(C("page_cache.hits"), C("page_cache.hits") + C("page_cache.misses")),
          "fraction");
    m.Add("kernel.page_cache.misses", C("page_cache.misses"), "count");
    m.Add("kernel.page_cache.evictions", C("page_cache.evictions"), "count");
    m.Add("kernel.page_cache.ref_copies", C("page_cache.ref_copies"), "count");
    m.Add("kernel.page_cache.cow_breaks", C("page_cache.cow_breaks"), "count");
    m.Add("kernel.disk.read_ops", C("disk.read_ops"), "count");
    m.Add("kernel.disk.write_ops", C("disk.write_ops"), "count");
    m.Add("kernel.disk.flushes", C("disk.flushes"), "count");
    m.Add("kernel.disk.read_amplification",
          Ratio(C("disk.bytes_read"), static_cast<double>(traced_user_bytes_read)), "ratio");
    m.Add("kernel.disk.write_amplification",
          Ratio(C("disk.bytes_written"), static_cast<double>(traced_user_bytes_written)),
          "ratio");
    m.Add("fuse.requests_per_syscall",
          Ratio(C("conn.requests"), static_cast<double>(traced_syscalls)), "ratio");
    for (const char* op : {"LOOKUP", "GETATTR", "OPEN", "RELEASE", "READDIRPLUS", "READ",
                           "WRITE", "FSYNC"}) {
      m.Add(std::string("fuse.") + op + ".count", C(std::string("fuse.") + op), "count");
    }
    m.Add("fuse.FORGET.count", C("conn.forgets"), "count");
    m.Add("fuse.conn.queue_share", queue_share, "fraction");
    m.Add("fuse.conn.transit_share", transit_share, "fraction");
    m.Add("fuse.conn.reqs_per_reap", Ratio(C("conn.reaped_requests"), C("conn.reaps")), "ratio");
    m.Add("fuse.conn.spin_parks_per_request", Ratio(C("conn.spin_parks"), C("conn.requests")),
          "ratio");
    m.Add("fuse.conn.max_queue_depth", static_cast<double>(max_queue_depth), "count");
    m.Add("fuse.conn.spliced_ratio",
          Ratio(C("conn.spliced_bytes"), C("conn.spliced_bytes") + C("conn.copied_bytes")),
          "fraction");
    m.Add("fuse.conn.splice_fallbacks", C("conn.splice_fallbacks"), "count");
    m.Add("core.cntrfs.service_share", service_share, "fraction");
    for (const char* op : {"LOOKUP", "GETATTR", "READDIRPLUS", "READ", "WRITE"}) {
      m.Add(std::string("core.cntrfs.") + op + ".service_p50_us",
            hist_p50_us(std::string(op) + "/service"), "us");
    }
    m.Add("core.cntrfs.node_table_size", static_cast<double>(node_table), "count");
    m.Add("fuse.server_pool.dispatches", C("pool.dispatches"), "count");
    m.Add("fuse.server_pool.soft_sheds", static_cast<double>(pool_stats.soft_sheds), "count");
    m.Add("fuse.server_pool.hard_sheds", static_cast<double>(pool_stats.hard_sheds), "count");
    m.Add("fuse.server_pool.thread_growths", static_cast<double>(pool_stats.thread_growths),
          "count");
    double best = 0, worst = 0;
    if (client_p99.size() > 1) {
      best = *std::min_element(client_p99.begin(), client_p99.end());
      worst = *std::max_element(client_p99.begin(), client_p99.end());
    }
    m.Add("fuse.server_pool.mount_p99_skew", Ratio(worst, best), "ratio");
    m.Add("core.attach.host_ms", Median(setup.attach_host_ms), "ms");
    m.Add("core.attach.fuse_requests", static_cast<double>(setup.attach_fuse_requests), "count");
    m.Add("core.detach.host_ms", Median(setup.detach_host_ms), "ms");
    m.Add("core.shell.exec.virt_p50_us", Quantile(virt[Op::kExec], 0.50) / 1e3, "us");
    m.Add("core.shell.exec.host_p50_us", Quantile(host[Op::kExec], 0.50) / 1e3, "us");
    std::map<Op, std::vector<uint64_t>> backing;
    for (const Client& c : native->clients()) {
      for (const Sample& s : c.rec->samples()) {
        backing[s.op].push_back(s.virt_ns);
      }
    }
    for (Op op : {Op::kStat, Op::kOpen, Op::kRead, Op::kWrite}) {
      m.Add(std::string("backing.") + OpName(op) + ".virt_p50_us",
            Quantile(backing[op], 0.50) / 1e3, "us");
    }
    m.Add("layer_split_residual",
          std::abs(1.0 - (self_share + queue_share + transit_share + service_share)),
          "fraction");
    const double traced_rate = MedianRatio(host_calls[1], host_s[1]);
    const double untraced_rate = MedianRatio(host_calls[0], host_s[0]);
    m.Add("trace_overhead_pct", 100.0 * Ratio(untraced_rate - traced_rate, untraced_rate), "%");
    m.Add("error_ratio", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "fraction");
    if (!args.trace_out.empty()) {
      WriteSpans(args.trace_out, span_lists);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, m.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
