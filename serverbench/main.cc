// Request-stream benchmark for qcont_server (README.md in this directory).
//
//   serverbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One client thread drives server::Server::HandleBatch in a closed loop over
// a seeded corpus. --trace 0 prints the end-to-end metrics; --trace 1 runs
// an untraced phase and a traced phase (metrics registry attached, every
// request also replayed through the layer functions with timers) and prints
// the per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; lines before it starting
// with '#' are human-readable context (run metadata, sample counts).

#include <sys/utsname.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "server/server.h"
#include "verify.h"

namespace serverbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;  // set-ups per --trace 0 run; setup_s is their median

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
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
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A field of /proc/self/status in kB (VmRSS, VmHWM), 0 if unreadable.
double StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1);
    }
  }
  return 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Log-linear latency histogram (128 buckets per power of two, so a bucket
/// is at most 0.8% wide). Fixed size, so recording allocates nothing.
class Histogram {
 public:
  void Add(double ns) {
    const std::uint64_t v = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(ns)));
    counts_[std::min(Index(v), kBuckets - 1)]++;
    ++total_;
  }
  std::uint64_t total() const { return total_; }

  /// The q-quantile in ns, interpolated linearly inside its bucket.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    const double rank = q * static_cast<double>(total_ - 1);
    double before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0 && before + c > rank) {
        const double lo = Lower(i), hi = Lower(i + 1);
        return lo + (hi - lo) * (rank - before + 0.5) / c;
      }
      before += c;
    }
    return Lower(kBuckets);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kBuckets = 48 << kSubBits;

  static std::size_t Index(std::uint64_t v) {
    const int octave = 63 - __builtin_clzll(v);
    if (octave < kSubBits) return static_cast<std::size_t>(v);
    const std::uint64_t sub =
        (v >> (octave - kSubBits)) & ((1u << kSubBits) - 1);
    return (static_cast<std::size_t>(octave - kSubBits + 1) << kSubBits) + sub;
  }
  static double Lower(std::size_t index) {
    const std::size_t octave = index >> kSubBits;
    const std::size_t sub = index & ((1u << kSubBits) - 1);
    if (octave == 0) return static_cast<double>(sub);
    return std::ldexp(static_cast<double>((1u << kSubBits) + sub),
                      static_cast<int>(octave) - 1);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Replays one index stream through a server, `batch` lines per call.
class Client {
 public:
  Client(const Corpus& corpus, Tally* tally)
      : corpus_(corpus), tally_(tally), batch_(corpus.batch) {
    std::size_t longest = 0;
    for (const std::string& line : corpus.lines) {
      longest = std::max(longest, line.size());
    }
    for (std::string& slot : batch_) slot.reserve(longest);
  }

  struct CallTime {
    double wall_ns;
    double on_cpu_ns;  // CPU time of the calling thread during the call
  };

  /// Sends stream[pos, pos + batch) (wrapping) and times the call.
  /// Responses are recorded in the tally, outside the timed span.
  template <typename OnResponse>
  CallTime Call(qcont::server::Server& server,
                const std::vector<std::uint32_t>& stream, std::size_t pos,
                OnResponse&& on_response) {
    for (std::size_t j = 0; j < batch_.size(); ++j) {
      batch_[j] = corpus_.lines[stream[(pos + j) % stream.size()]];
    }
    const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const auto start = Clock::now();
    std::vector<std::string> responses = server.HandleBatch(batch_);
    const auto wall = Clock::now() - start;
    const double cpu1 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    for (std::size_t j = 0; j < responses.size(); ++j) {
      const std::uint32_t index = stream[(pos + j) % stream.size()];
      const std::string_view marker = tally_->Record(index, responses[j]);
      on_response(index, marker);
    }
    return {std::chrono::duration<double, std::nano>(wall).count(),
            (cpu1 - cpu0) * 1e9};
  }

  /// Sends the whole set-up stream.
  void SetUp(qcont::server::Server& server) {
    for (std::size_t pos = 0; pos < corpus_.setup.size(); pos += batch_.size()) {
      Call(server, corpus_.setup, pos, [](std::uint32_t, std::string_view) {});
    }
  }

 private:
  const Corpus& corpus_;
  Tally* tally_;
  std::vector<std::string> batch_;
};

/// The timed loop runs as kBlocks consecutive blocks of equal length; each
/// end-to-end figure is the median of its per-block values, so a stall of
/// the machine that spans a block or two does not move it.
constexpr int kBlocks = 5;

struct Blocks {
  std::array<double, kBlocks> ok_rps{};  // ok responses per wall second
  std::array<Histogram, kBlocks> wall;   // per HandleBatch call
  std::array<Histogram, kBlocks> on_cpu;  // the same calls, CPU time
};

struct Phase {
  std::uint64_t requests = 0;
  std::uint64_t calls = 0;
  double wall_s = 0;  // loop wall time, client work included
  double busy_s = 0;  // summed HandleBatch wall time
  double cpu_s = 0;   // process CPU time over the loop
};

/// Closed loop over the timed stream for `seconds`. `after_call(pos)` runs
/// after each call, outside the call's timing. `blocks` may be null.
template <typename OnResponse, typename AfterCall>
Phase RunPhase(Client* client, const Tally& tally,
               qcont::server::Server& server, const Corpus& corpus,
               double seconds, Blocks* blocks, OnResponse&& on_response,
               AfterCall&& after_call) {
  Phase phase;
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kBlocks));
  std::size_t pos = 0;
  for (int b = 0; b < kBlocks; ++b) {
    const auto block_start = Clock::now();
    std::uint64_t ok = 0;
    auto now = block_start;
    do {
      const std::uint64_t not_ok = tally.not_ok();
      const Client::CallTime time =
          client->Call(server, corpus.timed, pos, on_response);
      after_call(pos);
      pos += corpus.batch;
      ++phase.calls;
      phase.requests += corpus.batch;
      phase.busy_s += time.wall_ns / 1e9;
      ok += corpus.batch - (tally.not_ok() - not_ok);
      if (blocks != nullptr) {
        blocks->wall[b].Add(time.wall_ns);
        blocks->on_cpu[b].Add(time.on_cpu_ns);
      }
      now = Clock::now();
    } while (now - block_start < slice);
    if (blocks != nullptr) {
      blocks->ok_rps[b] = static_cast<double>(ok) / Seconds(now - block_start);
    }
  }
  phase.wall_s = Seconds(Clock::now() - start);
  phase.cpu_s = CpuSeconds() - cpu0;
  return phase;
}

qcont::server::ServerOptions OptionsFor(const WorkloadSpec& workload) {
  qcont::server::ServerOptions options;
  options.threads = workload.threads;
  options.max_batch = std::max<std::size_t>(options.max_batch, workload.batch);
  return options;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-28s %16s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  std::printf("%s}}\n", out.c_str());
}

void PrintMeta(const Args& args, const WorkloadSpec& workload,
               const Corpus& corpus) {
  utsname uts{};
  uname(&uts);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(corpus.Digest()));
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"corpus_digest\": \"%s\", \"distinct_lines\": %zu, "
      "\"threads\": %d, \"batch\": %zu, \"nproc\": %ld, \"kernel\": \"%s %s\", "
      "\"build_type\": \"%s\"}\n",
      workload.name, static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace ? 1 : 0, digest,
      corpus.lines.size(), workload.threads, corpus.batch,
      sysconf(_SC_NPROCESSORS_ONLN), uts.sysname, uts.release,
      SERVERBENCH_BUILD_TYPE);
}

/// Times one set-up (construct a server, send the set-up stream) in a
/// forked child and returns its seconds, or -1 on failure. The parent must
/// not have started threads yet.
double SetUpInChild(Client* client, const WorkloadSpec& workload) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    close(fds[0]);
    const auto start = Clock::now();
    qcont::server::Server server(OptionsFor(workload));
    client->SetUp(server);
    const double seconds = Seconds(Clock::now() - start);
    const bool sent =
        write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  if (read(fds[0], &seconds, sizeof(seconds)) != sizeof(seconds)) seconds = -1;
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return seconds;
}

/// Finishes a run: the untimed verification pass, then the result line.
int Finish(const Tally& tally, std::vector<Metric> metrics) {
  std::string error;
  const std::uint64_t failed = tally.Verify(&error);
  const std::uint64_t attempted = std::max<std::uint64_t>(1, tally.attempted());
  if (failed > 0) std::printf("# first failure: %s\n", error.c_str());
  std::printf("# fail_frac %s (%llu/%llu)\n",
              Number(Ratio(failed, attempted)).c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (Metric& m : metrics) {
    if (m.name == "ok_frac") m.value = 1.0 - Ratio(failed, attempted);
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

// --- --trace 0 ---------------------------------------------------------------

int RunEndToEnd(const Args& args, const WorkloadSpec& workload,
                const Corpus& corpus) {
  // Everything the client holds is allocated before the baseline, so the
  // RSS growth after it is the server's (plus the kept result texts, which
  // are subtracted).
  Tally tally(corpus);
  Client client(corpus, &tally);
  auto blocks = std::make_unique<Blocks>();
  const double base_kb = StatusKb("VmRSS");

  // Set-up: construct a server and bring it to steady state, kSetups times.
  // All but the last run in forked children, so this process only ever
  // holds the server it measures.
  std::vector<double> setups;
  for (int i = 1; i < kSetups; ++i) {
    const double seconds = SetUpInChild(&client, workload);
    if (seconds < 0) {
      std::fprintf(stderr, "set-up in a child process failed\n");
      return 1;
    }
    setups.push_back(seconds);
  }
  const auto setup_start = Clock::now();
  auto server = std::make_unique<qcont::server::Server>(OptionsFor(workload));
  client.SetUp(*server);
  setups.push_back(Seconds(Clock::now() - setup_start));

  const Phase phase = RunPhase(
      &client, tally, *server, corpus, args.seconds, blocks.get(),
      [](std::uint32_t, std::string_view) {}, [](std::size_t) {});
  const double peak_kb = StatusKb("VmHWM");
  const double server_kb =
      peak_kb - base_kb - static_cast<double>(tally.StoredBytes()) / 1024.0;

  // A serial server does all of a request's work on the calling thread, so
  // its latency is that thread's CPU time over the call: the wall time less
  // any stretch the thread sat descheduled. On a shared machine those
  // stretches are other tenants' doing, and they decide p99 alone (5-20 ms
  // stalls on 1-5% of eval_graph calls in busy minutes). With a pool the
  // caller waits for the workers, so only wall time means anything there.
  const bool serial = workload.threads == 1;
  std::vector<double> rps, p50, p99;
  std::string samples;
  for (int b = 0; b < kBlocks; ++b) {
    const Histogram& latency = serial ? blocks->on_cpu[b] : blocks->wall[b];
    rps.push_back(blocks->ok_rps[b]);
    p50.push_back(latency.Quantile(0.50) / 1e3);
    p99.push_back(latency.Quantile(0.99) / 1e3);
    samples += " " + std::to_string(latency.total());
    std::printf("# block %d: %s ok/s; p50 %s us, p99 %s us (wall: p50 %s us, "
                "p99 %s us)\n",
                b, Number(rps.back()).c_str(), Number(p50.back()).c_str(),
                Number(p99.back()).c_str(),
                Number(blocks->wall[b].Quantile(0.50) / 1e3).c_str(),
                Number(blocks->wall[b].Quantile(0.99) / 1e3).c_str());
  }
  std::printf("# timed: %llu requests in %llu calls, %s s wall; latency "
              "samples (HandleBatch calls) per block:%s\n",
              static_cast<unsigned long long>(phase.requests),
              static_cast<unsigned long long>(phase.calls),
              Number(phase.wall_s).c_str(), samples.c_str());
  std::string setup_list;
  for (double t : setups) setup_list += " " + Number(t);
  std::printf("# set-ups (s):%s; rss baseline %s kB, peak %s kB, corpus %zu B\n",
              setup_list.c_str(), Number(base_kb).c_str(),
              Number(peak_kb).c_str(), corpus.Bytes());
  return Finish(tally, {{"throughput_rps", Median(rps), "1/s"},
                        {"latency_p50_us", Median(p50), "us"},
                        {"latency_p99_us", Median(p99), "us"},
                        {"setup_s", Median(setups), "s"},
                        {"peak_rss_mb", server_kb / 1024.0, "MB"},
                        {"ok_frac", 1.0, "frac"}});
}

// --- --trace 1 ---------------------------------------------------------------

struct CacheCounters {
  qcont::server::PlanCacheStats plan;
  qcont::ProgramArtifactCacheStats artifacts;
  std::map<std::string, std::uint64_t> registry;

  static CacheCounters Of(qcont::server::Server& server,
                          const qcont::MetricRegistry& registry) {
    return {server.cache().stats(), server.cache().artifacts().stats(),
            registry.Snapshot()};
  }
  std::uint64_t Reg(const std::string& name) const {
    auto it = registry.find(name);
    return it == registry.end() ? 0 : it->second;
  }
};

/// hits / (hits + misses) of a registry counter pair between two snapshots.
double RegistryHitRatio(const CacheCounters& before, const CacheCounters& after,
                        const std::string& prefix) {
  const double hits = static_cast<double>(after.Reg(prefix + ".hits") -
                                          before.Reg(prefix + ".hits"));
  const double misses = static_cast<double>(after.Reg(prefix + ".misses") -
                                            before.Reg(prefix + ".misses"));
  return Ratio(hits, hits + misses);
}

int RunTraced(const Args& args, const WorkloadSpec& workload,
              const Corpus& corpus) {
  Tally tally(corpus);
  Client client(corpus, &tally);
  const double half = args.seconds / 2;

  // Untraced phase: the reference per-request time.
  Phase untraced;
  qcont::server::ServerStats untraced_stats;
  {
    qcont::server::Server server(OptionsFor(workload));
    client.SetUp(server);
    const qcont::server::ServerStats before = server.stats();
    untraced = RunPhase(&client, tally, server, corpus, half, nullptr,
                        [](std::uint32_t, std::string_view) {},
                        [](std::size_t) {});
    const qcont::server::ServerStats after = server.stats();
    untraced_stats.requests = after.requests - before.requests;
    untraced_stats.coalesced = after.coalesced - before.coalesced;
  }

  // Traced phase: the server publishes its counters into a registry, and
  // every request is also replayed through the layer functions.
  qcont::MetricRegistry registry;
  qcont::ObsContext obs;
  obs.metrics = &registry;
  qcont::server::ServerOptions options = OptionsFor(workload);
  options.obs = &obs;
  qcont::server::Server server(options);
  LayerReplay replay(options);
  client.SetUp(server);
  for (std::uint32_t index : corpus.setup) {
    replay.Run(corpus.lines[index], nullptr);
  }
  const CacheCounters before = CacheCounters::Of(server, registry);
  LayerTotals layers;
  double probes = 0;
  const Phase traced = RunPhase(
      &client, tally, server, corpus, half, nullptr,
      [&](std::uint32_t index, std::string_view marker) {
        // db.probes is a per-evaluation gauge: read it after each engine run.
        if (corpus.info[index].op == Op::kEval && marker == "miss") {
          probes += static_cast<double>(registry.Value("db.probes"));
        }
      },
      [&](std::size_t pos) {
        for (std::size_t j = 0; j < corpus.batch; ++j) {
          const std::uint32_t index =
              corpus.timed[(pos + j) % corpus.timed.size()];
          replay.Run(corpus.lines[index], &layers);
        }
      });
  const CacheCounters after = CacheCounters::Of(server, registry);

  const double n = static_cast<double>(std::max<std::uint64_t>(1, layers.requests));
  auto per_req_us = [&](double ns) { return ns / n / 1e3; };
  const double untraced_us =
      1e6 * Ratio(untraced.busy_s, static_cast<double>(untraced.requests));
  const double traced_us =
      1e6 * Ratio(traced.busy_s, static_cast<double>(traced.requests));
  const double layers_us = per_req_us(layers.SumNs());
  const double residual_us = untraced_us - layers_us;
  const double lookups = static_cast<double>(
      (after.plan.hits - before.plan.hits) +
      (after.plan.misses - before.plan.misses));
  const double artifact_lookups = static_cast<double>(
      (after.artifacts.hits - before.artifacts.hits) +
      (after.artifacts.misses - before.artifacts.misses));
  const double engine_runs =
      static_cast<double>(layers.ack_runs + layers.type_engine_runs);

  std::printf("# traced: %llu requests replayed through the layers; "
              "untraced phase %llu requests\n",
              static_cast<unsigned long long>(layers.requests),
              static_cast<unsigned long long>(untraced.requests));
  return Finish(
      tally,
      {{"server.json_us", per_req_us(layers.json_ns), "us"},
       {"parser.parse_us", per_req_us(layers.parse_ns), "us"},
       {"analysis.canon_us", per_req_us(layers.canon_ns), "us"},
       {"plan_cache.op_us", per_req_us(layers.cache_ns), "us"},
       {"plan_cache.hit_ratio",
        Ratio(static_cast<double>(after.plan.hits - before.plan.hits), lookups),
        "ratio"},
       {"plan_cache.verdict.hit_ratio",
        RegistryHitRatio(before, after, "server.cache.verdict"), "ratio"},
       {"plan_cache.eval.hit_ratio",
        RegistryHitRatio(before, after, "server.cache.eval"), "ratio"},
       {"plan_cache.evictions_per_req",
        Ratio(static_cast<double>(after.plan.evictions - before.plan.evictions),
              static_cast<double>(traced.requests)),
        "count"},
       {"cq.minimize_us", per_req_us(layers.minimize_ns), "us"},
       {"analysis.route_us", per_req_us(layers.route_ns), "us"},
       {"core.ack_us", per_req_us(layers.ack_ns), "us"},
       {"core.type_engine_us", per_req_us(layers.type_engine_ns), "us"},
       {"core.ack_share", Ratio(static_cast<double>(layers.ack_runs), engine_runs),
        "ratio"},
       {"core.artifact_hit_ratio",
        Ratio(static_cast<double>(after.artifacts.hits - before.artifacts.hits),
              artifact_lookups),
        "ratio"},
       {"datalog.eval_us", per_req_us(layers.eval_ns), "us"},
       {"datalog.rounds_per_req",
        Ratio(static_cast<double>(after.Reg("datalog.eval.iterations") -
                                  before.Reg("datalog.eval.iterations")),
              static_cast<double>(traced.requests)),
        "count"},
       {"db.build_us", per_req_us(layers.db_build_ns), "us"},
       {"db.probes_per_req", Ratio(probes, static_cast<double>(traced.requests)),
        "count"},
       {"server.residual_us", residual_us, "us"},
       {"server.batch_us",
        1e6 * Ratio(untraced.busy_s, static_cast<double>(untraced.calls)), "us"},
       {"server.coalesced_frac",
        Ratio(static_cast<double>(untraced_stats.coalesced),
              static_cast<double>(untraced_stats.requests)),
        "frac"},
       {"server.cpu_us_per_req",
        1e6 * Ratio(untraced.cpu_s, static_cast<double>(untraced.requests)),
        "us"},
       {"pool.efficiency",
        Ratio(layers.SumNs() / 1e9,
              workload.threads * traced.busy_s),
        "ratio"},
       {"trace.overhead_frac", 1.0 - Ratio(untraced_us, traced_us), "frac"},
       {"trace.unattributed_frac", Ratio(residual_us, untraced_us), "frac"},
       {"trace.requests", static_cast<double>(layers.requests), "count"}});
}

}  // namespace
}  // namespace serverbench

int main(int argc, char** argv) {
  using namespace serverbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serverbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Corpus corpus = BuildCorpus(*workload, args.seed);
  PrintMeta(args, *workload, corpus);
  return args.trace ? RunTraced(args, *workload, corpus)
                    : RunEndToEnd(args, *workload, corpus);
}
