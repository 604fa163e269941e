/**
 * @file
 * Host-speed benchmark of the secmem simulator.
 *
 *     perfbench --workload enc-sweep|auth-sweep|secmem-rw --seed N
 *               --seconds S --trace 0|1 [--corrupt CHECK]
 *
 * One invocation runs one workload in this process, on one simulation
 * thread, and prints one JSON line on stdout:
 *
 *     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones (wall_s,
 * ops_per_s, setup_s, peak_rss_mb); with --trace 1 they are the
 * per-layer ones, measured by timing calls into each layer's public
 * functions from here. Check verdicts and the normalized-IPC table go
 * to stderr. --corrupt CHECK falsifies the output that check inspects,
 * so that each check can be shown to fail (selftest.py).
 *
 * Only public functions of the program are used: the sweeps go
 * through the experiment engine (src/exp) with the result store off
 * and one worker, secmem-rw through SecureMemory (src/core).
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/secure_memory.hh"
#include "core/system.hh"
#include "cpu/ooo_core.hh"
#include "crypto/aes.hh"
#include "crypto/gf128.hh"
#include "crypto/seed.hh"
#include "exp/engine.hh"
#include "exp/sweep.hh"
#include "obs/registry.hh"
#include "ref/model.hh"
#include "workload/spec_profiles.hh"

namespace
{

using namespace secmem;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * CPU time of this process, in seconds since it started. The
 * end-to-end times are taken on this clock, not the wall clock: on a
 * shared virtual machine the hypervisor takes the vCPU away in bursts
 * (steal time, up to a third of the wall clock on the reference host),
 * which no change to the program causes. With one simulation thread
 * and no I/O, CPU time is what the wall clock reads on a dedicated
 * host.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/** Linear-interpolated quantile (the median for q = 0.5). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Results of timed calls land here, so the calls cannot be elided. */
volatile std::uint64_t g_sink;

/** The benchmark's own input generator, independent of the program. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10.0;
    bool trace = false;
    std::string corrupt;
};

/**
 * Metrics, operation counts and check verdicts of one run. A failed
 * check makes the run incorrect; a failed operation is counted.
 */
class Report
{
  public:
    explicit Report(std::string corrupt) : corrupt_(std::move(corrupt)) {}

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_.push_back({name, value, unit});
    }

    void
    check(bool ok, const std::string &name, const std::string &detail = "")
    {
        std::fprintf(stderr, "check %-28s %s%s%s\n", name.c_str(),
                     ok ? "ok" : "FAIL", detail.empty() ? "" : "  ",
                     detail.c_str());
        if (!ok)
            correct_ = false;
    }

    /**
     * True exactly once when --corrupt names @p check: the caller then
     * falsifies one output that check inspects.
     */
    bool
    corruptOnce(const char *check)
    {
        if (corruptUsed_ || corrupt_ != check)
            return false;
        corruptUsed_ = true;
        std::fprintf(stderr, "corrupting one output of check %s\n", check);
        return true;
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Print the result line; returns the process exit code. */
    int
    finish() const
    {
        if (!corrupt_.empty() && !corruptUsed_) {
            std::fprintf(stderr, "--corrupt %s matched no check\n",
                         corrupt_.c_str());
            return 2;
        }
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    correct_ ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit);
        }
        std::printf("}}\n");
        std::fflush(stdout);
        return correct_ ? 0 : 1;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::string corrupt_;
    bool corruptUsed_ = false;
    bool correct_ = true;
    std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------
// Per-layer measurements shared by every workload
// ---------------------------------------------------------------------

/** Cost of one Clock::now() call, subtracted from timed intervals. */
double
clockCostNs()
{
    constexpr int kCalls = 200'000;
    std::vector<double> per;
    for (int rep = 0; rep < 5; ++rep) {
        Clock::time_point t0 = Clock::now();
        Clock::time_point last = t0;
        for (int i = 0; i < kCalls; ++i)
            last = Clock::now();
        per.push_back(nsBetween(t0, last) / kCalls);
    }
    return median(per);
}

struct CryptoCosts
{
    double padNs = 0;
    double gcmTagNs = 0;
    double sha1TagNs = 0;
};

/**
 * makePad, gcmBlockTag and sha1BlockTag timed alone on the active
 * backend: median over batches of ns per call, inputs varied per call.
 */
CryptoCosts
measureCrypto()
{
    const SecureMemConfig cfg = SecureMemConfig::splitGcm();
    Aes128 aes(cfg.dataKey);
    Gf128Table table(Gf128::fromBlock(aes.encrypt(Block16{})));
    Block64 ct;
    for (unsigned i = 0; i < kBlockBytes; ++i)
        ct.b[i] = static_cast<std::uint8_t>(i * 37 + 11);

    constexpr int kBatch = 20'000;
    constexpr int kBatches = 7;
    std::uint8_t sink = 0;
    auto timeIt = [&](auto &&op) {
        std::vector<double> per;
        std::uint64_t ctr = 1;
        for (int b = 0; b < kBatches; ++b) {
            Clock::time_point t0 = Clock::now();
            for (int i = 0; i < kBatch; ++i)
                sink ^= op(ctr++);
            per.push_back(nsBetween(t0, Clock::now()) / kBatch);
        }
        return median(per);
    };
    CryptoCosts c;
    c.padNs = timeIt([&](std::uint64_t n) {
        return makePad(aes, (n & 0xffff) << 6, n, cfg.eivByte).b[n & 63];
    });
    c.gcmTagNs = timeIt([&](std::uint64_t n) {
        return gcmBlockTag(aes, table, ct, (n & 0xffff) << 6, n, cfg.aivByte)
            .b[n & 15];
    });
    c.sha1TagNs = timeIt([&](std::uint64_t n) {
        return sha1BlockTag(cfg.macKey, ct, (n & 0xffff) << 6, n).b[n & 15];
    });
    g_sink = sink;
    return c;
}

/**
 * Exact simulated counts, summed over the simulations of a run (or,
 * with sign -1 for a snapshot taken first, over part of one).
 */
class SimCounts
{
  public:
    void
    add(const obs::StatRegistry &reg, SecureMemoryController &ctrl,
        double sign = 1.0)
    {
        for (const char *path : kPaths)
            v_[path] += sign * static_cast<double>(reg.counterValue(path));
        const stats::Sample &walk = ctrl.stats().sample("auth_walk_levels");
        v_["walk.sum"] += sign * walk.sum();
        v_["walk.count"] += sign * static_cast<double>(walk.count());
    }

    /** Host seconds the functional crypto of these counts costs. */
    double
    cryptoSeconds(const CryptoCosts &k) const
    {
        double pads = get("aes.ops") / kChunksPerBlock;
        double gcmTags = get("ctrl.ghash_chunks") / (kChunksPerBlock + 1);
        return (pads * k.padNs + gcmTags * k.gcmTagNs +
                get("ctrl.sha1_blocks") * k.sha1TagNs) *
               1e-9;
    }

    void
    report(Report &rep) const
    {
        auto rate = [&](const char *name, const char *num, const char *den) {
            rep.metric(name, ratio(get(num), get(den)), "ratio");
        };
        rate("l1d.hit_rate", "l1d.hits", "l1d.accesses");
        rate("l2.miss_rate", "l2.misses", "l2.accesses");
        rate("ctrcache.hit_rate", "ctrcache.hits", "ctrcache.accesses");
        rate("maccache.hit_rate", "maccache.hits", "maccache.accesses");
        rate("ctrl.pad_timely_rate", "ctrl.pad_timely", "ctrl.pad_total");
        rep.metric("ctrl.auth_walk_levels",
                   ratio(get("walk.sum"), get("walk.count")), "levels");
        for (const char *path :
             {"ctrl.reads", "ctrl.writes", "aes.ops", "ctrl.ghash_chunks",
              "ctrl.sha1_blocks", "dram.reads", "dram.writes",
              "ctrl.page_reencs", "events.executed"})
            rep.metric(path, get(path), "count");
    }

  private:
    static constexpr const char *kPaths[] = {
        "l1d.hits", "l1d.accesses", "l2.misses", "l2.accesses",
        "ctrcache.hits", "ctrcache.accesses", "maccache.hits",
        "maccache.accesses", "ctrl.pad_timely", "ctrl.pad_total",
        "ctrl.reads", "ctrl.writes", "aes.ops", "ctrl.ghash_chunks",
        "ctrl.sha1_blocks", "dram.reads", "dram.writes",
        "ctrl.page_reencs", "events.executed"};

    double
    get(const char *path) const
    {
        auto it = v_.find(path);
        return it == v_.end() ? 0.0 : it->second;
    }

    std::map<std::string, double> v_;
};

/** Host-time layers of a traced run; zero where a layer does not run. */
struct LayerTimes
{
    double nextNs = 0;
    double cpuSelfNsPerInstr = 0;
    double memsysAccessNs = 0;
    double memsysAccesses = 0;
    double advanceNs = 0;
    double advanceCalls = 0;
    double expOverheadS = 0;
    double systemBuildMs = 0;
    double prefillUs = 0;
    double readP50Us = 0, readP99Us = 0, writeP50Us = 0, writeP99Us = 0;
    double cryptoShare = 0;
    double traceOverhead = 0;

    void
    report(Report &rep, const CryptoCosts &k) const
    {
        rep.metric("workload.next_ns", nextNs, "ns");
        rep.metric("cpu.self_ns_per_instr", cpuSelfNsPerInstr, "ns");
        rep.metric("memsys.access_ns", memsysAccessNs, "ns");
        rep.metric("memsys.accesses", memsysAccesses, "count");
        rep.metric("sim.advance_ns", advanceNs, "ns");
        rep.metric("sim.advance_calls", advanceCalls, "count");
        rep.metric("exp.overhead_s", expOverheadS, "s");
        rep.metric("harness.system_build_ms", systemBuildMs, "ms");
        rep.metric("ctrl.prefill_us", prefillUs, "us");
        rep.metric("ctrl.read_us.p50", readP50Us, "us");
        rep.metric("ctrl.read_us.p99", readP99Us, "us");
        rep.metric("ctrl.write_us.p50", writeP50Us, "us");
        rep.metric("ctrl.write_us.p99", writeP99Us, "us");
        rep.metric("crypto.pad_ns", k.padNs, "ns");
        rep.metric("crypto.gcm_tag_ns", k.gcmTagNs, "ns");
        rep.metric("crypto.sha1_tag_ns", k.sha1TagNs, "ns");
        rep.metric("crypto.share", cryptoShare, "ratio");
        rep.metric("trace.overhead", traceOverhead, "ratio");
    }
};

/**
 * Rounds of a run: one per @p nominalRoundS seconds of --seconds, at
 * least @p minRounds. The count depends on --seconds alone, never on
 * how fast the rounds go, so every commit times the same work.
 */
int
roundsFor(const Options &opt, double nominalRoundS, int minRounds)
{
    return std::max(minRounds,
                    static_cast<int>(opt.seconds / nominalRoundS));
}

/**
 * A safety net, not the bound of a run: once this much wall-clock time
 * has passed, no further round starts, so that a much slower program
 * still ends with a result. It then times less work, and says so on
 * stderr.
 */
constexpr double kMaxRunWallS = 140;

bool
moreRounds(int r, int rounds, Clock::time_point start)
{
    if (r >= rounds)
        return false;
    if (secondsSince(start) <= kMaxRunWallS)
        return true;
    std::fprintf(stderr, "stopped after %d of %d rounds: the run passed "
                 "%.0fs of wall-clock time\n", r, rounds, kMaxRunWallS);
    return false;
}

/**
 * The end-to-end metrics. A round's time is taken as the 90th
 * percentile of the run's round times, not the median: how much of the
 * shared L3 the host's other tenants leave to the simulator changes
 * over minutes and sets how fast its fast rounds are, while its slow
 * rounds, with its data coming from DRAM, repeat from run to run
 * (README.md, Host noise).
 */
void
reportEndToEnd(Report &rep, const std::vector<double> &roundTimes,
               double opsPerRound, double setup, double rssMb)
{
    double wall = quantile(roundTimes, 0.9);
    rep.metric("wall_s", wall, "s");
    rep.metric("ops_per_s", opsPerRound / wall, "1/s");
    rep.metric("setup_s", setup, "s");
    rep.metric("peak_rss_mb", rssMb, "MB");
}

// ---------------------------------------------------------------------
// enc-sweep / auth-sweep: the experiment engine
// ---------------------------------------------------------------------

/** Paper run lengths: statistics start after the warm-up. */
constexpr RunLengths kLengths{600'000, 800'000};

/**
 * Memory-intensive profiles of different kinds: mcf is
 * dependence-bound, swim streams, equake and twolf write small hot
 * sets.
 */
const char *const kProfiles[] = {"mcf", "swim", "equake", "twolf"};

struct SweepDef
{
    exp::SchemeList schemes;
    bool auth;
    /**
     * Seconds of --seconds per round (see roundsFor): a little over a
     * round's time in the host's slow phases, so that a run takes about
     * --seconds of CPU time.
     */
    double nominalRoundS;
};

SweepDef
sweepDef(const std::string &workload)
{
    if (workload == "enc-sweep") {
        return {{{"Split", SecureMemConfig::split()},
                 {"Mono8b", SecureMemConfig::mono(8)},
                 {"Mono64b", SecureMemConfig::mono(64)},
                 {"Direct", SecureMemConfig::direct()}},
                false, 3.6};
    }
    return {{{"Split+GCM", SecureMemConfig::splitGcm()},
             {"Mono+GCM", SecureMemConfig::monoGcm()},
             {"Split+SHA", SecureMemConfig::splitSha()},
             {"Mono+SHA", SecureMemConfig::monoSha()},
             {"XOM+SHA", SecureMemConfig::xomSha()}},
            true, 6.0};
}

/** The profiles, their seeds overridden by --seed when given. */
std::vector<SpecProfile>
sweepProfiles(const Options &opt)
{
    std::vector<SpecProfile> out;
    for (const char *name : kProfiles) {
        SpecProfile p = profileByName(name);
        if (opt.seedGiven) {
            std::uint64_t s = opt.seed ^ (p.seed * 0x9e3779b97f4a7c15ull);
            p.seed = splitmix64(s);
        }
        out.push_back(p);
    }
    return out;
}

/** One pass of the engine over every (profile, scheme) job. */
struct SweepRound
{
    double cpu = 0;        ///< host CPU time of the round
    double wall = 0;       ///< wall-clock time of the round
    double jobWallSum = 0; ///< wall-clock per-job times the engine reports
    std::vector<exp::JobSpec> specs;
    std::vector<RunOutput> outputs;
    std::map<std::string, double> avgNipc;
    std::map<std::pair<std::string, std::string>, double> nipc;
};

SweepRound
runSweepRound(const SweepDef &def, const std::vector<SpecProfile> &profiles)
{
    SweepRound r;
    Clock::time_point t0 = Clock::now();
    double c0 = cpuSeconds();
    exp::EngineOptions eo;
    eo.jobs = 1; // one simulation thread; the store stays off (no dir)
    exp::Engine engine(eo);
    exp::SchemeSweep sweep(engine, def.schemes, profiles, kLengths);
    sweep.run();
    r.cpu = cpuSeconds() - c0;
    r.wall = secondsSince(t0);
    for (const auto &rec : engine.history())
        r.jobWallSum += rec.wallSeconds;
    r.specs = sweep.specs();
    r.outputs = sweep.outputs();
    for (const auto &[label, cfg] : def.schemes) {
        r.avgNipc[label] = sweep.avgNipc(label);
        for (const SpecProfile &p : profiles)
            r.nipc[{p.name, label}] = sweep.nipc(p.name, label);
    }
    return r;
}

/** Simulated instructions per job, warm-up included. */
double
instrPerJob()
{
    return static_cast<double>(kLengths.warmup + kLengths.sim);
}

/** Checks on one round's outputs; counts its jobs as operations. */
void
checkSweepRound(Report &rep, SweepRound &r,
                const std::vector<std::string> &reference)
{
    if (rep.corruptOnce("sweep.budget"))
        r.outputs[0].instructions -= 1;
    if (rep.corruptOnce("sweep.auth_failures"))
        r.outputs[0].authFailures = 1;
    if (rep.corruptOnce("sweep.job_failed"))
        r.outputs[0].failed = true;
    if (!reference.empty() && rep.corruptOnce("sweep.stable"))
        r.outputs.back().cycles += 1;

    std::uint64_t failed = 0, shortRuns = 0, authFails = 0, unstable = 0;
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
        const RunOutput &o = r.outputs[i];
        if (o.failed) {
            ++failed;
            continue;
        }
        shortRuns += o.instructions != kLengths.sim;
        authFails += o.authFailures != 0;
        if (!reference.empty())
            unstable += exp::runOutputToJson(o) != reference[i];
    }
    rep.attempted += r.outputs.size();
    rep.failed += failed;
    if (failed)
        rep.check(true, "sweep.job_failed",
                  std::to_string(failed) + " jobs failed (counted)");
    if (shortRuns)
        rep.check(false, "sweep.budget",
                  std::to_string(shortRuns) + " jobs missed their budget");
    if (authFails)
        rep.check(false, "sweep.auth_failures",
                  std::to_string(authFails) + " jobs reported auth failures");
    if (unstable)
        rep.check(false, "sweep.stable",
                  std::to_string(unstable) +
                      " jobs' stats differ from the first round");
}

/**
 * The paper's orderings on the workload's average normalized IPC, as
 * far as they hold for the chosen profiles. Two do not, and are not
 * checked: mcf, counter-cache bound, puts Mono64b below Direct on
 * average, and XOM+SHA beats both counter-mode SHA-1 schemes here
 * (EXPERIMENTS.md, Figure 9).
 */
void
checkOrderings(Report &rep, SweepRound &r, const SweepDef &def)
{
    auto &a = r.avgNipc;
    char buf[256];
    if (!def.auth) {
        if (rep.corruptOnce("order.split_mono8b"))
            a["Split"] -= 0.01;
        if (rep.corruptOnce("order.counter_width"))
            a["Direct"] = a["Split"] + 0.01;
        std::snprintf(buf, sizeof(buf),
                      "Split %.4f Mono8b %.4f Mono64b %.4f Direct %.4f",
                      a["Split"], a["Mono8b"], a["Mono64b"], a["Direct"]);
        rep.check(std::fabs(a["Split"] - a["Mono8b"]) <= 0.005,
                  "order.split_mono8b", buf);
        rep.check(std::min(a["Split"], a["Mono8b"]) >
                      std::max(a["Mono64b"], a["Direct"]),
                  "order.counter_width", buf);
        return;
    }
    if (rep.corruptOnce("order.splitgcm_best"))
        a["Mono+GCM"] = a["Split+GCM"] + 0.01;
    if (rep.corruptOnce("order.gcm_over_sha"))
        a["XOM+SHA"] = a["Mono+GCM"] + 0.001;
    if (rep.corruptOnce("order.split_over_mono_sha"))
        a["Mono+SHA"] = a["Split+SHA"] + 0.01;
    std::snprintf(buf, sizeof(buf),
                  "Split+GCM %.4f Mono+GCM %.4f Split+SHA %.4f "
                  "Mono+SHA %.4f XOM+SHA %.4f",
                  a["Split+GCM"], a["Mono+GCM"], a["Split+SHA"],
                  a["Mono+SHA"], a["XOM+SHA"]);
    double others = std::max({a["Mono+GCM"], a["Split+SHA"], a["Mono+SHA"],
                              a["XOM+SHA"]});
    double gcmWorst = std::min(a["Split+GCM"], a["Mono+GCM"]);
    double shaBest =
        std::max({a["Split+SHA"], a["Mono+SHA"], a["XOM+SHA"]});
    rep.check(a["Split+GCM"] > others, "order.splitgcm_best", buf);
    rep.check(gcmWorst > shaBest, "order.gcm_over_sha", buf);
    rep.check(a["Split+SHA"] > a["Mono+SHA"], "order.split_over_mono_sha",
              buf);
}

void
printNipc(const SweepRound &r, const SweepDef &def,
          const std::vector<SpecProfile> &profiles)
{
    std::fprintf(stderr, "normalized IPC (seeds:");
    for (const SpecProfile &p : profiles)
        std::fprintf(stderr, " %s=%" PRIu64, p.name.c_str(), p.seed);
    std::fprintf(stderr, ")\n%-8s", "app");
    for (const auto &s : def.schemes)
        std::fprintf(stderr, " %10s", s.first.c_str());
    std::fprintf(stderr, "\n");
    for (const SpecProfile &p : profiles) {
        std::fprintf(stderr, "%-8s", p.name.c_str());
        for (const auto &s : def.schemes)
            std::fprintf(stderr, " %10.4f", r.nipc.at({p.name, s.first}));
        std::fprintf(stderr, "\n");
    }
    std::fprintf(stderr, "%-8s", "avg");
    for (const auto &s : def.schemes)
        std::fprintf(stderr, " %10.4f", r.avgNipc.at(s.first));
    std::fprintf(stderr, "\n");
}

/**
 * Split a stats dump into the top-level "cpu" object and the rest.
 * The traced run drives its own OooCore, whose counters land in a
 * group of ours instead of the system's, so the two parts are
 * compared separately.
 */
std::pair<std::string, std::string>
splitCpuObject(const std::string &json)
{
    std::size_t key = json.find("\"cpu\":");
    if (key == std::string::npos)
        return {"", json};
    std::size_t open = json.find('{', key);
    int depth = 0;
    std::size_t close = open;
    for (; close < json.size(); ++close) {
        depth += json[close] == '{';
        depth -= json[close] == '}';
        if (depth == 0)
            break;
    }
    return {json.substr(open, close + 1 - open),
            json.substr(0, key) + json.substr(close + 1)};
}

/** Forwards to a SecureSystem, timing each call from outside. */
class TimedMemory final : public MemorySystem
{
  public:
    explicit TimedMemory(SecureSystem &sys) : sys_(sys) {}

    MemAccess
    access(Addr addr, bool is_write, Tick now) override
    {
        Clock::time_point t0 = Clock::now();
        MemAccess out = sys_.access(addr, is_write, now);
        accessNs += nsBetween(t0, Clock::now());
        ++accesses;
        ++accessCalls;
        return out;
    }

    void
    accessRun(MemBurstOp *ops, unsigned n) override
    {
        Clock::time_point t0 = Clock::now();
        sys_.accessRun(ops, n);
        accessNs += nsBetween(t0, Clock::now());
        accesses += n;
        ++accessCalls;
    }

    void
    advanceTo(Tick cycle) override
    {
        Clock::time_point t0 = Clock::now();
        sys_.advanceTo(cycle);
        advanceNs += nsBetween(t0, Clock::now());
        ++advanceCalls;
    }

    double accessNs = 0;
    double accesses = 0;
    double accessCalls = 0;
    double advanceNs = 0;
    double advanceCalls = 0;

  private:
    SecureSystem &sys_;
};

/** SpecWorkload::next() alone, @p n calls; returns host ns. */
double
replayGenerator(const SpecProfile &p, std::uint64_t n)
{
    SpecWorkload gen(p);
    Addr sink = 0;
    Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
        sink += gen.next().addr;
    double ns = nsBetween(t0, Clock::now());
    g_sink = sink;
    return ns;
}

/**
 * Traced pass: every job of @p untraced again, on an OooCore of ours
 * against a TimedMemory; compares the simulated stats with the
 * engine's and fills the per-layer times.
 */
void
tracedSweep(Report &rep, const SweepRound &untraced, LayerTimes &lt,
            SimCounts &counts, double clockNs)
{
    double coreNs = 0, accessNs = 0, advanceNs = 0, genNs = 0;
    double accessCalls = 0, instrs = 0, tracedJobCpu = 0, buildNs = 0;
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < untraced.specs.size(); ++i) {
        const exp::JobSpec &spec = untraced.specs[i];
        double jobCpu = cpuSeconds();
        Clock::time_point b0 = Clock::now();
        auto system = std::make_unique<SecureSystem>(spec.config, spec.sys);
        buildNs += nsBetween(b0, Clock::now());
        obs::StatRegistry reg;
        system->registerStats(reg);
        SpecWorkload gen(spec.profile);
        TimedMemory mem(*system);
        stats::Group cpuGroup("cpu");
        OooCore core(spec.core, mem, spec.config.authMode, &cpuGroup);
        Clock::time_point t0 = Clock::now();
        CoreRunResult res =
            core.run(gen, spec.lengths.warmup, spec.lengths.sim);
        coreNs += nsBetween(t0, Clock::now());
        // runWorkload reads these samples before its dump, which
        // creates them when empty; do the same so the dumps compare.
        for (const char *name :
             {"auth_walk_levels", "reenc_duration", "reenc_concurrent"})
            system->controller().stats().sample(name);
        std::string json = reg.jsonString();
        tracedJobCpu += cpuSeconds() - jobCpu;

        accessNs += mem.accessNs;
        advanceNs += mem.advanceNs;
        accessCalls += mem.accessCalls;
        lt.memsysAccesses += mem.accesses;
        lt.advanceCalls += mem.advanceCalls;
        instrs += static_cast<double>(spec.lengths.warmup + spec.lengths.sim);
        counts.add(reg, system->controller());

        obs::StatRegistry cpuReg;
        cpuReg.add("cpu", cpuGroup);
        cpuReg.addRatio("cpu.ipc", "cpu.instructions", "cpu.cycles");
        auto [engineCpu, engineRest] =
            splitCpuObject(untraced.outputs[i].statsJson);
        std::string ourRest = splitCpuObject(json).second;
        if (i == 0 && rep.corruptOnce("trace.identical"))
            ourRest += " ";
        std::string cpuJson = splitCpuObject(cpuReg.jsonString()).first;
        bool same = ourRest == engineRest && cpuJson == engineCpu &&
                    res.ipc == untraced.outputs[i].ipc &&
                    res.cycles == untraced.outputs[i].cycles;
        mismatches += !same;

        genNs += replayGenerator(spec.profile,
                                 spec.lengths.warmup + spec.lengths.sim);
    }
    rep.check(mismatches == 0, "trace.identical",
              std::to_string(untraced.specs.size() - mismatches) + "/" +
                  std::to_string(untraced.specs.size()) +
                  " jobs bit-identical to the untraced run");

    // Each timed call spends about one clock read inside its interval
    // and one outside; both are the tracer's, not the program's.
    double clockInside = (accessCalls + lt.advanceCalls) * clockNs;
    lt.nextNs = genNs / instrs;
    lt.memsysAccessNs = std::max(0.0, accessNs - accessCalls * clockNs) /
                        std::max(1.0, lt.memsysAccesses);
    lt.advanceNs = std::max(0.0, advanceNs - lt.advanceCalls * clockNs) /
                   std::max(1.0, lt.advanceCalls);
    lt.cpuSelfNsPerInstr =
        std::max(0.0, coreNs - accessNs - advanceNs - genNs - clockInside) /
        instrs;
    lt.systemBuildMs =
        buildNs * 1e-6 / static_cast<double>(untraced.specs.size());
    lt.traceOverhead = tracedJobCpu / untraced.cpu - 1.0;
    std::fprintf(stderr,
                 "traced: core %.3fs = memsys %.3fs + advance %.3fs + "
                 "generator %.3fs + timer %.3fs + self; traced jobs %.3fs "
                 "vs untraced %.3fs (CPU)\n",
                 coreNs * 1e-9, accessNs * 1e-9, advanceNs * 1e-9,
                 genNs * 1e-9, clockInside * 1e-9, tracedJobCpu,
                 untraced.cpu);
}

int
runSweep(const Options &opt, Report &rep)
{
    const SweepDef def = sweepDef(opt.workload);
    const std::vector<SpecProfile> profiles = sweepProfiles(opt);
    activeCryptoBackend(); // resolve the backend during set-up
    std::vector<SecureMemConfig> configs;
    for (std::size_t p = 0; p < profiles.size(); ++p) {
        configs.push_back(SecureMemConfig::baseline());
        for (const auto &s : def.schemes)
            configs.push_back(s.second);
    }
    std::fprintf(stderr, "process start-up: %.4fs (not in setup_s)\n",
                 cpuSeconds());

    // The build of every SecureSystem a round constructs, repeated.
    // One build takes well under a millisecond, so only the median of
    // many repetitions is steady; the process's own start-up, a few
    // milliseconds of loading and static initialisation, is not.
    constexpr int kBuildReps = 301;
    std::vector<double> buildSums;
    for (int r = 0; r < kBuildReps; ++r) {
        double sum = 0;
        for (const SecureMemConfig &cfg : configs) {
            double c0 = cpuSeconds();
            auto sys = std::make_unique<SecureSystem>(cfg);
            sum += cpuSeconds() - c0;
        }
        buildSums.push_back(sum);
    }
    double setup = median(buildSums);
    std::fprintf(stderr, "set-up: %zu system builds %.6fs (median of %d)\n",
                 configs.size(), setup, kBuildReps);

    std::vector<std::string> reference;
    std::vector<double> times, walls;
    double rss = 0;
    SweepRound last;
    const int rounds = opt.trace ? 1 : roundsFor(opt, def.nominalRoundS, 2);
    Clock::time_point start = Clock::now();
    for (int r = 0; moreRounds(r, rounds, start); ++r) {
        SweepRound round = runSweepRound(def, profiles);
        checkSweepRound(rep, round, reference);
        if (reference.empty()) {
            for (const RunOutput &o : round.outputs)
                reference.push_back(exp::runOutputToJson(o));
        }
        times.push_back(round.cpu);
        walls.push_back(round.wall);
        last = std::move(round);
        if (r + 1 == 2)
            rss = peakRssMb();
    }
    checkOrderings(rep, last, def);
    printNipc(last, def, profiles);
    std::fprintf(stderr, "%zu rounds of %zu jobs, cpu/wall-clock (s):",
                 times.size(), last.outputs.size());
    for (std::size_t r = 0; r < times.size(); ++r)
        std::fprintf(stderr, " %.3f/%.3f", times[r], walls[r]);
    std::fprintf(stderr, "\n");

    if (!opt.trace) {
        reportEndToEnd(rep, times,
                       instrPerJob() *
                           static_cast<double>(last.outputs.size()),
                       setup, rss);
        return rep.finish();
    }

    LayerTimes lt;
    SimCounts counts;
    CryptoCosts crypto = measureCrypto();
    tracedSweep(rep, last, lt, counts, clockCostNs());
    lt.expOverheadS = last.wall - last.jobWallSum;
    lt.cryptoShare = counts.cryptoSeconds(crypto) / last.cpu;
    lt.report(rep, crypto);
    counts.report(rep);
    return rep.finish();
}

// ---------------------------------------------------------------------
// secmem-rw: the functional SecureMemory API
// ---------------------------------------------------------------------

/**
 * 16 MB of data: far beyond what the 32 KB counter cache covers
 * (about 2 MB of data) and beyond the 256 KB MAC cache.
 */
constexpr std::size_t kFootprintBytes = 16 << 20;
constexpr std::size_t kBlocks = kFootprintBytes / kBlockBytes;
/** One round: this many (read, read, write) triples. */
constexpr unsigned kTriplesPerRound = 3000;
constexpr unsigned kOpsPerRound = 3 * kTriplesPerRound;
/** Prefill passes in set-up; the median is reported. */
constexpr int kPrefillReps = 5;
/**
 * Seconds of --seconds per round (see roundsFor). Rounds slow down as
 * a run goes on (README.md, Faults); at six rounds a second of
 * --seconds, a run takes about two thirds of --seconds in its rounds
 * and the rest in set-up.
 */
constexpr double kRwNominalRoundS = 1.0 / 6.0;
/** Rounds of a traced pass (fixed, so its counts repeat exactly). */
constexpr int kTracedRounds = 40;
/**
 * Rounds after which the peak resident size is read. The AES and SHA-1
 * engines' slot calendars grow with simulated time (about 60 bytes per
 * op here), in doubling steps, so a reading after however many rounds
 * the run had time for would jump between steps; after a fixed number
 * of ops it repeats. 100 rounds sit mid-way between two steps, and
 * every untraced run makes at least that many. The benchmark's own
 * memory, the shadow copy and the round's buffers, is taken away.
 */
constexpr int kRssRounds = 100;

Block64
randomBlock(std::uint64_t &rng)
{
    Block64 b;
    for (unsigned i = 0; i < kBlockBytes; i += 8) {
        std::uint64_t v = splitmix64(rng);
        std::memcpy(b.b.data() + i, &v, 8);
    }
    return b;
}

/** A prefilled memory and the benchmark's own copy of its contents. */
struct RwState
{
    std::unique_ptr<SecureMemory> mem;
    std::vector<Block64> shadow;
    double buildS = 0;   ///< CPU time of the SecureMemory constructor
    double prefillS = 0; ///< CPU time of construction plus prefill
};

RwState
prefill(std::uint64_t seed)
{
    RwState s;
    double c0 = cpuSeconds();
    s.mem = std::make_unique<SecureMemory>(SecureMemConfig::splitGcm());
    s.buildS = cpuSeconds() - c0;
    s.shadow.resize(kBlocks);
    std::uint64_t rng = seed ^ 0x5eed0f111ull;
    for (std::size_t i = 0; i < kBlocks; ++i) {
        s.shadow[i] = randomBlock(rng);
        s.mem->writeBlock(i * kBlockBytes, s.shadow[i]);
    }
    s.prefillS = cpuSeconds() - c0;
    return s;
}

struct RwLatencies
{
    std::vector<double> readNs;
    std::vector<double> writeNs;
};

/**
 * One round of seeded, uniformly random block operations, reads and
 * writes 2:1 (every third op writes). Drawn before the round is timed;
 * reads' results are kept and checked after it.
 */
struct RwRound
{
    std::vector<std::size_t> block = std::vector<std::size_t>(kOpsPerRound);
    /** Data written, or for a read the data it returned. */
    std::vector<Block64> data = std::vector<Block64>(kOpsPerRound);
    /** For a read, whether it authenticated. */
    std::vector<std::uint8_t> ok = std::vector<std::uint8_t>(kOpsPerRound);

    static bool isWrite(unsigned n) { return n % 3 == 2; }

    /** Bytes of the buffers above. */
    static constexpr std::size_t kBytes =
        kOpsPerRound * (sizeof(std::size_t) + sizeof(Block64) + 1);

    void
    draw(std::uint64_t &rng)
    {
        for (unsigned n = 0; n < kOpsPerRound; ++n) {
            block[n] = splitmix64(rng) % kBlocks;
            if (isWrite(n))
                data[n] = randomBlock(rng);
        }
    }

    /** The timed part: the round's calls, each timed with @p lat. */
    void
    issue(SecureMemory &mem, RwLatencies *lat)
    {
        for (unsigned n = 0; n < kOpsPerRound; ++n) {
            Addr a = block[n] * kBlockBytes;
            Clock::time_point t0 = lat ? Clock::now() : Clock::time_point{};
            if (isWrite(n)) {
                mem.writeBlock(a, data[n]);
            } else {
                data[n] = mem.readBlock(a);
                ok[n] = mem.lastAuthOk();
            }
            if (lat) {
                (isWrite(n) ? lat->writeNs : lat->readNs)
                    .push_back(nsBetween(t0, Clock::now()));
            }
        }
    }

    /**
     * In issue order, compare each read with the shadow copy and apply
     * each write to it; counts the round's operations.
     */
    void
    verify(Report &rep, std::vector<Block64> &shadow,
           std::uint64_t &wrongData, std::uint64_t &authNotOk)
    {
        for (unsigned n = 0; n < kOpsPerRound; ++n) {
            if (isWrite(n)) {
                shadow[block[n]] = data[n];
                continue;
            }
            if (rep.corruptOnce("rw.data"))
                data[n].b[7] ^= 1;
            if (rep.corruptOnce("rw.auth_ok"))
                ok[n] = 0;
            if (!ok[n])
                ++authNotOk;
            else if (data[n] != shadow[block[n]])
                ++wrongData;
        }
        rep.attempted += kOpsPerRound;
    }
};

/** Checks after the timed part; the last one tampers with DRAM. */
void
rwFinalChecks(Report &rep, RwState &s, std::uint64_t seed,
              std::uint64_t wrongData, std::uint64_t authNotOk)
{
    rep.failed += authNotOk;
    if (authNotOk)
        rep.check(true, "rw.auth_ok",
                  std::to_string(authNotOk) +
                      " reads did not authenticate (counted)");
    rep.check(wrongData == 0, "rw.data",
              std::to_string(wrongData) + " reads returned wrong data");
    std::uint64_t failures = s.mem->authFailures();
    if (rep.corruptOnce("rw.auth_failures"))
        failures += 1;
    rep.check(failures == authNotOk, "rw.auth_failures",
              std::to_string(failures) + " verification failures");

    // DRAM ciphertext against the naive reference model, for a sample.
    const SecureMemConfig &cfg = s.mem->config();
    ref::AesNaive naive(cfg.dataKey);
    std::uint64_t rng = seed ^ 0xc1b4e7ull;
    unsigned bad = 0;
    constexpr unsigned kSample = 256;
    for (unsigned n = 0; n < kSample; ++n) {
        std::size_t i = splitmix64(rng) % kBlocks;
        Addr a = i * kBlockBytes;
        Block64 ct = s.mem->dram().readBlock(a);
        if (rep.corruptOnce("rw.ref_ciphertext"))
            ct.b[0] ^= 0x80;
        std::uint64_t ctr = s.mem->controller().counterOf(a);
        bad += ct != ref::encryptBlock(cfg, naive, a, s.shadow[i], ctr, 0);
    }
    rep.check(bad == 0, "rw.ref_ciphertext",
              std::to_string(kSample - bad) + "/" + std::to_string(kSample) +
                  " sampled blocks match the reference encryption");

    // One bit flipped in DRAM must be caught by the next read.
    Addr victim = (splitmix64(rng) % kBlocks) * kBlockBytes;
    s.mem->dram().tamperXor(victim, 9, 0x04);
    s.mem->readBlock(victim);
    bool detected = !s.mem->lastAuthOk();
    if (rep.corruptOnce("rw.tamper_detected"))
        detected = false;
    rep.check(detected, "rw.tamper_detected");
}

/** The controller's whole stats dump. */
std::string
controllerStatsJson(SecureMemory &mem)
{
    obs::StatRegistry reg;
    mem.controller().registerStats(reg);
    return reg.jsonString();
}

/** Add (sign 1) or take away (sign -1) the controller's counts. */
void
countTimedPart(SimCounts &counts, SecureMemory &mem, double sign)
{
    obs::StatRegistry reg;
    mem.controller().registerStats(reg);
    counts.add(reg, mem.controller(), sign);
}

int
runSecmemRw(const Options &opt, Report &rep)
{
    const std::uint64_t seed = opt.seedGiven ? opt.seed : 1;
    activeCryptoBackend();

    std::vector<double> prefills, builds;
    RwState s;
    for (int r = 0; r < kPrefillReps; ++r) {
        // Free the previous pass and hand its pages back, so that the
        // peak resident size is that of one memory, not of how the
        // allocator happened to reuse the last one.
        s = RwState{};
        malloc_trim(0);
        s = prefill(seed);
        prefills.push_back(s.prefillS);
        builds.push_back(s.buildS);
    }
    double setup = median(prefills);

    // The traced pass replays the same prefill and op stream on a
    // second memory, a round after each untraced round, so that slow
    // and fast phases of the host fall on both alike.
    RwState traced;
    if (opt.trace)
        traced = prefill(seed);
    SimCounts counts;
    countTimedPart(counts, *s.mem, -1.0);
    std::uint64_t wrongData = 0, authNotOk = 0, tracedWrong = 0,
                  tracedNotOk = 0;
    std::uint64_t rng = seed, tracedRng = seed;
    RwRound round, tracedRound;
    RwLatencies lat;
    Report tracedRep("");
    std::vector<double> times;
    double untracedS = 0, tracedS = 0, rss = 0;
    const int rounds = opt.trace
                           ? kTracedRounds
                           : roundsFor(opt, kRwNominalRoundS, kRssRounds);
    Clock::time_point start = Clock::now();
    for (int r = 0; moreRounds(r, rounds, start); ++r) {
        round.draw(rng);
        double c0 = cpuSeconds();
        round.issue(*s.mem, nullptr);
        times.push_back(cpuSeconds() - c0);
        round.verify(rep, s.shadow, wrongData, authNotOk);
        untracedS += times.back();
        if (r + 1 == kRssRounds) {
            double own = static_cast<double>(
                s.shadow.size() * sizeof(Block64) + 2 * RwRound::kBytes);
            rss = peakRssMb() - own / (1 << 20);
        }
        if (opt.trace) {
            tracedRound.draw(tracedRng);
            c0 = cpuSeconds();
            tracedRound.issue(*traced.mem, &lat);
            tracedS += cpuSeconds() - c0;
            tracedRound.verify(tracedRep, traced.shadow, tracedWrong,
                               tracedNotOk);
        }
    }
    std::fprintf(stderr, "%zu rounds of %u ops in %.2fs wall-clock; round "
                 "cpu median %.4fs, p90 %.4fs (min %.4fs, max %.4fs); "
                 "prefill cpu median %.3fs\n",
                 times.size(), kOpsPerRound, secondsSince(start),
                 median(times), quantile(times, 0.9),
                 *std::min_element(times.begin(), times.end()),
                 *std::max_element(times.begin(), times.end()),
                 median(prefills));
    countTimedPart(counts, *s.mem, 1.0);
    if (opt.trace) {
        std::string tracedStats = controllerStatsJson(*traced.mem);
        if (rep.corruptOnce("trace.identical"))
            tracedStats += " ";
        rep.check(tracedStats == controllerStatsJson(*s.mem) &&
                      tracedWrong == 0 && tracedNotOk == 0,
                  "trace.identical",
                  "controller stats of the traced pass vs the untraced "
                  "pass");
        traced = RwState{};
    }
    rwFinalChecks(rep, s, seed, wrongData, authNotOk);

    if (!opt.trace) {
        reportEndToEnd(rep, times, kOpsPerRound, setup, rss);
        return rep.finish();
    }
    LayerTimes lt;
    CryptoCosts crypto = measureCrypto();
    lt.systemBuildMs = median(builds) * 1e3;
    lt.prefillUs = median(prefills) * 1e6 / kBlocks;
    lt.readP50Us = quantile(lat.readNs, 0.50) * 1e-3;
    lt.readP99Us = quantile(lat.readNs, 0.99) * 1e-3;
    lt.writeP50Us = quantile(lat.writeNs, 0.50) * 1e-3;
    lt.writeP99Us = quantile(lat.writeNs, 0.99) * 1e-3;
    lt.cryptoShare = counts.cryptoSeconds(crypto) / untracedS;
    lt.traceOverhead = tracedS / untracedS - 1.0;
    lt.report(rep, crypto);
    counts.report(rep);
    return rep.finish();
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            opt.seedGiven = true;
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return false;
            opt.trace = v == "1";
        } else if (a == "--corrupt") {
            opt.corrupt = v;
        } else {
            return false;
        }
        if (end && (end == v.c_str() || *end))
            return false;
    }
    return opt.workload == "enc-sweep" || opt.workload == "auth-sweep" ||
           opt.workload == "secmem-rw";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload enc-sweep|auth-sweep|"
                     "secmem-rw [--seed N] [--seconds S] [--trace 0|1] "
                     "[--corrupt CHECK]\n");
        return 2;
    }
    Report rep(opt.corrupt);
    if (opt.workload == "secmem-rw")
        return runSecmemRw(opt, rep);
    return runSweep(opt, rep);
}
