/**
 * @file
 * The repository's benchmark driver: runs one workload for a wall-time
 * budget and prints one JSON document (the last line of stdout) with
 * its end-to-end metrics (--trace 0) or its per-layer ledger
 * (--trace 1), the output checks, and what ran.  perfbench/run.py
 * builds this binary, validates the document and prints the result
 * line; see perfbench/README.md for the workloads and metrics.
 *
 * A repetition ("rep") builds a fresh System (setup), runs a warm-up
 * window and the measured window, collects, then stops injection and
 * drains.  Every rep of one seed must produce identical modelled
 * results; host-time rates come from the fastest window slice (see
 * Slice).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--window-scale F] [--spans PATH]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/paper_ref.h"
#include "analysis/report.h"
#include "common/config.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "host/experiment.h"
#include "host/system.h"

// ----- heap allocation counting (measured window only) -----

namespace {

std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gAllocBytes{0};

void
noteAlloc(std::size_t n)
{
    if (gCountAllocs.load(std::memory_order_relaxed)) {
        gAllocs.fetch_add(1, std::memory_order_relaxed);
        gAllocBytes.fetch_add(n, std::memory_order_relaxed);
    }
}

}  // namespace

// The array and nothrow forms of libstdc++ forward to these two.
void *
operator new(std::size_t n)
{
    noteAlloc(n);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    noteAlloc(n);
    const std::size_t a = static_cast<std::size_t>(al);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace hmcsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}


// ----- workloads -----

struct Workload {
    std::string name;
    /** Config overrides over the AC-510 defaults. */
    std::vector<std::string> overrides;
    WorkloadSpec traffic;
    std::uint32_t portsPerHost = 9;
    Tick warmup = 0;
    Tick window = 0;
    /** Serial-engine twin whose modelled results must be identical
     *  (empty for serial workloads). */
    std::string twin;
    /** Traffic must reach every cube of the chain. */
    bool spreadOverCubes = false;
};

const std::vector<std::string> kRing8 = {
    "hmc.num_cubes=8", "hmc.chain_topology=ring",
    "hmc.chain_routing=static", "hmc.power_enabled=false"};

/** Workload @p name with its simulated windows scaled by @p scale. */
Workload
makeWorkload(const std::string &name, double scale)
{
    Workload w;
    w.name = name;
    w.traffic.type = "gups";
    w.traffic.kind = ReqKind::ReadOnly;
    w.traffic.patternVaults = 16;
    w.traffic.patternBanks = 16;
    if (name == "paper_gups_128B") {
        // Fig. 6 peak: one AC-510 cube, power model on (the default).
        w.overrides = {"hmc.power_enabled=true"};
        w.traffic.requestBytes = 128;
        w.warmup = 20 * kMicrosecond;
        w.window = 500 * kMicrosecond;
    } else if (name == "ring8_spread_gups" ||
               name == "ring8_spread_gups_par4") {
        w.overrides = kRing8;
        w.traffic.requestBytes = 32;
        w.warmup = 20 * kMicrosecond;
        w.window = 300 * kMicrosecond;
        w.spreadOverCubes = true;
        if (name == "ring8_spread_gups_par4") {
            w.overrides.push_back("sim.parallel=on");
            w.overrides.push_back("sim.threads=4");
            w.twin = "ring8_spread_gups";
        }
    } else if (name == "ring4_2host_zipf_rw") {
        w.overrides = {"hmc.num_cubes=4", "hmc.chain_topology=ring",
                       "hmc.chain_routing=static", "host.num_hosts=2",
                       "hmc.power_enabled=false"};
        w.traffic.type = "zipf";
        w.traffic.zipfDomain = "cube";
        w.traffic.zipfTheta = 0.99;
        w.traffic.requestBytes = 32;
        w.traffic.writeFraction = 0.5;
        w.traffic.inject = "open";
        // The accepted rate collapses between 0.020 and 0.024 req/ns
        // per port; 0.016 keeps p99 a queueing measure, not a backlog.
        w.traffic.ratePerNs = 0.016;
        w.warmup = 20 * kMicrosecond;
        w.window = 200 * kMicrosecond;
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    w.warmup = static_cast<Tick>(static_cast<double>(w.warmup) * scale);
    w.window = static_cast<Tick>(static_cast<double>(w.window) * scale);
    return w;
}

/**
 * Resolve @p w's config with the given obs knobs.  Every override must
 * survive the round trip through SystemConfig, since an unknown key
 * would otherwise be dropped without a word.
 */
SystemConfig
resolveConfig(const Workload &w, bool anatomy, bool profile)
{
    Config c;
    c.applyOverrides(w.overrides);
    SystemConfig sc = SystemConfig::fromConfig(c);
    sc.obs.anatomy = anatomy;
    sc.obs.profile = profile;
    // 1 ns phase bins, so anatomy percentiles resolve single cycles.
    sc.obs.anatomyHistNs = 20000;
    sc.obs.anatomyHistBins = 20000;
    Config back;
    sc.toConfig(back);
    for (const std::string &key : c.keys()) {
        if (!back.has(key) || back.getString(key) != c.getString(key))
            throw std::runtime_error("workload " + w.name +
                                     ": override '" + key +
                                     "' did not take effect");
    }
    return sc;
}

// ----- spans (traced runs only) -----

struct Span {
    int rep;
    std::string name;
    std::string variant;
    double start;
    double end;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point t0) : t0_(t0) {}

    /** Time @p fn as span @p name of rep @p rep. */
    template <typename Fn>
    void
    time(int rep, const char *name, const std::string &variant, Fn &&fn)
    {
        const double start = secondsSince(t0_);
        fn();
        spans_.push_back({rep, name, variant, start, secondsSince(t0_)});
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i ? ",\n  " : "\n  ") << "{\"rep\": " << s.rep
                << ", \"name\": \"" << s.name << "\", \"variant\": \""
                << jsonEscape(s.variant)
                << "\", \"start_s\": " << jsonNumber(s.start)
                << ", \"end_s\": " << jsonNumber(s.end) << "}";
        }
        out << "\n]}\n";
        if (!out)
            throw std::runtime_error("cannot write spans to " + path);
    }

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

// ----- one repetition -----

/** Simulated results that must repeat exactly for one seed. */
struct Modelled {
    double bandwidthGBs = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    double maxReadNs = 0.0;
    std::uint64_t readSamples = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double avgChainHops = 0.0;
    std::vector<std::uint64_t> servedPerCube;

    bool
    operator==(const Modelled &o) const
    {
        return bandwidthGBs == o.bandwidthGBs && p50Ns == o.p50Ns &&
            p99Ns == o.p99Ns && maxReadNs == o.maxReadNs &&
            readSamples == o.readSamples && reads == o.reads &&
            writes == o.writes && avgChainHops == o.avgChainHops &&
            servedPerCube == o.servedPerCube;
    }
};

/**
 * One slice of a measured window.  Host-time rates are the fastest
 * slice's.  The machines this runs on share their last-level cache
 * with other tenants, which can halve the simulator's speed for
 * stretches of 1 to 60 s, and contention only ever slows a slice down.
 * Across 12 to 25 s runs on a 4-vCPU Xeon VM, the quartile spread of
 * run medians was 0.15 to 0.5 of their median; that of the fastest
 * slice was 0.04 to 0.17.
 */
struct Slice {
    double ns = 0.0;
    double sec = 0.0;
    std::uint64_t events = 0;
    std::uint64_t completions = 0;
};

constexpr int kSlicesPerWindow = 20;

struct Rep {
    double windowSec = 0.0;
    double cpuSec = 0.0;
    double windowNs = 0.0;
    std::uint64_t events = 0;
    std::uint64_t issued = 0;
    std::uint64_t unanswered = 0;
    double offered = 0.0;
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    Modelled modelled;
    ExperimentResult result;
    std::map<std::string, double> stats;
    std::vector<AnatomyWaterfallRow> anatomy;
    std::map<std::string, double> profileSec;
    std::vector<Slice> slices;

    std::uint64_t completed() const { return modelled.reads + modelled.writes; }
};

constexpr double kLatHistHiNs = 20000.0;
constexpr std::size_t kLatHistBins = 20000;  // 1 ns bins
constexpr Tick kDrainLimit = 200 * kMicrosecond;

Modelled
modelledOf(System &sys, const ExperimentResult &r)
{
    Modelled m;
    m.bandwidthGBs = r.bandwidthGBs;
    m.reads = r.totalReads;
    m.writes = r.totalWrites;
    m.avgChainHops = r.avgChainHops;
    m.maxReadNs = r.maxReadLatencyNs;
    Histogram merged(0.0, kLatHistHiNs, kLatHistBins);
    for (HostId h = 0; h < sys.numHosts(); ++h)
        for (PortId p = 0; p < sys.fpga(h).numPorts(); ++p)
            if (const Histogram *hist = sys.portAt(h, p).monitor().histogram())
                merged.merge(*hist);
    m.readSamples = merged.total();
    m.p50Ns = merged.percentile(50.0);
    m.p99Ns = merged.percentile(99.0);
    for (const CubeStats &c : r.cubes)
        m.servedPerCube.push_back(c.requestsServed);
    return m;
}

/** Setup: build @p cfg's System and configure @p w's ports.  Ports
 *  get WorkloadSpec seeds derived from the workload seed only. */
std::unique_ptr<System>
buildSystem(const Workload &w, const SystemConfig &cfg, std::uint64_t seed)
{
    auto sys = std::make_unique<System>(cfg);
    for (HostId h = 0; h < sys->numHosts(); ++h)
        for (PortId p = 0; p < w.portsPerHost; ++p) {
            WorkloadSpec spec = w.traffic;
            spec.seed = mixSeeds(mixSeeds(seed, h), p);
            sys->configureWorkloadAt(h, p, spec);
        }
    return sys;
}

/** One repetition of @p w on @p cfg; @p spans (traced runs) records
 *  the rep's calls into the library. */
Rep
runRep(const Workload &w, const SystemConfig &cfg, std::uint64_t seed,
       bool countAllocs, SpanLog *spans, int repId,
       const std::string &variant)
{
    Rep rep;
    const auto span = [&](const char *name, auto &&fn) {
        if (spans)
            spans->time(repId, name, variant, fn);
        else
            fn();
    };

    std::unique_ptr<System> sys;
    span("setup", [&] { sys = buildSystem(w, cfg, seed); });
    for (HostId h = 0; h < sys->numHosts(); ++h)
        for (PortId p = 0; p < w.portsPerHost; ++p)
            sys->portAt(h, p).monitor().enableHistogram(0.0, kLatHistHiNs,
                                                        kLatHistBins);

    span("warmup", [&] { sys->run(w.warmup); });

    sys->resetStats();
    if (Observability *obs = sys->obs()) {
        if (obs->anatomy())
            obs->anatomy()->reset();
        if (obs->profiler())
            obs->profiler()->reset();
    }
    const auto completions = [&] {
        std::uint64_t n = 0;
        for (HostId h = 0; h < sys->numHosts(); ++h)
            for (PortId p = 0; p < w.portsPerHost; ++p)
                n += sys->portAt(h, p).monitor().accesses();
        return n;
    };
    const std::uint64_t events0 = sys->kernel().eventsExecuted();
    const double cpu0 = cpuSeconds();
    gAllocs = 0;
    gAllocBytes = 0;
    gCountAllocs = countAllocs;
    const Clock::time_point windowStart = Clock::now();
    span("window", [&] {
        const Tick slice = std::max<Tick>(1, w.window / kSlicesPerWindow);
        for (Tick done = 0; done < w.window; done += slice) {
            const Tick step = std::min(slice, w.window - done);
            const std::uint64_t e0 = sys->kernel().eventsExecuted();
            const std::uint64_t c0 = completions();
            const Clock::time_point t = Clock::now();
            sys->run(step);
            rep.slices.push_back({ticksToNs(step), secondsSince(t),
                                  sys->kernel().eventsExecuted() - e0,
                                  completions() - c0});
        }
    });
    rep.windowSec = secondsSince(windowStart);
    gCountAllocs = false;
    rep.allocs = gAllocs;
    rep.allocBytes = gAllocBytes;
    rep.cpuSec = cpuSeconds() - cpu0;
    rep.events = sys->kernel().eventsExecuted() - events0;
    rep.windowNs = ticksToNs(w.window);

    span("collect", [&] {
        rep.result = collectResult(*sys, w.window);
        rep.stats = sys->stats();
        rep.modelled = modelledOf(*sys, rep.result);
        if (Observability *obs = sys->obs()) {
            if (obs->anatomy())
                rep.anatomy = obs->anatomy()->waterfall();
            if (obs->profiler())
                rep.profileSec = obs->profiler()->classSeconds();
        }
        for (HostId h = 0; h < sys->numHosts(); ++h)
            for (PortId p = 0; p < w.portsPerHost; ++p)
                rep.issued += sys->portAt(h, p).issuedRequests();
        rep.offered = rep.result.totalOfferedRequests;
    });

    // Stop injection and drain: every issued request must be answered.
    span("drain", [&] {
        for (HostId h = 0; h < sys->numHosts(); ++h)
            for (PortId p = 0; p < w.portsPerHost; ++p)
                sys->portAt(h, p).setActive(false);
        if (!sys->runUntilIdle(kDrainLimit)) {
            std::uint64_t inFlight = 0;
            for (HostId h = 0; h < sys->numHosts(); ++h)
                for (PortId p = 0; p < w.portsPerHost; ++p)
                    if (const auto *wp = dynamic_cast<const WorkloadPort *>(
                            &sys->portAt(h, p)))
                        inFlight += wp->inFlight();
            rep.unanswered = std::max<std::uint64_t>(inFlight, 1);
        }
    });
    return rep;
}

/** Time @p n bare setups (System construction + port configuration). */
std::vector<double>
timeSetups(const Workload &w, const SystemConfig &cfg, std::uint64_t seed,
           int n)
{
    std::vector<double> out;
    for (int i = 0; i < n; ++i) {
        const Clock::time_point t0 = Clock::now();
        const std::unique_ptr<System> sys = buildSystem(w, cfg, seed);
        out.push_back(secondsSince(t0));
    }
    return out;
}

// ----- checks -----

struct Checks {
    std::vector<std::string> failures;
    std::uint64_t unanswered = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** Per-rep checks: drained, histograms in range, traffic everywhere. */
void
checkRep(Checks &chk, const Workload &w, const Rep &r)
{
    chk.unanswered += r.unanswered;
    chk.expect(r.unanswered == 0,
               "requests left unanswered after the drain");
    chk.expect(r.completed() > 0, "no request completed in the window");
    chk.expect(r.modelled.maxReadNs < kLatHistHiNs,
               "read latency beyond the histogram range");
    chk.expect(r.modelled.readSamples == r.modelled.reads,
               "histogram samples differ from completed reads");
    if (w.spreadOverCubes) {
        const auto &served = r.modelled.servedPerCube;
        chk.expect(std::count(served.begin(), served.end(), 0) == 0,
                   "not every cube of the chain served requests");
    }
}

void
checkSame(Checks &chk, const Modelled &a, const Modelled &b,
          const std::string &what)
{
    chk.expect(a == b, "modelled results differ: " + what);
}

// ----- metrics -----

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Sum of the stats whose path ends in @p suffix and contains
 *  @p contains. */
double
statSum(const std::map<std::string, double> &stats,
        const std::string &suffix, const std::string &contains = "")
{
    double sum = 0.0;
    for (const auto &[path, v] : stats)
        if (endsWith(path, suffix) && path.find(contains) != std::string::npos)
            sum += v;
    return sum;
}

double
statMax(const std::map<std::string, double> &stats,
        const std::string &suffix)
{
    double best = 0.0;
    for (const auto &[path, v] : stats)
        if (endsWith(path, suffix))
            best = std::max(best, v);
    return best;
}

const AnatomyWaterfallRow &
phase(const Rep &r, AnatomyPhase p)
{
    const std::size_t i = static_cast<std::size_t>(p);
    if (r.anatomy.size() <= i)
        throw std::runtime_error("traced rep carries no latency anatomy");
    return r.anatomy[i];
}

template <typename Fn>
double
medianOver(const std::vector<Rep> &reps, Fn &&fn)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        v.push_back(fn(r));
    return median(v);
}

/** The highest rate @p fn over every window slice of @p reps. */
template <typename Fn>
double
sliceRate(const std::vector<Rep> &reps, Fn &&fn)
{
    double best = 0.0;
    for (const Rep &r : reps)
        for (const Slice &c : r.slices)
            best = std::max(best, fn(c));
    return best;
}

double
simNsPerSec(const std::vector<Rep> &reps)
{
    return sliceRate(reps, [](const Slice &c) { return c.ns / c.sec; });
}

/** Slice count, min/q1/median/q3/max of the slices' simulated ns per
 *  wall second, and the read-latency sample count, as a JSON object. */
std::string
detailJson(const std::vector<Rep> &reps)
{
    std::vector<double> v;
    for (const Rep &r : reps)
        for (const Slice &c : r.slices)
            v.push_back(c.ns / c.sec);
    std::sort(v.begin(), v.end());
    const auto at = [&](double q) {
        return jsonNumber(v[static_cast<std::size_t>(q * (v.size() - 1))]);
    };
    return "{\"slices\": " + std::to_string(v.size()) +
        ", \"sim_ns_per_s_min_q1_med_q3_max\": [" + at(0) + ", " +
        at(0.25) + ", " + at(0.5) + ", " + at(0.75) + ", " + at(1) +
        "], \"read_latency_samples_per_rep\": " +
        std::to_string(reps.front().modelled.readSamples) + "}";
}

double
profNsPerEvent(const Rep &r, const std::string &cls)
{
    const auto it = r.profileSec.find(cls);
    const double sec = it == r.profileSec.end() ? 0.0 : it->second;
    return 1e9 * sec / static_cast<double>(r.events);
}

double
paperBwErrPct(double bandwidthGBs)
{
    return 100.0 * std::abs(bandwidthGBs - paper::kFig6MaxBandwidthGBs) /
        paper::kFig6MaxBandwidthGBs;
}

std::vector<Metric>
endToEnd(const std::vector<Rep> &reps, const std::vector<double> &setups,
         double rssMb, double paperErr)
{
    const Modelled &m = reps.front().modelled;
    return {
        {"sim_ns_per_s", simNsPerSec(reps), "sim_ns/s"},
        {"events_per_s", sliceRate(reps, [](const Slice &c) {
             return static_cast<double>(c.events) / c.sec;
         }),
         "events/s"},
        {"requests_per_s", sliceRate(reps, [](const Slice &c) {
             return static_cast<double>(c.completions) / c.sec;
         }),
         "req/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rssMb, "MB"},
        {"bandwidth_gbs", m.bandwidthGBs, "GB/s"},
        {"read_lat_p50_ns", m.p50Ns, "sim_ns"},
        {"read_lat_p99_ns", m.p99Ns, "sim_ns"},
        {"paper_bw_err_pct", paperErr, "%"},
    };
}

/**
 * The per-layer ledger.  @p untraced / @p traced are the workload's own
 * reps; @p profiled carries the profiler classes (the serial twin's
 * traced reps when the workload runs the parallel engine, which
 * rejects obs.profile); @p twinUntraced is empty for serial workloads.
 */
std::vector<Metric>
perLayer(const std::vector<Rep> &untraced, const std::vector<Rep> &traced,
         const std::vector<Rep> &profiled,
         const std::vector<Rep> &twinUntraced)
{
    const Rep &u = untraced.front();
    const Rep &t = traced.front();
    const double req = static_cast<double>(u.completed());
    const auto &s = u.stats;
    const double untracedSpeed = simNsPerSec(untraced);
    const double tracedSpeed = simNsPerSec(traced);
    const double speedup = twinUntraced.empty()
        ? 1.0
        : untracedSpeed / simNsPerSec(twinUntraced);
    const auto prof = [&](const std::string &cls) {
        return medianOver(profiled, [&](const Rep &r) {
            return profNsPerEvent(r, cls);
        });
    };
    const double unattributed = medianOver(profiled, [](const Rep &r) {
        double attributed = 0.0;
        for (const auto &[cls, sec] : r.profileSec)
            attributed += sec;
        return 1e9 * (r.windowSec - attributed) /
            static_cast<double>(r.events);
    });
    const double rowHits = statSum(s, ".mem.row_hits");
    const double rowMisses = statSum(s, ".mem.row_misses");
    const double accepted = u.offered > 0.0
        ? static_cast<double>(u.issued) / u.offered
        : 1.0;  // closed loop: every generated request is accepted
    using P = AnatomyPhase;
    return {
        {"sim.events_per_sim_us",
         static_cast<double>(u.events) / (u.windowNs / 1000.0),
         "events/sim_us"},
        {"sim.allocs_per_event", medianOver(untraced, [](const Rep &r) {
             return static_cast<double>(r.allocs) /
                 static_cast<double>(r.events);
         }),
         "allocs/event"},
        {"sim.alloc_bytes_per_event", medianOver(untraced, [](const Rep &r) {
             return static_cast<double>(r.allocBytes) /
                 static_cast<double>(r.events);
         }),
         "B/event"},
        {"sim.cpu_per_wall",
         medianOver(untraced,
                    [](const Rep &r) { return r.cpuSec / r.windowSec; }),
         "cpu_s/s"},
        {"sim.parallel_speedup", speedup, "x"},
        {"sim.unattributed_ns_per_event", unattributed, "ns/event"},
        {"host.tick_ns_per_event", prof("host.tick"), "ns/event"},
        {"host.queue_p99_ns", phase(t, P::HostQueue).p99Ns, "sim_ns"},
        {"host.drain_p99_ns", phase(t, P::HostDrain).p99Ns, "sim_ns"},
        {"host.accepted_per_offered", accepted, "ratio"},
        {"hmc.serdes_ns_per_event", prof("serdes"), "ns/event"},
        {"hmc.vault_ns_per_event", prof("vault"), "ns/event"},
        {"hmc.link_flits_per_req",
         (statSum(s, ".up_flits") + statSum(s, ".down_flits")) / req,
         "flits/req"},
        {"hmc.crc_retries", statSum(s, ".crc_retries"), "count"},
        {"hmc.link_serialize_p99_ns", phase(t, P::LinkSerialize).p99Ns,
         "sim_ns"},
        {"hmc.resp_return_p99_ns", phase(t, P::RespReturn).p99Ns,
         "sim_ns"},
        {"hmc.vault_queue_mean_ns", phase(t, P::VaultQueue).meanNs,
         "sim_ns"},
        {"hmc.vault_queue_p99_ns", phase(t, P::VaultQueue).p99Ns,
         "sim_ns"},
        {"hmc.peak_bank_queue", statMax(s, ".peak_bank_queue"), "count"},
        {"chain.ns_per_event", prof("chain"), "ns/event"},
        {"chain.hops_per_read", u.modelled.avgChainHops, "hops/read"},
        {"chain.fwd_flits_per_req", statSum(s, ".fwd.fwd_flits") / req,
         "flits/req"},
        {"chain.rx_hol_stalls_per_req",
         statSum(s, ".fwd.rx_hol_stalls") / req, "stalls/req"},
        {"chain.queue_full_stalls_per_req",
         statSum(s, ".fwd.queue_full_stalls") / req, "stalls/req"},
        {"chain.misroutes", statSum(s, ".fwd.misroutes"), "count"},
        {"chain.fwd_req_mean_ns", phase(t, P::ChainFwdReq).meanNs,
         "sim_ns"},
        {"chain.fwd_req_p99_ns", phase(t, P::ChainFwdReq).p99Ns, "sim_ns"},
        {"noc.flits_per_req", statSum(s, ".flits", ".noc.router") / req,
         "flits/req"},
        {"noc.request_p99_ns", phase(t, P::NocRequest).p99Ns, "sim_ns"},
        {"dram.row_hit_ratio", rowHits / std::max(1.0, rowHits + rowMisses),
         "ratio"},
        {"dram.activates_per_req", statSum(s, ".mem.activates") / req,
         "act/req"},
        {"dram.service_mean_ns", phase(t, P::DramService).meanNs,
         "sim_ns"},
        {"dram.service_p99_ns", phase(t, P::DramService).p99Ns, "sim_ns"},
        {"power.energy_pj_per_req", u.result.energyPj / req, "pJ/req"},
        {"obs.trace_overhead_pct", 100.0 * (1.0 - tracedSpeed / untracedSpeed),
         "%"},
    };
}

// ----- output -----

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
configJson(const SystemConfig &cfg)
{
    Config c;
    cfg.toConfig(c);
    std::string out = "{";
    bool first = true;
    for (const std::string &k : c.keys()) {
        out += (first ? "" : ", ") + quoted(k) + ": " +
            quoted(c.getString(k));
        first = false;
    }
    return out + "}";
}

unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return static_cast<unsigned>(CPU_COUNT(&set));
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    double windowScale = 1.0;
    std::string spansPath;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::stoull(val);
        else if (key == "--seconds")
            a.seconds = std::stod(val);
        else if (key == "--trace")
            a.trace = val == "1";
        else if (key == "--window-scale")
            a.windowScale = std::stod(val);
        else if (key == "--spans")
            a.spansPath = val;
        else
            throw std::runtime_error("unknown argument " + key);
    }
    if (a.workload.empty())
        throw std::runtime_error("--workload is required");
    if (!(a.seconds > 0.0) || !(a.windowScale > 0.0))
        throw std::runtime_error("--seconds and --window-scale must be > 0");
    return a;
}

constexpr int kMinReps = 3;
/** Setup samples are timed in batches spread over the run, a fixed
 *  number of batches, so their count does not depend on how fast the
 *  reps run. */
constexpr int kSetupBatches = 16;
constexpr int kSetupsPerBatch = 8;

}  // namespace

int
main(int argc, char **argv)
{
    try {
        Logger::setLevel(LogLevel::Warn);
        const Args args = parseArgs(argc, argv);
        const Workload w = makeWorkload(args.workload, args.windowScale);
        const bool parallel = !w.twin.empty();
        const Workload twin =
            parallel ? makeWorkload(w.twin, args.windowScale) : w;

        const Clock::time_point t0 = Clock::now();
        SpanLog spanLog(t0);
        SpanLog *spans = args.trace ? &spanLog : nullptr;
        Checks chk;
        int repId = 0;

        const SystemConfig plainCfg = resolveConfig(w, false, false);
        const auto run = [&](const Workload &wl, const SystemConfig &cfg,
                             bool countAllocs, const std::string &variant) {
            Rep r = runRep(wl, cfg, args.seed, countAllocs, spans, repId++,
                           variant);
            checkRep(chk, wl, r);
            return r;
        };
        // A phase runs at least kMinReps loop iterations, then more while
        // one as long as the last still ends before @p until.
        double iterStart = -1.0;
        const auto budgetLeft = [&](double until, std::size_t reps) {
            const double now = secondsSince(t0);
            const double lastIter = iterStart < 0.0 ? 0.0 : now - iterStart;
            iterStart = now;
            return reps < kMinReps || now + lastIter <= until;
        };

        std::vector<Metric> metrics;
        std::string detail = "null";
        std::uint64_t attempted = 0;
        if (!args.trace) {
            std::vector<double> setups;
            double nextSetupBatch = 0.0;
            std::vector<Rep> twinReps;
            if (parallel)
                twinReps.push_back(run(twin, resolveConfig(twin, false, false),
                                       false, "serial_twin"));
            std::vector<Rep> measured;
            double rss = 0.0;
            while (budgetLeft(args.seconds, measured.size())) {
                if (secondsSince(t0) >= nextSetupBatch) {
                    const std::vector<double> batch = timeSetups(
                        w, plainCfg, args.seed, kSetupsPerBatch);
                    setups.insert(setups.end(), batch.begin(), batch.end());
                    nextSetupBatch += args.seconds / kSetupBatches;
                }
                measured.push_back(run(w, plainCfg, false, "untraced"));
                // Peak of one whole rep; later reps only add heap
                // fragmentation noise.
                if (measured.size() == 1)
                    rss = peakRssMb();
            }
            for (const Rep &r : measured) {
                checkSame(chk, measured.front().modelled, r.modelled,
                          "between reps of one seed");
                attempted += r.issued;
            }
            if (parallel)
                checkSame(chk, twinReps.front().modelled,
                          measured.front().modelled,
                          "parallel engine vs its serial twin");
            double paperErr = 0.0;
            if (w.name == "paper_gups_128B") {
                paperErr = paperBwErrPct(measured.front().modelled.bandwidthGBs);
            } else {
                // Model accuracy at the fig. 6 reference point, run
                // untimed so every workload reports the same figure.
                const Workload paper =
                    makeWorkload("paper_gups_128B", args.windowScale);
                paperErr = paperBwErrPct(
                    run(paper, resolveConfig(paper, false, false), false,
                        "paper_reference")
                        .modelled.bandwidthGBs);
            }
            metrics = endToEnd(measured, setups, rss, paperErr);
            detail = detailJson(measured);
        } else {
            // Untraced half of the budget, then traced half.  A parallel
            // workload interleaves its serial twin in both halves: the
            // twin gives the speedup and the profiler classes the
            // parallel engine cannot record.
            const SystemConfig twinPlain = resolveConfig(twin, false, false);
            const SystemConfig tracedCfg =
                resolveConfig(w, true, !parallel);
            const SystemConfig twinTraced = resolveConfig(twin, true, true);
            std::vector<Rep> untraced, traced, twinU, twinT;
            const double half = args.seconds / 2.0;
            while (budgetLeft(half, untraced.size())) {
                untraced.push_back(run(w, plainCfg, true, "untraced"));
                if (parallel)
                    twinU.push_back(
                        run(twin, twinPlain, true, "untraced_serial_twin"));
            }
            while (budgetLeft(args.seconds, traced.size())) {
                traced.push_back(run(w, tracedCfg, false, "traced"));
                if (parallel)
                    twinT.push_back(
                        run(twin, twinTraced, false, "traced_serial_twin"));
            }
            for (const auto *set : {&untraced, &traced, &twinU, &twinT}) {
                for (const Rep &r : *set) {
                    checkSame(chk, untraced.front().modelled, r.modelled,
                              "traced/untraced/twin reps of one seed");
                    attempted += r.issued;
                }
            }
            metrics = perLayer(untraced, traced, parallel ? twinT : traced,
                               twinU);
        }

        if (spans && !args.spansPath.empty())
            spanLog.write(args.spansPath);

        const std::uint64_t failed =
            chk.unanswered + (chk.failures.empty() ? 0 : 1);
        std::ostringstream out;
        out << "{\"workload\": " << quoted(w.name)
            << ", \"seed\": " << args.seed
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"seconds\": " << jsonNumber(args.seconds)
            << ", \"reps\": " << repId
            << ", \"warmup_ns\": " << jsonNumber(ticksToNs(w.warmup))
            << ", \"window_ns\": " << jsonNumber(ticksToNs(w.window))
            << ", \"drain_limit_ns\": " << jsonNumber(ticksToNs(kDrainLimit))
            << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"nproc\": " << affinityCpus()
            << ", \"hw_threads\": " << std::thread::hardware_concurrency()
            << ", \"config\": " << configJson(plainCfg)
            << ", \"detail\": " << detail
            << ", \"correct\": " << (chk.failures.empty() ? "true" : "false")
            << ", \"check_failures\": [";
        for (std::size_t i = 0; i < chk.failures.size(); ++i)
            out << (i ? ", " : "") << quoted(chk.failures[i]);
        out << "], \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i)
            out << (i ? ", " : "") << quoted(metrics[i].name)
                << ": {\"value\": " << jsonNumber(metrics[i].value)
                << ", \"unit\": " << quoted(metrics[i].unit) << "}";
        out << "}}";
        std::cout << out.str() << std::endl;
        return failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
