/**
 * @file
 * Determinism guarantees of the partitioned-parallel event core
 * (`sim.parallel=on`): the conservative-lookahead engine is a pure
 * scheduling substitution, so a chain experiment must produce results
 * identical to the serial calendar engine -- same counts, identical
 * latency statistics, same total event count -- for every thread
 * count, including 1.  A second family of tests pins the gating
 * matrix: configurations the parallel engine cannot run bit-exactly
 * are rejected up front, never silently degraded.
 */

#include <gtest/gtest.h>

#include <functional>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "host/experiment.h"
#include "host/system.h"
#include "sim/parallel_scheduler.h"

namespace hmcsim {
namespace {

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.totalReads, b.totalReads);
    EXPECT_EQ(a.totalWrites, b.totalWrites);
    EXPECT_EQ(a.totalWireBytes, b.totalWireBytes);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.minReadLatencyNs, b.minReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.maxReadLatencyNs, b.maxReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.stddevReadLatencyNs, b.stddevReadLatencyNs);
    EXPECT_DOUBLE_EQ(a.avgChainHops, b.avgChainHops);
    EXPECT_EQ(a.totalChainTransitFlits, b.totalChainTransitFlits);
    ASSERT_EQ(a.ports.size(), b.ports.size());
    for (std::size_t i = 0; i < a.ports.size(); ++i) {
        EXPECT_EQ(a.ports[i].reads, b.ports[i].reads);
        EXPECT_EQ(a.ports[i].wireBytes, b.ports[i].wireBytes);
        EXPECT_DOUBLE_EQ(a.ports[i].avgReadNs, b.ports[i].avgReadNs);
    }
}

/** A 4-cube ring chain the parallel engine can run bit-exactly. */
SystemConfig
chainBase()
{
    SystemConfig cfg;
    cfg.hmc.chain.numCubes = 4;
    cfg.hmc.chain.topology = "ring";
    // The power probes aggregate across cubes mid-run, which the
    // partitioned engine gates off (see SystemConfig::validate).
    cfg.hmc.power.enabled = false;
    return cfg;
}

SystemConfig
parallelBase(std::uint64_t threads)
{
    SystemConfig cfg = chainBase();
    cfg.sim.parallel = "on";
    cfg.sim.threads = threads;
    return cfg;
}

/**
 * The fig06 chain ingredient (9-port GUPS), replicated from
 * runGups() with the System held locally so the kernel's total event
 * count comes back alongside the stats.
 */
std::pair<ExperimentResult, std::uint64_t>
gupsSliceWithEvents(const SystemConfig &cfg)
{
    System sys(cfg);
    GupsSpec spec;
    spec.requestBytes = 64;
    spec.numVaults = 16;
    spec.numBanks = 16;
    spec.warmup = 4 * kMicrosecond;
    spec.window = 10 * kMicrosecond;

    const AddressPattern pattern = sys.addressMap().pattern(
        spec.numVaults, spec.numBanks, spec.baseVault, spec.baseBank);
    for (PortId p = 0; p < spec.activePorts; ++p) {
        GupsPortSpec gp;
        gp.kind = spec.kind;
        gp.gen.mode = spec.mode;
        gp.gen.pattern = pattern;
        gp.gen.requestBytes = spec.requestBytes;
        gp.gen.capacity = cfg.hmc.totalCapacityBytes();
        gp.gen.seed = spec.seed * 7919 + p;
        sys.configureGupsPort(p, gp);
    }
    sys.run(spec.warmup);
    ExperimentResult res = sys.measure(spec.window);
    return {std::move(res), sys.kernel().eventsExecuted()};
}

ExperimentResult
streamSlice(const SystemConfig &cfg)
{
    StreamBatchSpec spec;
    spec.batchSize = 64;
    spec.requestBytes = 32;
    spec.vault = 0;
    spec.warmup = 3 * kMicrosecond;
    spec.window = 8 * kMicrosecond;
    return runStreamBatch(cfg, spec);
}

TEST(ParallelIdentity, GupsChainIdenticalAcrossThreadCounts)
{
    const auto serial = gupsSliceWithEvents(chainBase());
    for (const std::uint64_t threads : {1u, 2u, 4u}) {
        const auto par = gupsSliceWithEvents(parallelBase(threads));
        expectIdentical(serial.first, par.first);
        EXPECT_EQ(serial.second, par.second)
            << "event count diverged at sim.threads=" << threads;
    }
}

TEST(ParallelIdentity, StreamChainIdenticalAcrossThreadCounts)
{
    const ExperimentResult serial = streamSlice(chainBase());
    for (const std::uint64_t threads : {1u, 4u})
        expectIdentical(serial, streamSlice(parallelBase(threads)));
}

TEST(ParallelIdentity, ParallelOffIsTheDefaultAndBitIdentical)
{
    // `sim.parallel=off` (the default) must leave the serial engine
    // untouched: an explicit off-config and the untouched default give
    // the same schedule and the same stats.
    SystemConfig def;
    EXPECT_FALSE(def.sim.parallelEnabled());
    SystemConfig off = chainBase();
    off.sim.parallel = "off";
    const auto a = gupsSliceWithEvents(chainBase());
    const auto b = gupsSliceWithEvents(off);
    expectIdentical(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(ParallelIdentity, ConfigRoundTripSelectsParallel)
{
    Config cfg;
    SystemConfig{}.toConfig(cfg);
    cfg.parseString("[sim]\nparallel = on\nthreads = 4\n");
    const SystemConfig parsed = SystemConfig::fromConfig(cfg);
    EXPECT_TRUE(parsed.sim.parallelEnabled());
    EXPECT_EQ(parsed.sim.threads, 4u);

    Config out;
    parsed.toConfig(out);
    EXPECT_EQ(SystemConfig::fromConfig(out).sim.parallel, "on");
}

TEST(ParallelIdentity, StaleEngineKeysFailLoudly)
{
    // The serial engine has no knobs left; an override of a removed
    // key must fail instead of being silently ignored, and the error
    // must point at the keys that exist.
    for (const char *stale :
         {"sim.packet_pool=1", "sim.event_queue=heap",
          "sim.calendar_buckets=256", "sim.parralel=on"}) {
        Config cfg;
        cfg.applyOverrides({stale});
        try {
            SystemConfig::fromConfig(cfg);
            ADD_FAILURE() << stale << " was accepted";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("sim.parallel"), std::string::npos) << msg;
            EXPECT_NE(msg.find("sim.threads"), std::string::npos) << msg;
        }
    }
}

TEST(ParallelIdentity, ParallelSystemReportsPartitions)
{
    System sys(parallelBase(2));
    ASSERT_TRUE(sys.kernel().parallelEnabled());
    ASSERT_NE(sys.kernel().partition(0), nullptr);
    ASSERT_NE(sys.kernel().partition(3), nullptr);
    ASSERT_NE(sys.kernel().globalPartition(), nullptr);
    EXPECT_GT(sys.kernel().parallel()->lookahead(), 0u);
}

TEST(ParallelGating, SingleCubeIsRejected)
{
    SystemConfig cfg;  // numCubes = 1
    cfg.hmc.power.enabled = false;
    cfg.sim.parallel = "on";
    EXPECT_THROW(System{cfg}, FatalError);
}

TEST(ParallelGating, PowerModelIsRejected)
{
    SystemConfig cfg = parallelBase(2);
    cfg.hmc.power.enabled = true;
    EXPECT_THROW(System{cfg}, FatalError);
}

TEST(ParallelGating, CrcErrorInjectionIsRejected)
{
    SystemConfig cfg = parallelBase(2);
    cfg.hmc.crcErrorProb = 0.01;
    EXPECT_THROW(System{cfg}, FatalError);
}

TEST(ParallelGating, ProfilerIsRejected)
{
    SystemConfig cfg = parallelBase(2);
    cfg.obs.profile = true;
    EXPECT_THROW(System{cfg}, FatalError);
}

TEST(ParallelGating, EveryGateNamesRealConfigKeys)
{
    // Each sim.parallel=on gate tells the user which key to change; a
    // key quoted in the message must be one the config surface really
    // has, or the advice cannot be followed.
    Config written;
    SystemConfig{}.toConfig(written);
    const std::vector<std::function<void(SystemConfig &)>> gates = {
        [](SystemConfig &c) { c.hmc.chain.numCubes = 1; },
        [](SystemConfig &c) { c.hmc.power.enabled = true; },
        [](SystemConfig &c) { c.hmc.crcErrorProb = 0.01; },
        [](SystemConfig &c) { c.obs.profile = true; },
        [](SystemConfig &c) {
            c.host.numHosts = 2;
            c.obs.anatomy = true;
        },
    };
    const std::regex keyRe("\\b(hmc|host|obs|sim)\\.[a-z_]+");
    for (std::size_t g = 0; g < gates.size(); ++g) {
        SystemConfig cfg = parallelBase(2);
        gates[g](cfg);
        std::string msg;
        try {
            cfg.validate();
        } catch (const FatalError &e) {
            msg = e.what();
        }
        ASSERT_FALSE(msg.empty()) << "gate " << g << " did not trip";
        int quoted = 0;
        for (std::sregex_iterator it(msg.begin(), msg.end(), keyRe), end;
             it != end; ++it, ++quoted)
            EXPECT_TRUE(written.has(it->str()))
                << "gate " << g << " names unknown key '" << it->str()
                << "': " << msg;
        EXPECT_GE(quoted, 2) << "gate " << g << ": " << msg;
    }
}

}  // namespace
}  // namespace hmcsim
