/**
 * @file
 * Engine configuration: the `sim.*` config surface.
 *
 * These knobs select the *engine*, never *behaviour*: every setting
 * produces the exact same simulation results; they only trade engine
 * wall-clock speed.  The serial engine is one calendar event queue of
 * fixed geometry (sim/event_queue.h) and has no knobs.
 *
 * Knobs:
 *   sim.parallel             off|on  partitioned-parallel event core:
 *                                  one partition + local clock per
 *                                  cube, conservative chain-link
 *                                  lookahead windows (default off --
 *                                  the serial run loop, bit-identical
 *                                  to every prior release)
 *   sim.threads              u64   worker threads for sim.parallel=on;
 *                                  0 (default) means one per cube,
 *                                  capped at hardware concurrency.
 *                                  Results are identical for every
 *                                  thread count.
 *
 * Any other `sim.*` key is rejected, so a stale or misspelled engine
 * knob fails loudly instead of being silently ignored.
 */

#ifndef HMCSIM_SIM_SIM_CONFIG_H_
#define HMCSIM_SIM_SIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/config.h"

namespace hmcsim {

struct SimConfig {
    std::string parallel = "off";
    std::uint64_t threads = 0;

    bool parallelEnabled() const { return parallel == "on"; }

    void validate() const;

    /** Read "sim.*" keys over the defaults; fatal() on unknown ones. */
    static SimConfig fromConfig(const Config &cfg);
    void toConfig(Config &cfg) const;
};

}  // namespace hmcsim

#endif  // HMCSIM_SIM_SIM_CONFIG_H_
