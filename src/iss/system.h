/**
 * @file
 * A minimal functional system: DRAM + bus + standard devices. Both the
 * reference models and the cycle model instantiate one of these.
 */

#ifndef MINJIE_ISS_SYSTEM_H
#define MINJIE_ISS_SYSTEM_H

#include "mem/bus.h"

namespace minjie::iss {

/** DRAM base used by every workload in the repository. */
constexpr Addr DRAM_BASE = 0x80000000;

struct System
{
    explicit System(uint64_t dram_mb = 256)
        : dram(DRAM_BASE, dram_mb * 1024 * 1024), bus(dram)
    {
        bus.addDevice(&uart);
        bus.addDevice(&clint);
        bus.addDevice(&simctrl);
    }

    /** Empty DRAM and power-on devices, as freshly constructed. */
    void
    reset()
    {
        dram.clear();
        uart.clearOutput();
        clint.reset();
        simctrl.reset();
    }

    mem::PhysMem dram;
    mem::Bus bus;
    mem::Uart uart;
    mem::Clint clint;
    mem::SimCtrl simctrl;
};

} // namespace minjie::iss

#endif // MINJIE_ISS_SYSTEM_H
