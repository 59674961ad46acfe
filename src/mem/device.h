/**
 * @file
 * Memory-mapped device interface and the standard device set (UART,
 * CLINT, simulation controller).
 */

#ifndef MINJIE_MEM_DEVICE_H
#define MINJIE_MEM_DEVICE_H

#include <string>

#include "common/types.h"

namespace minjie::mem {

/** A memory-mapped IO device occupying [base, base+size). */
class Device
{
  public:
    Device(Addr base, uint64_t size) : base_(base), size_(size) {}
    virtual ~Device() = default;

    Addr base() const { return base_; }
    uint64_t size() const { return size_; }
    bool
    contains(Addr addr) const
    {
        return addr >= base_ && addr < base_ + size_;
    }

    /** Read @p size bytes at device-relative @p offset. */
    virtual bool read(Addr offset, unsigned size, uint64_t &data) = 0;
    /** Write @p size bytes at device-relative @p offset. */
    virtual bool write(Addr offset, unsigned size, uint64_t data) = 0;

  private:
    Addr base_;
    uint64_t size_;
};

/** Write-only console: bytes written to offset 0 append to a buffer. */
class Uart : public Device
{
  public:
    static constexpr Addr DEFAULT_BASE = 0x10000000;

    explicit Uart(Addr base = DEFAULT_BASE) : Device(base, 0x1000) {}

    bool
    read(Addr offset, unsigned size, uint64_t &data) override
    {
        data = offset == 5 ? 0x20 : 0; // LSR: TX empty
        return true;
    }

    bool
    write(Addr offset, unsigned size, uint64_t data) override
    {
        if (offset == 0)
            output_ += static_cast<char>(data & 0xff);
        return true;
    }

    const std::string &output() const { return output_; }
    void clearOutput() { output_.clear(); }

  private:
    std::string output_;
};

/** Core-local interruptor: msip / mtimecmp / mtime. */
class Clint : public Device
{
  public:
    static constexpr Addr DEFAULT_BASE = 0x02000000;
    static constexpr unsigned MAX_HARTS = 8;

    explicit Clint(Addr base = DEFAULT_BASE) : Device(base, 0x10000)
    {
        reset();
    }

    /** Power-on state: mtime 0, no timer armed, no software irq. */
    void
    reset()
    {
        mtime_ = 0;
        for (auto &v : mtimecmp_)
            v = ~0ULL;
        for (auto &v : msip_)
            v = 0;
    }

    bool
    read(Addr offset, unsigned size, uint64_t &data) override
    {
        data = 0;
        if (offset < 4 * MAX_HARTS) {
            data = msip_[offset / 4];
        } else if (offset >= 0x4000 && offset < 0x4000 + 8 * MAX_HARTS) {
            data = mtimecmp_[(offset - 0x4000) / 8];
        } else if (offset == 0xbff8) {
            data = mtime_;
        }
        return true;
    }

    bool
    write(Addr offset, unsigned size, uint64_t data) override
    {
        if (offset < 4 * MAX_HARTS) {
            msip_[offset / 4] = data & 1;
        } else if (offset >= 0x4000 && offset < 0x4000 + 8 * MAX_HARTS) {
            mtimecmp_[(offset - 0x4000) / 8] = data;
        } else if (offset == 0xbff8) {
            mtime_ = data;
        }
        return true;
    }

    /** Advance the timebase by @p ticks. */
    void tick(uint64_t ticks = 1) { mtime_ += ticks; }

    uint64_t mtime() const { return mtime_; }
    bool softwareIrq(HartId hart) const { return msip_[hart] != 0; }
    bool timerIrq(HartId hart) const { return mtime_ >= mtimecmp_[hart]; }

  private:
    uint64_t mtime_ = 0;
    uint64_t mtimecmp_[MAX_HARTS];
    uint32_t msip_[MAX_HARTS];
};

/**
 * Simulation controller (HTIF-like): a store of (code<<1)|1 to offset 0
 * halts the simulation with exit status @c code; a store to offset 8
 * prints a character.
 */
class SimCtrl : public Device
{
  public:
    static constexpr Addr DEFAULT_BASE = 0x40000000;

    explicit SimCtrl(Addr base = DEFAULT_BASE) : Device(base, 0x1000) {}

    bool
    read(Addr offset, unsigned size, uint64_t &data) override
    {
        data = 0;
        return true;
    }

    bool
    write(Addr offset, unsigned size, uint64_t data) override
    {
        if (offset == 0 && (data & 1)) {
            exited_ = true;
            exitCode_ = data >> 1;
        } else if (offset == 8) {
            output_ += static_cast<char>(data & 0xff);
        }
        return true;
    }

    bool exited() const { return exited_; }
    uint64_t exitCode() const { return exitCode_; }
    const std::string &output() const { return output_; }
    void
    reset()
    {
        exited_ = false;
        exitCode_ = 0;
        output_.clear();
    }

  private:
    bool exited_ = false;
    uint64_t exitCode_ = 0;
    std::string output_;
};

} // namespace minjie::mem

#endif // MINJIE_MEM_DEVICE_H
