#include "iss/csrfile.h"

namespace minjie::iss {

using namespace minjie::isa;

namespace {

// Writable mstatus bits under M-mode writes.
constexpr uint64_t MSTATUS_WMASK =
    MSTATUS_SIE | MSTATUS_MIE | MSTATUS_SPIE | MSTATUS_MPIE | MSTATUS_SPP |
    MSTATUS_MPP | MSTATUS_FS | MSTATUS_MPRV | MSTATUS_SUM | MSTATUS_MXR |
    MSTATUS_TVM | MSTATUS_TW | MSTATUS_TSR;

// Writable sstatus bits (a view of mstatus).
constexpr uint64_t SSTATUS_WMASK =
    MSTATUS_SIE | MSTATUS_SPIE | MSTATUS_SPP | MSTATUS_FS | MSTATUS_SUM |
    MSTATUS_MXR;

constexpr uint64_t MIP_WMASK = MIP_SSIP | MIP_STIP | MIP_SEIP;

uint64_t
legalizeMstatus(uint64_t v)
{
    // MPP is WARL over {U, S, M}; an illegal write becomes U.
    if (((v & MSTATUS_MPP) >> 11) == 2)
        v &= ~MSTATUS_MPP;
    // UXL/SXL pinned to RV64.
    v = (v & ~(MSTATUS_UXL | MSTATUS_SXL)) | (2ULL << 32) | (2ULL << 34);
    // SD mirrors FS.
    if ((v & MSTATUS_FS) == MSTATUS_FS)
        v |= MSTATUS_SD;
    else
        v &= ~MSTATUS_SD;
    return v;
}

} // namespace

void
CsrFile::reset(uint64_t hartid)
{
    mstatus = legalizeMstatus(MSTATUS_FS); // fp initially on for bare-metal
    // RV64IMAFDC + S + U.
    misa = (2ULL << 62) | (1 << 0) | (1 << 2) | (1 << 3) | (1 << 5) |
           (1 << 8) | (1 << 12) | (1 << 18) | (1 << 20) | (1 << 1);
    medeleg = mideleg = 0;
    mie = mip = 0;
    mtvec = stvec = 0;
    mcounteren = scounteren = ~0ULL;
    mscratch = sscratch = 0;
    mepc = sepc = 0;
    mcause = scause = 0;
    mtval = stval = 0;
    mcycle = minstret = 0;
    mhartid = hartid;
    satp = 0;
    pmpcfg0 = pmpaddr0 = 0;
    fflags = 0;
    frm = 0;
}

bool
CsrFile::read(uint16_t addr, isa::Priv priv, uint64_t &val) const
{
    // Privilege check: bits [9:8] give the minimum privilege.
    unsigned need = (addr >> 8) & 3;
    if (static_cast<unsigned>(priv) < need)
        return false;

    switch (addr) {
      case CSR_FFLAGS: val = fflags; return fpEnabled();
      case CSR_FRM: val = frm; return fpEnabled();
      case CSR_FCSR:
        val = (static_cast<uint64_t>(frm) << 5) | fflags;
        return fpEnabled();
      case CSR_CYCLE: val = mcycle; return true;
      case CSR_TIME: val = timeSrc ? *timeSrc : 0; return true;
      case CSR_INSTRET: val = minstret; return true;
      case CSR_SSTATUS: val = mstatus & SSTATUS_MASK; return true;
      case CSR_SIE: val = mie & mideleg; return true;
      case CSR_STVEC: val = stvec; return true;
      case CSR_SCOUNTEREN: val = scounteren; return true;
      case CSR_SSCRATCH: val = sscratch; return true;
      case CSR_SEPC: val = sepc; return true;
      case CSR_SCAUSE: val = scause; return true;
      case CSR_STVAL: val = stval; return true;
      case CSR_SIP: val = mip & mideleg; return true;
      case CSR_SATP:
        if (priv == isa::Priv::S && (mstatus & MSTATUS_TVM))
            return false;
        val = satp;
        return true;
      case CSR_MVENDORID: val = 0; return true;
      case CSR_MARCHID: val = 25; return true; // XiangShan's marchid
      case CSR_MIMPID: val = 0; return true;
      case CSR_MHARTID: val = mhartid; return true;
      case CSR_MSTATUS: val = mstatus; return true;
      case CSR_MISA: val = misa; return true;
      case CSR_MEDELEG: val = medeleg; return true;
      case CSR_MIDELEG: val = mideleg; return true;
      case CSR_MIE: val = mie; return true;
      case CSR_MTVEC: val = mtvec; return true;
      case CSR_MCOUNTEREN: val = mcounteren; return true;
      case CSR_MSCRATCH: val = mscratch; return true;
      case CSR_MEPC: val = mepc; return true;
      case CSR_MCAUSE: val = mcause; return true;
      case CSR_MTVAL: val = mtval; return true;
      case CSR_MIP: val = mip; return true;
      case CSR_PMPCFG0: val = pmpcfg0; return true;
      case CSR_PMPADDR0: val = pmpaddr0; return true;
      case CSR_MCYCLE: val = mcycle; return true;
      case CSR_MINSTRET: val = minstret; return true;
      case CSR_TSELECT: val = 0; return true;
      case CSR_TDATA1: val = 0; return true;
      default:
        // hpmcounters / hpmevents read as zero.
        if ((addr >= 0xb03 && addr <= 0xb1f) ||
            (addr >= 0x323 && addr <= 0x33f) ||
            (addr >= 0xc03 && addr <= 0xc1f)) {
            val = 0;
            return true;
        }
        return false;
    }
}

bool
CsrFile::write(uint16_t addr, isa::Priv priv, uint64_t val)
{
    unsigned need = (addr >> 8) & 3;
    if (static_cast<unsigned>(priv) < need)
        return false;
    if (((addr >> 10) & 3) == 3)
        return false; // read-only region

    switch (addr) {
      case CSR_FFLAGS:
        if (!fpEnabled())
            return false;
        fflags = val & 0x1f;
        setFsDirty();
        return true;
      case CSR_FRM:
        if (!fpEnabled())
            return false;
        frm = val & 0x7;
        setFsDirty();
        return true;
      case CSR_FCSR:
        if (!fpEnabled())
            return false;
        fflags = val & 0x1f;
        frm = (val >> 5) & 0x7;
        setFsDirty();
        return true;
      case CSR_SSTATUS:
        mstatus = legalizeMstatus((mstatus & ~SSTATUS_WMASK) |
                                  (val & SSTATUS_WMASK));
        return true;
      case CSR_SIE:
        mie = (mie & ~mideleg) | (val & mideleg);
        return true;
      case CSR_STVEC: stvec = val & ~2ULL; return true;
      case CSR_SCOUNTEREN: scounteren = val; return true;
      case CSR_SSCRATCH: sscratch = val; return true;
      case CSR_SEPC: sepc = val & ~1ULL; return true;
      case CSR_SCAUSE: scause = val; return true;
      case CSR_STVAL: stval = val; return true;
      case CSR_SIP:
        mip = (mip & ~(MIP_SSIP & mideleg)) | (val & MIP_SSIP & mideleg);
        return true;
      case CSR_SATP: {
        if (priv == isa::Priv::S && (mstatus & MSTATUS_TVM))
            return false;
        uint64_t mode = val >> SATP_MODE_SHIFT;
        if (mode != SATP_MODE_BARE && mode != SATP_MODE_SV39)
            return true; // WARL: ignore illegal mode writes
        satp = val & ((0xfULL << SATP_MODE_SHIFT) | (0xffffULL << 44) |
                      SATP_PPN_MASK);
        return true;
      }
      case CSR_MSTATUS:
        mstatus = legalizeMstatus((mstatus & ~MSTATUS_WMASK) |
                                  (val & MSTATUS_WMASK));
        return true;
      case CSR_MISA: return true; // WARL: ignore
      case CSR_MEDELEG:
        // Ecall-from-M is never delegable.
        medeleg = val & ~(1ULL << 11);
        return true;
      case CSR_MIDELEG:
        mideleg = val & SIP_MASK;
        return true;
      case CSR_MIE:
        mie = val & (MIP_SSIP | MIP_MSIP | MIP_STIP | MIP_MTIP | MIP_SEIP |
                     MIP_MEIP);
        return true;
      case CSR_MTVEC: mtvec = val & ~2ULL; return true;
      case CSR_MCOUNTEREN: mcounteren = val; return true;
      case CSR_MSCRATCH: mscratch = val; return true;
      case CSR_MEPC: mepc = val & ~1ULL; return true;
      case CSR_MCAUSE: mcause = val; return true;
      case CSR_MTVAL: mtval = val; return true;
      case CSR_MIP:
        mip = (mip & ~MIP_WMASK) | (val & MIP_WMASK);
        return true;
      case CSR_PMPCFG0: pmpcfg0 = val; return true;
      case CSR_PMPADDR0: pmpaddr0 = val; return true;
      case CSR_MCYCLE: mcycle = val; return true;
      case CSR_MINSTRET: minstret = val; return true;
      case CSR_TSELECT: return true;
      case CSR_TDATA1: return true;
      default:
        if ((addr >= 0xb03 && addr <= 0xb1f) ||
            (addr >= 0x323 && addr <= 0x33f))
            return true; // hpm stubs accept writes
        return false;
    }
}

} // namespace minjie::iss
