#include <gtest/gtest.h>

#include "iss/csrfile.h"

namespace {

using namespace minjie::isa;
using minjie::iss::CsrFile;

TEST(CsrFile, MstatusWarl)
{
    CsrFile csr;
    // MPP = 2 is illegal; write legalizes to U (0).
    csr.write(CSR_MSTATUS, Priv::M, 2ULL << 11);
    EXPECT_EQ(csr.mstatus & MSTATUS_MPP, 0u);
    // MPP = 3 sticks.
    csr.write(CSR_MSTATUS, Priv::M, 3ULL << 11);
    EXPECT_EQ((csr.mstatus & MSTATUS_MPP) >> 11, 3u);
    // UXL/SXL pinned to 2.
    EXPECT_EQ((csr.mstatus >> 32) & 3, 2u);
    // SD mirrors FS.
    csr.write(CSR_MSTATUS, Priv::M, MSTATUS_FS);
    EXPECT_TRUE(csr.mstatus & MSTATUS_SD);
    csr.write(CSR_MSTATUS, Priv::M, 0);
    EXPECT_FALSE(csr.mstatus & MSTATUS_SD);
}

TEST(CsrFile, SstatusIsAView)
{
    CsrFile csr;
    csr.write(CSR_MSTATUS, Priv::M, MSTATUS_SIE | MSTATUS_MIE | MSTATUS_SUM);
    uint64_t v;
    ASSERT_TRUE(csr.read(CSR_SSTATUS, Priv::S, v));
    EXPECT_TRUE(v & MSTATUS_SIE);
    EXPECT_TRUE(v & MSTATUS_SUM);
    EXPECT_FALSE(v & MSTATUS_MIE); // machine bits hidden

    // Writing sstatus cannot touch MIE.
    csr.write(CSR_SSTATUS, Priv::S, 0);
    EXPECT_TRUE(csr.mstatus & MSTATUS_MIE);
    EXPECT_FALSE(csr.mstatus & MSTATUS_SIE);
}

TEST(CsrFile, PrivilegeChecks)
{
    CsrFile csr;
    uint64_t v;
    EXPECT_FALSE(csr.read(CSR_MSTATUS, Priv::S, v));
    EXPECT_FALSE(csr.read(CSR_MSTATUS, Priv::U, v));
    EXPECT_TRUE(csr.read(CSR_SSTATUS, Priv::S, v));
    EXPECT_FALSE(csr.read(CSR_SEPC, Priv::U, v));
    // Read-only region rejects writes even from M.
    EXPECT_FALSE(csr.write(CSR_MHARTID, Priv::M, 5));
    EXPECT_FALSE(csr.write(CSR_MVENDORID, Priv::M, 5));
}

TEST(CsrFile, SatpModeWarl)
{
    CsrFile csr;
    // Sv48 (mode 9) is not implemented: write ignored entirely.
    csr.write(CSR_SATP, Priv::M, 9ULL << SATP_MODE_SHIFT);
    EXPECT_EQ(csr.satp, 0u);
    // Sv39 accepted.
    csr.write(CSR_SATP, Priv::M, (SATP_MODE_SV39 << SATP_MODE_SHIFT) | 0x123);
    EXPECT_EQ(csr.satp >> SATP_MODE_SHIFT, SATP_MODE_SV39);
    EXPECT_EQ(csr.satp & SATP_PPN_MASK, 0x123u);
}

TEST(CsrFile, SieSipAreMaskedViews)
{
    CsrFile csr;
    csr.write(CSR_MIDELEG, Priv::M, SIP_MASK);
    csr.write(CSR_MIE, Priv::M, MIP_MSIP | MIP_SSIP | MIP_STIP);
    uint64_t v;
    csr.read(CSR_SIE, Priv::S, v);
    EXPECT_EQ(v, MIP_SSIP | MIP_STIP); // MSIP invisible
    // sie writes affect only delegated bits.
    csr.write(CSR_SIE, Priv::S, 0);
    csr.read(CSR_MIE, Priv::M, v);
    EXPECT_EQ(v, MIP_MSIP);
}

TEST(CsrFile, MipWritableMask)
{
    CsrFile csr;
    // MTIP/MSIP/MEIP are not writable through the CSR interface.
    csr.write(CSR_MIP, Priv::M, MIP_MTIP | MIP_MSIP | MIP_MEIP | MIP_SSIP);
    EXPECT_EQ(csr.mip, MIP_SSIP);
}

TEST(CsrFile, FcsrComposition)
{
    CsrFile csr;
    csr.write(CSR_FCSR, Priv::M, (0x3 << 5) | 0x1f);
    uint64_t v;
    csr.read(CSR_FFLAGS, Priv::U, v);
    EXPECT_EQ(v, 0x1fu);
    csr.read(CSR_FRM, Priv::U, v);
    EXPECT_EQ(v, 0x3u);
    csr.write(CSR_FFLAGS, Priv::U, 0x2);
    csr.read(CSR_FCSR, Priv::U, v);
    EXPECT_EQ(v, (0x3u << 5) | 0x2u);
}

TEST(CsrFile, FpDisabledRejectsFcsr)
{
    CsrFile csr;
    csr.mstatus &= ~MSTATUS_FS;
    uint64_t v;
    EXPECT_FALSE(csr.read(CSR_FFLAGS, Priv::M, v));
    EXPECT_FALSE(csr.write(CSR_FRM, Priv::M, 1));
}

TEST(CsrFile, EpcAlignment)
{
    CsrFile csr;
    csr.write(CSR_MEPC, Priv::M, 0x1003);
    EXPECT_EQ(csr.mepc, 0x1002u); // bit 0 cleared
}

TEST(CsrFile, MedelegEcallFromMNotDelegable)
{
    CsrFile csr;
    csr.write(CSR_MEDELEG, Priv::M, ~0ULL);
    EXPECT_FALSE((csr.medeleg >> 11) & 1);
    EXPECT_TRUE((csr.medeleg >> 12) & 1);
}

TEST(CsrFile, HpmCountersReadZero)
{
    CsrFile csr;
    uint64_t v = 123;
    EXPECT_TRUE(csr.read(0xb03, Priv::M, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(csr.write(0x323, Priv::M, 42));
}

TEST(CsrFile, ResetRestoresPowerOnPmp)
{
    // A reset file must read like a fresh one: reused engines reset
    // their CSRs between programs.
    CsrFile csr;
    ASSERT_TRUE(csr.write(CSR_PMPCFG0, Priv::M, 0x1f));
    ASSERT_TRUE(csr.write(CSR_PMPADDR0, Priv::M, 0x1234));
    csr.reset(0);
    uint64_t cfg = 1, addr = 1;
    EXPECT_TRUE(csr.read(CSR_PMPCFG0, Priv::M, cfg));
    EXPECT_TRUE(csr.read(CSR_PMPADDR0, Priv::M, addr));
    EXPECT_EQ(cfg, 0u);
    EXPECT_EQ(addr, 0u);
}

} // namespace
