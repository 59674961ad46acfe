#include "uarch/hierarchy.h"

namespace minjie::uarch {

MemHierarchy::MemHierarchy(const MemCfg &cfg, unsigned nCores) : cfg_(cfg)
{
    dram_ = std::make_unique<DramModel>(cfg.dram);

    if (cfg.l3)
        l3_ = std::make_unique<Cache>("L3", *cfg.l3, nullptr, dram_.get());

    Cache *topParent = l3_.get();
    DramModel *topDram = l3_ ? nullptr : dram_.get();

    unsigned nL2 = cfg.l2Private ? nCores : 1;
    for (unsigned i = 0; i < nL2; ++i) {
        auto l2 = std::make_unique<Cache>(
            "L2." + std::to_string(i), cfg.l2, topParent, topDram);
        if (topParent)
            topParent->addChild(l2.get());
        l2_.push_back(std::move(l2));
    }

    stlb_ = std::make_unique<TimingTlb>(cfg.stlb);

    for (unsigned c = 0; c < nCores; ++c) {
        Cache *l2 = l2_[cfg.l2Private ? c : 0].get();

        // YQH's L1+ is an instruction-side L1.5 between the L1I and
        // the L2; the data cache connects to the L2 directly.
        Cache *iParent = l2;
        if (cfg.l1plus) {
            auto lp = std::make_unique<Cache>(
                "L1plus." + std::to_string(c), *cfg.l1plus, l2, nullptr);
            l2->addChild(lp.get());
            iParent = lp.get();
            l1plus_.push_back(std::move(lp));
        }

        auto l1i = std::make_unique<Cache>(
            "L1I." + std::to_string(c), cfg.l1i, iParent, nullptr);
        auto l1d = std::make_unique<Cache>(
            "L1D." + std::to_string(c), cfg.l1d, l2, nullptr);
        iParent->addChild(l1i.get());
        l2->addChild(l1d.get());
        l1i_.push_back(std::move(l1i));
        l1d_.push_back(std::move(l1d));

        itlb_.push_back(std::make_unique<TlbPath>(cfg.itlb, *stlb_,
                                                  cfg.walkLatency));
        dtlb_.push_back(std::make_unique<TlbPath>(cfg.dtlb, *stlb_,
                                                  cfg.walkLatency));
    }
}

unsigned
MemHierarchy::fetch(HartId core, Addr vaddr, Addr paddr, Cycle now)
{
    bool walked = false;
    unsigned tlbLat = itlb_[core]->access(vaddr, &walked);
    if (walked && trace_)
        trace_->record(obs::Ev::TlbWalk, now, vaddr, vaddr, 0,
                       static_cast<uint8_t>(core), /*itlb=*/1);
    return tlbLat + l1i_[core]->access(paddr, false, now + tlbLat);
}

unsigned
MemHierarchy::load(HartId core, Addr vaddr, Addr paddr, Cycle now)
{
    bool walked = false;
    unsigned tlbLat = dtlb_[core]->access(vaddr, &walked);
    if (walked && trace_)
        trace_->record(obs::Ev::TlbWalk, now, vaddr, vaddr, 0,
                       static_cast<uint8_t>(core));
    return tlbLat + l1d_[core]->access(paddr, false, now + tlbLat);
}

unsigned
MemHierarchy::store(HartId core, Addr vaddr, Addr paddr, Cycle now)
{
    bool walked = false;
    unsigned tlbLat = dtlb_[core]->access(vaddr, &walked);
    if (walked && trace_)
        trace_->record(obs::Ev::TlbWalk, now, vaddr, vaddr, 0,
                       static_cast<uint8_t>(core));
    return tlbLat + l1d_[core]->access(paddr, true, now + tlbLat);
}

void
MemHierarchy::flushTlbs(HartId core)
{
    itlb_[core]->flush();
    dtlb_[core]->flush();
    stlb_->flush();
}

void
MemHierarchy::reset()
{
    dram_->reset();
    if (l3_)
        l3_->reset();
    for (auto *level : {&l2_, &l1plus_, &l1i_, &l1d_})
        for (auto &c : *level)
            c->reset();
    stlb_->reset();
    for (auto *paths : {&itlb_, &dtlb_})
        for (auto &p : *paths)
            p->reset();
}

void
MemHierarchy::setTxnLog(TxnLog log)
{
    if (l3_) {
        l3_->setTxnLog(log);
        return; // propagates to children
    }
    for (auto &l2 : l2_)
        l2->setTxnLog(log);
}

void
MemHierarchy::addTxnLog(TxnLog log)
{
    if (l3_) {
        l3_->addTxnLog(log);
        return; // propagates to children
    }
    for (auto &l2 : l2_)
        l2->addTxnLog(log);
}

} // namespace minjie::uarch
