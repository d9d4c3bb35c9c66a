#include "bst.hh"

namespace qei {

SimBst::SimBst(VirtualMemory& vm,
               const std::vector<std::pair<Key, std::uint64_t>>& items)
    : vm_(vm)
{
    simAssert(!items.empty(), "empty BST");
    keyLen_ = static_cast<std::uint32_t>(items.front().first.size());
    size_ = items.size();

    for (const auto& [key, value] : items) {
        simAssert(key.size() == keyLen_, "inconsistent key length");
        insert(key, value);
    }

    headerAddr_ = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = root_;
    h.type = StructType::BinaryTree;
    h.keyLen = static_cast<std::uint16_t>(keyLen_);
    h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
    h.size = size_;
    h.writeTo(vm_, headerAddr_);
}

void
SimBst::insert(const Key& key, std::uint64_t value)
{
    // Descend to the null link the key belongs at; only that link (or
    // the root) changes, so nothing else is written back.
    Key stored(keyLen_);
    Addr link = kNullAddr;
    for (Addr node = root_; node != kNullAddr;
         node = vm_.read<std::uint64_t>(link)) {
        vm_.readBytes(node + 24, stored.data(), keyLen_);
        const int c = compareKeys(stored, key);
        if (c == 0) {
            vm_.write<std::uint64_t>(node + 16, value); // overwrite
            return;
        }
        link = node + (c < 0 ? 8 : 0); // stored < key: go right
    }

    const std::uint64_t nodeBytes = 24 + pad8(keyLen_);
    // Line-align nodes that fit a cacheline (single staged fetch).
    const std::uint64_t align =
        nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
    const Addr fresh = vm_.alloc(nodeBytes, align);
    vm_.write<std::uint64_t>(fresh + 0, kNullAddr);
    vm_.write<std::uint64_t>(fresh + 8, kNullAddr);
    vm_.write<std::uint64_t>(fresh + 16, value);
    storeKey(vm_, fresh + 24, key);
    if (link == kNullAddr)
        root_ = fresh;
    else
        vm_.write<std::uint64_t>(link, fresh);
}

QueryTrace
SimBst::query(const Key& key) const
{
    simAssert(key.size() == keyLen_, "bad query key length");
    QueryTrace trace;
    const std::uint32_t perNode = 10 + memcmpInstrCost(keyLen_);

    Key stored(keyLen_);
    Addr node = root_;
    bool first = true;
    while (node != kNullAddr) {
        MemTouch touch;
        touch.vaddr = node;
        touch.dependsOnPrev = !first;
        touch.instrBefore = first ? 4 : perNode;
        touch.branchesBefore = 3;
        // The left/right decision is data dependent and essentially
        // random for a search tree: half the branches mispredict.
        touch.mispredictsBefore = first ? 0 : 1;
        trace.touches.push_back(touch);
        first = false;

        vm_.readBytes(node + 24, stored.data(), keyLen_);
        const int c = compareKeys(stored, key);
        if (c == 0) {
            trace.found = true;
            trace.resultValue = vm_.read<std::uint64_t>(node + 16);
            break;
        }
        node = vm_.read<std::uint64_t>(node + (c < 0 ? 8 : 0));
    }
    trace.instrAfter = 4;
    trace.branchesAfter = 1;
    trace.mispredictsAfter = 1;
    return trace;
}

Addr
SimBst::stageKey(const Key& key)
{
    simAssert(key.size() == keyLen_, "bad staged key length");
    // Line-aligned so a staged key of up to 64 B is one fetch.
    const Addr addr = vm_.alloc(pad8(keyLen_), kCacheLineBytes);
    storeKey(vm_, addr, key);
    return addr;
}

double
SimBst::averageDepth() const
{
    // Explicit stack: a degenerate (sorted-input) tree is as deep as it
    // is large, too deep to recurse on the host stack.
    std::uint64_t total = 0;
    std::uint64_t count = 0;
    std::vector<std::pair<Addr, std::uint64_t>> pending;
    if (root_ != kNullAddr)
        pending.emplace_back(root_, 1);
    while (!pending.empty()) {
        const auto [node, depth] = pending.back();
        pending.pop_back();
        total += depth;
        ++count;
        for (const Addr child : {vm_.read<std::uint64_t>(node + 0),
                                 vm_.read<std::uint64_t>(node + 8)}) {
            if (child != kNullAddr)
                pending.emplace_back(child, depth + 1);
        }
    }
    return count ? static_cast<double>(total) /
                       static_cast<double>(count)
                 : 0.0;
}

} // namespace qei
