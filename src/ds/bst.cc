#include "bst.hh"

#include <cstring>

namespace qei {

namespace {

/**
 * The first min(8, len) key bytes as a big-endian integer, zero-padded:
 * comparing two prefixes orders keys as memcmp does on those bytes.
 */
std::uint64_t
keyPrefix(const std::uint8_t* key, std::uint32_t len)
{
    std::uint64_t prefix = 0;
    for (std::uint32_t i = 0; i < 8; ++i)
        prefix = prefix << 8 | (i < len ? key[i] : 0);
    return prefix;
}

} // namespace

SimBst::SimBst(VirtualMemory& vm,
               const std::vector<std::pair<Key, std::uint64_t>>& items)
    : vm_(vm)
{
    simAssert(!items.empty(), "empty BST");
    keyLen_ = static_cast<std::uint32_t>(items.front().first.size());
    size_ = items.size();

    // Shape on host: insert in the given order over index-linked host
    // nodes (node i is the i-th distinct key), so the descent never
    // touches the simulated heap. A duplicate key only overwrites its
    // value. The 8-byte prefix settles almost every comparison; the
    // rest of the key breaks ties, which keeps compareKeys order.
    constexpr std::uint32_t kNone = ~std::uint32_t{0};
    struct HostNode
    {
        std::uint64_t prefix;
        std::uint32_t child[2] = {kNone, kNone}; ///< left, right
    };
    std::vector<HostNode> nodes;
    std::vector<std::uint8_t> keys;
    std::vector<std::uint64_t> values;
    nodes.reserve(items.size());
    keys.reserve(items.size() * keyLen_);
    values.reserve(items.size());
    const std::uint32_t tailLen = keyLen_ > 8 ? keyLen_ - 8 : 0;
    std::uint32_t root = kNone;
    for (const auto& [key, value] : items) {
        simAssert(key.size() == keyLen_, "inconsistent key length");
        const std::uint64_t prefix = keyPrefix(key.data(), keyLen_);
        std::uint32_t* link = &root;
        while (*link != kNone) {
            const HostNode& node = nodes[*link];
            int c = node.prefix < prefix ? -1 : node.prefix > prefix;
            if (c == 0 && tailLen > 0) {
                c = std::memcmp(&keys[std::size_t{*link} * keyLen_ + 8],
                                key.data() + 8, tailLen);
            }
            if (c == 0)
                break;
            link = &nodes[*link].child[c < 0 ? 1 : 0]; // stored < key
        }
        if (*link != kNone) {
            values[*link] = value; // overwrite
            continue;
        }
        *link = static_cast<std::uint32_t>(nodes.size());
        nodes.push_back({prefix});
        keys.insert(keys.end(), key.begin(), key.end());
        values.push_back(value);
    }

    // Allocate in first-insertion order, as inserting into the heap
    // directly would, then write each node once.
    const std::uint64_t nodeBytes = 24 + pad8(keyLen_);
    // Line-align nodes that fit a cacheline (single staged fetch).
    const std::uint64_t align =
        nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
    std::vector<Addr> addrs(nodes.size());
    for (Addr& addr : addrs)
        addr = vm_.alloc(nodeBytes, align);
    auto addrOf = [&](std::uint32_t i) {
        return i == kNone ? kNullAddr : addrs[i];
    };
    std::vector<std::uint8_t> image(nodeBytes, 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const std::uint64_t words[3] = {addrOf(nodes[i].child[0]),
                                        addrOf(nodes[i].child[1]),
                                        values[i]};
        std::memcpy(image.data(), words, sizeof(words));
        std::memcpy(image.data() + 24, keys.data() + i * keyLen_, keyLen_);
        vm_.writeBytes(addrs[i], image.data(), image.size());
    }
    root_ = addrOf(root);

    headerAddr_ = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = root_;
    h.type = StructType::BinaryTree;
    h.keyLen = static_cast<std::uint16_t>(keyLen_);
    h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
    h.size = size_;
    h.writeTo(vm_, headerAddr_);
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
