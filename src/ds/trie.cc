#include "trie.hh"

#include <algorithm>
#include <cstring>

namespace qei {

namespace {

/** One automaton node, addressed by its BFS index (the root is 0). */
struct Node
{
    std::uint32_t firstChild = 0; ///< children: one byte-sorted run
    std::uint32_t childCount = 0;
    std::uint32_t fail = 0;
    std::uint32_t outputs = 0; ///< keywords ending here (+via fail)
    std::uint32_t parent = 0;
    std::uint8_t byte = 0; ///< label of the edge from the parent
};

/**
 * The Aho-Corasick automaton of @p keywords on host arrays, in BFS
 * order, with fail links and output counts accumulated along them.
 * Its temporaries are freed before the caller maps simulated pages.
 */
std::vector<Node>
automatonShape(const std::vector<std::string>& keywords)
{
    // Phase 1: the trie in preorder. The node set does not depend on
    // insertion order, so insert the keywords sorted (std::string
    // compares bytes unsigned): each word then shares a path only with
    // the word before it, and every node's children are created in
    // ascending byte order.
    std::vector<const std::string*> sorted;
    sorted.reserve(keywords.size());
    for (const auto& word : keywords) {
        simAssert(!word.empty(), "empty keyword");
        sorted.push_back(&word);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const std::string* a, const std::string* b) {
                  return *a < *b;
              });
    struct PreNode
    {
        std::uint32_t parent;
        std::uint32_t depth;
        std::uint32_t outputs; ///< keywords ending here
        std::uint8_t byte;     ///< label of the edge from the parent
    };
    std::vector<PreNode> pre{{0, 0, 0, 0}}; // the root
    std::vector<std::uint32_t> path{0}; // path[d]: previous word's node
    std::size_t depthCount = 1;
    const std::string* prev = nullptr;
    for (const std::string* word : sorted) {
        std::size_t shared = 0;
        if (prev != nullptr) {
            const std::size_t limit = std::min(word->size(), prev->size());
            while (shared < limit && (*word)[shared] == (*prev)[shared])
                ++shared;
        }
        path.resize(shared + 1);
        for (std::size_t d = shared; d < word->size(); ++d) {
            path.push_back(static_cast<std::uint32_t>(pre.size()));
            pre.push_back({path[d], static_cast<std::uint32_t>(d + 1), 0,
                           static_cast<std::uint8_t>((*word)[d])});
        }
        ++pre[path.back()].outputs;
        depthCount = std::max(depthCount, word->size() + 1);
        prev = word;
    }

    // Phase 2: BFS order. Within one depth, preorder of sorted words
    // visits prefixes lexicographically, which is BFS order; so a
    // stable counting sort by depth yields it. Each node's children
    // are then one contiguous, byte-sorted run of BFS indices.
    const std::size_t n = pre.size();
    std::vector<std::uint32_t> levelStart(depthCount + 1, 0);
    for (const PreNode& node : pre)
        ++levelStart[node.depth + 1];
    for (std::size_t d = 1; d <= depthCount; ++d)
        levelStart[d] += levelStart[d - 1];
    std::vector<std::uint32_t> bfsOf(n);
    for (std::size_t i = 0; i < n; ++i)
        bfsOf[i] = levelStart[pre[i].depth]++;

    std::vector<Node> nodes(n);
    for (std::size_t i = 0; i < n; ++i) {
        Node& node = nodes[bfsOf[i]];
        node.parent = bfsOf[pre[i].parent];
        node.byte = pre[i].byte;
        node.outputs = pre[i].outputs;
    }
    for (std::uint32_t j = 1; j < n; ++j) {
        Node& parent = nodes[nodes[j].parent];
        if (parent.childCount++ == 0)
            parent.firstChild = j;
    }
    auto childOf = [&](const Node& node, std::uint8_t byte) {
        for (std::uint32_t c = node.firstChild;
             c < node.firstChild + node.childCount; ++c) {
            if (nodes[c].byte == byte)
                return c;
        }
        return std::uint32_t{0}; // the root is nobody's child
    };

    // Phase 3: failure links in BFS order; accumulate output counts
    // through the fail chain so matching only reads the landing node.
    // A node's fail target is shallower, so it is final already.
    for (std::uint32_t j = 1; j < n; ++j) {
        Node& node = nodes[j];
        if (node.parent != 0) {
            std::uint32_t f = nodes[node.parent].fail;
            std::uint32_t hit = childOf(nodes[f], node.byte);
            while (hit == 0 && f != 0) {
                f = nodes[f].fail;
                hit = childOf(nodes[f], node.byte);
            }
            node.fail = hit;
        }
        node.outputs += nodes[node.fail].outputs;
        simAssert(node.outputs <= 0xFFFF,
                  "trie node matches {} keywords; the output count is "
                  "16 bits",
                  node.outputs);
    }
    return nodes;
}

} // namespace

SimTrie::SimTrie(VirtualMemory& vm,
                 const std::vector<std::string>& keywords)
    : vm_(vm), keywordCount_(keywords.size())
{
    const std::vector<Node> nodes = automatonShape(keywords);
    const std::size_t n = nodes.size();

    // Allocate every node in BFS order, then write each once (fail
    // links may point forward in BFS order).
    std::vector<Addr> addrs(n);
    for (std::size_t j = 0; j < n; ++j)
        addrs[j] = vm_.alloc(16 + nodes[j].childCount * 8ULL, 8);
    nodeCount_ = n;
    root_ = addrs[0];
    struct NodeHead
    {
        std::uint16_t childCount;
        std::uint16_t outputs;
        std::uint32_t pad;
        std::uint64_t fail;
    };
    static_assert(sizeof(NodeHead) == 16);
    std::vector<std::uint64_t> image;
    for (std::size_t j = 0; j < n; ++j) {
        const Node& node = nodes[j];
        image.assign(2 + node.childCount, 0);
        const NodeHead head{static_cast<std::uint16_t>(node.childCount),
                            static_cast<std::uint16_t>(node.outputs), 0,
                            addrs[node.fail]};
        std::memcpy(image.data(), &head, sizeof(head));
        for (std::uint32_t i = 0; i < node.childCount; ++i) {
            const std::uint32_t c = node.firstChild + i;
            // Bit 55 flags "child has outputs": the CFA then reads the
            // output count only on flagged descents instead of touching
            // every child's header.
            simAssert(addrs[c] < (1ULL << 55),
                      "node address overflows the entry encoding");
            std::uint64_t entry =
                addrs[c] | (static_cast<std::uint64_t>(nodes[c].byte) << 56);
            if (nodes[c].outputs > 0)
                entry |= 1ULL << 55;
            image[2 + i] = entry;
        }
        vm_.writeBytes(addrs[j], image.data(),
                       image.size() * sizeof(image[0]));
    }
}

Addr
SimTrie::makeHeader(std::uint32_t input_len)
{
    const Addr headerAddr = vm_.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = root_;
    h.type = StructType::Trie;
    h.keyLen = static_cast<std::uint16_t>(input_len);
    h.flags = kFlagInlineKey;
    h.size = nodeCount_;
    h.aux0 = root_; // dispatch: R7 = root for the fail-link check
    h.aux1 = 0;     // dispatch: R4 = input index
    h.writeTo(vm_, headerAddr);
    return headerAddr;
}

QueryTrace
SimTrie::match(const std::vector<std::uint8_t>& input) const
{
    QueryTrace trace;
    std::uint64_t matches = 0;

    // Software AC inner loop per byte: table lookup in the node's
    // sorted child array (binary-search-ish), fail-link chasing, and
    // match bookkeeping. Branches on the search are data dependent.
    Addr node = root_;
    bool first = true;

    auto childOf = [&](Addr n, std::uint8_t byte,
                       std::uint32_t& scanned) -> Addr {
        const auto count = vm_.read<std::uint16_t>(n);
        for (std::uint16_t i = 0; i < count; ++i) {
            const auto e =
                vm_.read<std::uint64_t>(n + 16 + i * 8ULL);
            ++scanned;
            if (static_cast<std::uint8_t>(e >> 56) == byte)
                return e & ((1ULL << 55) - 1); // strip the output bit
        }
        return kNullAddr;
    };

    for (std::uint8_t byte : input) {
        while (true) {
            std::uint32_t scanned = 0;

            MemTouch touch;
            touch.vaddr = node;
            touch.dependsOnPrev = !first;
            first = false;
            trace.touches.push_back(touch);

            const Addr child = childOf(node, byte, scanned);
            // ~4 instructions per scanned entry + loop control.
            trace.touches.back().instrBefore = 8 + 4 * scanned;
            trace.touches.back().branchesBefore = 2 + scanned;
            trace.touches.back().mispredictsBefore = 1;

            if (child != kNullAddr) {
                node = child;
                matches += vm_.read<std::uint16_t>(node + 2);
                break;
            }
            if (node == root_)
                break; // skip this input byte
            node = vm_.read<std::uint64_t>(node + 8); // fail link
        }
    }

    trace.instrAfter = 4;
    trace.found = true;
    trace.resultValue = matches;
    return trace;
}

Addr
SimTrie::stageInput(const std::vector<std::uint8_t>& input)
{
    const Addr addr = vm_.alloc(pad8(input.size()), 8);
    vm_.writeBytes(addr, input.data(), input.size());
    return addr;
}

} // namespace qei
