// Unit + property tests for the in-sim-memory data structures: every
// structure is validated functionally against a std::map reference
// over randomized key sets, parameterized over key lengths.

#include <gtest/gtest.h>

#include <pthread.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "ds/bst.hh"
#include "ds/chained_hash.hh"
#include "ds/cuckoo_hash.hh"
#include "ds/linked_list.hh"
#include "ds/lsh.hh"
#include "ds/skip_list.hh"
#include "ds/trie.hh"
#include "ds/tuple_space.hh"
#include "workloads/workload.hh"

using namespace qei;

namespace {

struct DsFixture
{
    DsFixture() : mem(1ULL << 30), vm(mem) {}

    std::vector<std::pair<Key, std::uint64_t>>
    makeItems(std::size_t n, std::size_t key_len, std::uint64_t seed)
    {
        Rng rng(seed);
        std::map<Key, std::uint64_t> unique;
        while (unique.size() < n)
            unique[randomKey(rng, key_len)] = 0;
        std::vector<std::pair<Key, std::uint64_t>> items;
        std::uint64_t v = 1000;
        for (auto& [k, value] : unique) {
            (void)value;
            items.emplace_back(k, v++);
        }
        // Shuffle so BSTs stay balanced-ish.
        Rng shuffler(seed ^ 0x5555);
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[shuffler.below(i)]);
        return items;
    }

    SimMemory mem;
    VirtualMemory vm;
};

/** Shared property check: queries agree with the reference map. */
template <typename Ds>
void
checkAgainstReference(
    Ds& ds, const std::vector<std::pair<Key, std::uint64_t>>& items,
    std::size_t key_len, std::uint64_t seed)
{
    std::map<Key, std::uint64_t> reference(items.begin(), items.end());
    Rng rng(seed);
    for (int q = 0; q < 200; ++q) {
        const Key key = q % 3 == 0
                            ? randomKey(rng, key_len)
                            : items[rng.below(items.size())].first;
        const QueryTrace trace = ds.query(key);
        auto it = reference.find(key);
        ASSERT_EQ(trace.found, it != reference.end());
        if (trace.found) {
            EXPECT_EQ(trace.resultValue, it->second);
        }
        EXPECT_FALSE(trace.touches.empty());
    }
}

/** Run @p fn to completion on a thread with a @p stack_bytes stack. */
void
runOnSmallStack(std::function<void()> fn, std::size_t stack_bytes)
{
    pthread_attr_t attr;
    ASSERT_EQ(pthread_attr_init(&attr), 0);
    ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
    pthread_t thread;
    auto trampoline = [](void* arg) -> void* {
        (*static_cast<std::function<void()>*>(arg))();
        return nullptr;
    };
    ASSERT_EQ(pthread_create(&thread, &attr, trampoline, &fn), 0);
    ASSERT_EQ(pthread_join(thread, nullptr), 0);
    pthread_attr_destroy(&attr);
}

/**
 * Reference BST builder: every insert descends the simulated heap and
 * writes the new node and its parent link in place. SimBst computes the
 * same tree on host arrays; the two must leave identical heaps.
 * @return the header address.
 */
Addr
buildReferenceBst(VirtualMemory& vm,
                  const std::vector<std::pair<Key, std::uint64_t>>& items)
{
    const auto keyLen =
        static_cast<std::uint32_t>(items.front().first.size());
    const std::uint64_t nodeBytes = 24 + pad8(keyLen);
    const std::uint64_t align =
        nodeBytes <= kCacheLineBytes ? kCacheLineBytes : 8;
    Addr root = kNullAddr;
    Key stored(keyLen);
    for (const auto& [key, value] : items) {
        Addr link = kNullAddr;
        Addr node = root;
        for (; node != kNullAddr; node = vm.read<std::uint64_t>(link)) {
            vm.readBytes(node + 24, stored.data(), keyLen);
            const int c = compareKeys(stored, key);
            if (c == 0)
                break;
            link = node + (c < 0 ? 8 : 0);
        }
        if (node != kNullAddr) {
            vm.write<std::uint64_t>(node + 16, value);
            continue;
        }
        const Addr fresh = vm.alloc(nodeBytes, align);
        vm.write<std::uint64_t>(fresh + 0, kNullAddr);
        vm.write<std::uint64_t>(fresh + 8, kNullAddr);
        vm.write<std::uint64_t>(fresh + 16, value);
        storeKey(vm, fresh + 24, key);
        if (link == kNullAddr)
            root = fresh;
        else
            vm.write<std::uint64_t>(link, fresh);
    }
    const Addr headerAddr = vm.allocLines(kCacheLineBytes);
    StructHeader h;
    h.root = root;
    h.type = StructType::BinaryTree;
    h.keyLen = static_cast<std::uint16_t>(keyLen);
    h.flags = kFlagInlineKey | kFlagRemoteCompareOk;
    h.size = items.size();
    h.writeTo(vm, headerAddr);
    return headerAddr;
}

/**
 * Reference Aho-Corasick builder: a std::map-per-node pointer trie,
 * BFS fail links, then every node allocated in BFS order and written
 * field by field. SimTrie computes the same automaton on flat arrays.
 */
struct ReferenceTrie
{
    Addr root = kNullAddr;
    std::size_t nodeCount = 0;
};

ReferenceTrie
buildReferenceTrie(VirtualMemory& vm,
                   const std::vector<std::string>& keywords)
{
    struct Node
    {
        std::map<std::uint8_t, std::unique_ptr<Node>> children;
        Node* fail = nullptr;
        std::uint16_t outputs = 0;
        Addr addr = kNullAddr;
    };
    auto root = std::make_unique<Node>();
    for (const auto& word : keywords) {
        Node* node = root.get();
        for (char ch : word) {
            auto& child = node->children[static_cast<std::uint8_t>(ch)];
            if (!child)
                child = std::make_unique<Node>();
            node = child.get();
        }
        ++node->outputs;
    }

    std::deque<Node*> queue;
    root->fail = root.get();
    for (auto& [byte, child] : root->children) {
        (void)byte;
        child->fail = root.get();
        queue.push_back(child.get());
    }
    while (!queue.empty()) {
        Node* node = queue.front();
        queue.pop_front();
        node->outputs =
            static_cast<std::uint16_t>(node->outputs + node->fail->outputs);
        for (auto& [byte, child] : node->children) {
            Node* f = node->fail;
            while (f != root.get() && !f->children.contains(byte))
                f = f->fail;
            auto it = f->children.find(byte);
            child->fail = (it != f->children.end() &&
                           it->second.get() != child.get())
                              ? it->second.get()
                              : root.get();
            queue.push_back(child.get());
        }
    }

    ReferenceTrie out;
    std::vector<Node*> order;
    std::deque<Node*> walk{root.get()};
    while (!walk.empty()) {
        Node* node = walk.front();
        walk.pop_front();
        order.push_back(node);
        node->addr = vm.alloc(16 + node->children.size() * 8ULL, 8);
        for (auto& [byte, child] : node->children) {
            (void)byte;
            walk.push_back(child.get());
        }
    }
    for (Node* node : order) {
        vm.write<std::uint16_t>(
            node->addr + 0,
            static_cast<std::uint16_t>(node->children.size()));
        vm.write<std::uint16_t>(node->addr + 2, node->outputs);
        vm.write<std::uint32_t>(node->addr + 4, 0);
        vm.write<std::uint64_t>(node->addr + 8, node->fail->addr);
        std::size_t i = 0;
        for (const auto& [byte, child] : node->children) {
            std::uint64_t entry =
                child->addr | (static_cast<std::uint64_t>(byte) << 56);
            if (child->outputs > 0)
                entry |= 1ULL << 55;
            vm.write<std::uint64_t>(node->addr + 16 + i * 8, entry);
            ++i;
        }
    }
    out.root = root->addr;
    out.nodeCount = order.size();
    return out;
}

/**
 * The two worlds' heaps are identical: the same vpn -> pfn mappings in
 * the same page-table iteration order (it feeds cache warm-up), and the
 * same bytes in every mapped page.
 */
void
expectSameHeap(const World& a, const World& b)
{
    const std::vector<std::pair<Addr, Addr>> mapA(
        a.vm.pageTable().entries().begin(),
        a.vm.pageTable().entries().end());
    const std::vector<std::pair<Addr, Addr>> mapB(
        b.vm.pageTable().entries().begin(),
        b.vm.pageTable().entries().end());
    ASSERT_EQ(mapA, mapB);
    EXPECT_EQ(a.vm.bytesAllocated(), b.vm.bytesAllocated());
    std::vector<std::uint8_t> pageA(kPageBytes);
    std::vector<std::uint8_t> pageB(kPageBytes);
    for (const auto& [vpn, pfn] : mapA) {
        (void)pfn;
        a.vm.readBytes(vpn * kPageBytes, pageA.data(), kPageBytes);
        b.vm.readBytes(vpn * kPageBytes, pageB.data(), kPageBytes);
        ASSERT_EQ(pageA, pageB) << "vpn " << std::hex << vpn;
    }
}

/** SimBst and the reference builder leave identical heaps. */
void
expectBstMatchesReference(
    const std::vector<std::pair<Key, std::uint64_t>>& items)
{
    World built(3);
    World reference(3);
    const SimBst bst(built.vm, items);
    const Addr refHeader = buildReferenceBst(reference.vm, items);
    EXPECT_EQ(bst.headerAddr(), refHeader);
    const StructHeader h = StructHeader::readFrom(reference.vm, refHeader);
    EXPECT_EQ(bst.rootAddr(), h.root);
    EXPECT_EQ(bst.keyLen(), h.keyLen);
    EXPECT_EQ(bst.size(), h.size);
    expectSameHeap(built, reference);
}

/** SimTrie and the reference builder leave identical heaps. */
void
expectTrieMatchesReference(const std::vector<std::string>& keywords)
{
    World built(3);
    World reference(3);
    const SimTrie trie(built.vm, keywords);
    const ReferenceTrie ref = buildReferenceTrie(reference.vm, keywords);
    EXPECT_EQ(trie.rootAddr(), ref.root);
    EXPECT_EQ(trie.nodeCount(), ref.nodeCount);
    EXPECT_EQ(trie.keywordCount(), keywords.size());
    expectSameHeap(built, reference);
}

} // namespace

class DsKeyLen : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DsKeyLen, LinkedListMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(48, GetParam(), 1);
    SimLinkedList ll(f.vm, items);
    EXPECT_EQ(ll.size(), items.size());
    checkAgainstReference(ll, items, GetParam(), 11);
}

TEST_P(DsKeyLen, BstMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(300, GetParam(), 2);
    SimBst bst(f.vm, items);
    EXPECT_GT(bst.averageDepth(), 1.0);
    checkAgainstReference(bst, items, GetParam(), 12);
}

TEST_P(DsKeyLen, SkipListMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(300, GetParam(), 3);
    SimSkipList sl(f.vm, items);
    checkAgainstReference(sl, items, GetParam(), 13);
}

TEST_P(DsKeyLen, ChainedHashMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(400, GetParam(), 4);
    SimChainedHash ch(f.vm, items, 128);
    EXPECT_GT(ch.averageChainLength(), 1.0);
    checkAgainstReference(ch, items, GetParam(), 14);
}

TEST_P(DsKeyLen, CuckooHashMatchesReference)
{
    DsFixture f;
    auto items = f.makeItems(400, GetParam(), 5);
    SimCuckooHash cuckoo(f.vm, 128, static_cast<std::uint32_t>(
                                        GetParam()));
    std::vector<std::pair<Key, std::uint64_t>> installed;
    for (const auto& [k, v] : items) {
        if (cuckoo.insert(k, v))
            installed.emplace_back(k, v);
    }
    EXPECT_GT(installed.size(), items.size() / 2);
    checkAgainstReference(cuckoo, installed, GetParam(), 15);
}

INSTANTIATE_TEST_SUITE_P(KeyLengths, DsKeyLen,
                         ::testing::Values(8, 16, 20, 24, 40, 64, 100));

TEST(LinkedList, PreservesInsertionOrderFromRoot)
{
    DsFixture f;
    auto items = f.makeItems(5, 8, 7);
    SimLinkedList ll(f.vm, items);
    Addr node = ll.rootAddr();
    for (const auto& [key, value] : items) {
        ASSERT_NE(node, kNullAddr);
        EXPECT_EQ(loadKey(f.vm, node + 16, 8), key);
        EXPECT_EQ(f.vm.read<std::uint64_t>(node + 8), value);
        node = f.vm.read<std::uint64_t>(node);
    }
    EXPECT_EQ(node, kNullAddr);
}

TEST(Bst, OverwriteUpdatesValue)
{
    DsFixture f;
    auto items = f.makeItems(20, 8, 8);
    items.push_back(items.front());
    items.back().second = 9999;
    SimBst bst(f.vm, items);
    const QueryTrace t = bst.query(items.front().first);
    EXPECT_TRUE(t.found);
    EXPECT_EQ(t.resultValue, 9999u);
}

TEST(Bst, SortedInputDoesNotRecursePerLevel)
{
    // Sorted keys degenerate the tree into a chain as deep as it is
    // long. Build and measure it on a 64 KB stack: code that recursed
    // once per level would overflow it a few thousand levels down.
    constexpr std::uint64_t kItems = 4000;
    auto keyOf = [](std::uint64_t n) {
        Key key(8);
        for (int b = 0; b < 8; ++b)
            key[b] = static_cast<std::uint8_t>(n >> (56 - 8 * b));
        return key;
    };
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (std::uint64_t i = 0; i < kItems; ++i)
        items.emplace_back(keyOf(2 * i), 100 + i); // even keys only

    // First, middle and last nodes, past the end, and an odd key.
    const std::uint64_t probes[] = {0, 2 * (kItems / 2), 2 * (kItems - 1),
                                    2 * kItems, 15};

    DsFixture f;
    double depth = 0;
    std::vector<QueryTrace> traces;
    runOnSmallStack(
        [&] {
            SimBst bst(f.vm, items);
            depth = bst.averageDepth();
            for (const std::uint64_t n : probes)
                traces.push_back(bst.query(keyOf(n)));
        },
        64 << 10);

    // Node i sits at depth i + 1.
    EXPECT_DOUBLE_EQ(depth, (kItems + 1) / 2.0);
    ASSERT_EQ(traces.size(), 5u);
    EXPECT_TRUE(traces[0].found);
    EXPECT_EQ(traces[0].resultValue, 100u);
    EXPECT_EQ(traces[0].touches.size(), 1u);
    EXPECT_TRUE(traces[1].found);
    EXPECT_EQ(traces[1].resultValue, 100 + kItems / 2);
    EXPECT_TRUE(traces[2].found);
    EXPECT_EQ(traces[2].resultValue, 100 + kItems - 1);
    EXPECT_EQ(traces[2].touches.size(), kItems);
    EXPECT_FALSE(traces[3].found);
    EXPECT_EQ(traces[3].touches.size(), kItems);
    EXPECT_FALSE(traces[4].found); // visits 0, 2, ..., 16
    EXPECT_EQ(traces[4].touches.size(), 9u);
}

TEST(SkipList, HeaderPublishesForwardBase)
{
    DsFixture f;
    auto items = f.makeItems(50, 24, 9);
    SimSkipList sl(f.vm, items);
    const StructHeader h =
        StructHeader::readFrom(f.vm, sl.headerAddr());
    EXPECT_EQ(h.type, StructType::SkipList);
    EXPECT_EQ(h.aux0, sl.forwardBase());
    EXPECT_EQ(h.aux1,
              static_cast<std::uint64_t>(SimSkipList::kMaxHeight - 1));
}

TEST(SkipList, TraversalVisitsFewerNodesThanSize)
{
    DsFixture f;
    auto items = f.makeItems(512, 16, 10);
    SimSkipList sl(f.vm, items);
    Rng rng(3);
    double touches = 0;
    for (int i = 0; i < 50; ++i) {
        touches += static_cast<double>(
            sl.query(items[rng.below(items.size())].first)
                .touches.size());
    }
    EXPECT_LT(touches / 50.0, 120.0); // O(log n), not O(n)
}

TEST(CuckooHash, LoadFactorAndRejection)
{
    DsFixture f;
    SimCuckooHash cuckoo(f.vm, 16, 16); // 128 slots
    Rng rng(11);
    int accepted = 0;
    for (int i = 0; i < 200; ++i)
        accepted += cuckoo.insert(randomKey(rng, 16), i) ? 1 : 0;
    EXPECT_GT(cuckoo.loadFactor(), 0.5);
    EXPECT_LE(cuckoo.loadFactor(), 1.0);
    EXPECT_LT(accepted, 200); // some inserts must fail at high load
}

TEST(CuckooHash, HeaderDescribesTable)
{
    DsFixture f;
    SimCuckooHash cuckoo(f.vm, 64, 16);
    const StructHeader h =
        StructHeader::readFrom(f.vm, cuckoo.headerAddr());
    EXPECT_EQ(h.type, StructType::CuckooHash);
    EXPECT_EQ(h.aux0, 63u);
    EXPECT_EQ(h.subtype, SimCuckooHash::kEntriesPerBucket);
}

TEST(Trie, CountsOverlappingMatches)
{
    DsFixture f;
    SimTrie trie(f.vm, {"he", "she", "his", "hers"});
    // The classic Aho-Corasick example: "ushers" contains
    // "she", "he", "hers" -> 3 matches.
    std::vector<std::uint8_t> input;
    for (char c : std::string("ushers"))
        input.push_back(static_cast<std::uint8_t>(c));
    const QueryTrace t = trie.match(input);
    EXPECT_EQ(t.resultValue, 3u);
}

TEST(Trie, NoMatchesInCleanText)
{
    DsFixture f;
    SimTrie trie(f.vm, {"xyzzy", "plugh"});
    std::vector<std::uint8_t> input;
    for (char c : std::string("aaaaabbbbbccccc"))
        input.push_back(static_cast<std::uint8_t>(c));
    EXPECT_EQ(trie.match(input).resultValue, 0u);
}

TEST(Trie, MatchesAgainstNaiveScan)
{
    DsFixture f;
    const std::vector<std::string> words{"abc", "bca", "aab", "ca",
                                         "abca"};
    SimTrie trie(f.vm, words);
    Rng rng(5);
    for (int round = 0; round < 20; ++round) {
        std::string text;
        for (int i = 0; i < 64; ++i)
            text.push_back(static_cast<char>('a' + rng.below(3)));
        std::uint64_t naive = 0;
        for (const auto& w : words) {
            for (std::size_t pos = 0;
                 (pos = text.find(w, pos)) != std::string::npos; ++pos)
                ++naive;
        }
        std::vector<std::uint8_t> input(text.begin(), text.end());
        EXPECT_EQ(trie.match(input).resultValue, naive)
            << "text: " << text;
    }
}

TEST(Trie, NodeCountGrowsWithDictionary)
{
    DsFixture f;
    SimTrie small(f.vm, {"a"});
    SimTrie big(f.vm, {"abcdef", "abcxyz", "qrstuv"});
    EXPECT_GT(big.nodeCount(), small.nodeCount());
}

TEST(BstBuilder, DuplicateKeysKeepTheLastValue)
{
    std::vector<std::pair<Key, std::uint64_t>> items;
    Rng rng(21);
    for (std::uint64_t i = 0; i < 400; ++i) {
        Key key(8);
        for (auto& b : key)
            b = static_cast<std::uint8_t>(rng.below(2)); // 256 keys
        items.emplace_back(std::move(key), 1000 + i);
    }
    expectBstMatchesReference(items);

    std::map<Key, std::uint64_t> last;
    for (const auto& [key, value] : items)
        last[key] = value;
    DsFixture f;
    const SimBst bst(f.vm, items);
    for (const auto& [key, value] : last) {
        const QueryTrace t = bst.query(key);
        ASSERT_TRUE(t.found);
        EXPECT_EQ(t.resultValue, value);
    }
}

TEST(BstBuilder, KeyLengthsAndSharedPrefixes)
{
    // Half the keys draw their first 8 bytes from {0, 1}, so longer
    // keys often tie on the 8-byte prefix and order by the rest.
    for (const std::size_t len : {3, 8, 12, 40}) {
        std::vector<std::pair<Key, std::uint64_t>> items;
        Rng rng(31 + len);
        for (std::uint64_t i = 0; i < 300; ++i) {
            Key key = randomKey(rng, len);
            if (i % 2 == 0) {
                for (std::size_t b = 0; b < std::min<std::size_t>(len, 8);
                     ++b)
                    key[b] = static_cast<std::uint8_t>(rng.below(2));
            }
            items.emplace_back(std::move(key), 2000 + i);
        }
        SCOPED_TRACE("key length " + std::to_string(len));
        expectBstMatchesReference(items);
    }
}

TEST(BstBuilder, SortedInputAndSingleItem)
{
    DsFixture f;
    auto items = f.makeItems(200, 16, 41);
    std::sort(items.begin(), items.end());
    expectBstMatchesReference(items);
    expectBstMatchesReference({{Key{1, 2, 3, 4, 5}, 77}});
}

TEST(TrieBuilder, MatchesReferenceOnEdgeDictionaries)
{
    const std::vector<std::vector<std::string>> dictionaries = {
        {"ab", "abc", "ab", "b", "abc", "ab"},    // duplicates
        {"he", "hers", "h", "her"},               // prefixes
        {"he", "she", "his", "hers", "e", "rs"},  // overlapping suffixes
        {"\x80\x81", "\xff", "a\xff", "\x7f\x80", "a\x01",
         std::string("\xfe\x00\xff", 3)}, // bytes >= 0x80, and a NUL
        {"x"},                                    // one keyword
        {"a", "aa", "aaaa", "aaa", "aaaaaaa"},    // one-letter alphabet
    };
    for (std::size_t i = 0; i < dictionaries.size(); ++i) {
        SCOPED_TRACE("dictionary " + std::to_string(i));
        expectTrieMatchesReference(dictionaries[i]);
    }
}

TEST(TrieBuilder, MatchesReferenceOnRandomDictionary)
{
    // A small alphabet with high bytes makes deep shared prefixes,
    // long fail chains and repeated words.
    const char alphabet[] = {'a', 'b', '\x80', '\xff'};
    Rng rng(51);
    std::vector<std::string> words;
    for (int i = 0; i < 600; ++i) {
        std::string word(1 + rng.below(7), ' ');
        for (char& c : word)
            c = alphabet[rng.below(4)];
        words.push_back(std::move(word));
    }
    expectTrieMatchesReference(words);
}

TEST(TrieBuilderDeathTest, OutputCountOverflowIsRejected)
{
    // Node outputs are 16 bits in the node layout; more keywords ending
    // at (or accumulating through the fail chain into) one node must
    // not wrap to a wrong match count.
    const std::vector<std::string> direct(65536, "a");
    EXPECT_DEATH(
        {
            DsFixture f;
            SimTrie trie(f.vm, direct);
        },
        "matches 65536 keywords");
    std::vector<std::string> chained(40000, "a");
    chained.insert(chained.end(), 30000, "ba");
    EXPECT_DEATH(
        {
            DsFixture f;
            SimTrie trie(f.vm, chained);
        },
        "matches 70000 keywords");
}

TEST(TupleSpace, ClassifiesAcrossTuples)
{
    DsFixture f;
    Rng rng(21);
    SimTupleSpace space(f.vm, 4, 256, 16, rng);
    for (int t = 0; t < space.tupleCount(); ++t) {
        const Key packet = space.sampleInstalledKey(t, rng);
        const auto traces = space.classify(packet);
        ASSERT_EQ(traces.size(), 4u);
        EXPECT_TRUE(traces[static_cast<std::size_t>(t)].found)
            << "tuple " << t;
    }
}

TEST(TupleSpace, RandomPacketRarelyMatches)
{
    DsFixture f;
    Rng rng(22);
    SimTupleSpace space(f.vm, 3, 128, 16, rng);
    int matches = 0;
    for (int i = 0; i < 50; ++i) {
        for (const auto& t : space.classify(randomKey(rng, 16)))
            matches += t.found ? 1 : 0;
    }
    EXPECT_LT(matches, 3);
}

TEST(Lsh, ExactKeyFoundInEveryTable)
{
    DsFixture f;
    Rng rng(31);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 300; ++i)
        items.emplace_back(randomKey(rng, 20), 7000 + i);
    SimLsh lsh(f.vm, 6, items, rng);
    for (int probe = 0; probe < 20; ++probe) {
        const auto& [key, value] = items[rng.below(items.size())];
        const auto traces = lsh.probeAll(key);
        ASSERT_EQ(traces.size(), 6u);
        for (const auto& t : traces) {
            EXPECT_TRUE(t.found);
            EXPECT_EQ(t.resultValue, value);
        }
    }
}

TEST(Lsh, ProjectionsDifferAcrossTables)
{
    DsFixture f;
    Rng rng(32);
    std::vector<std::pair<Key, std::uint64_t>> items;
    for (int i = 0; i < 50; ++i)
        items.emplace_back(randomKey(rng, 20), i);
    SimLsh lsh(f.vm, 3, items, rng);
    const Key key = items[0].first;
    EXPECT_NE(lsh.project(key, 0), lsh.project(key, 1));
    EXPECT_NE(lsh.project(key, 1), lsh.project(key, 2));
}
