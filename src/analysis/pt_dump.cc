#include "pt_dump.h"

#include "src/base/logging.h"
#include "src/pt/pte.h"

namespace mitosim::analysis
{

PtSnapshot::PtSnapshot(int num_sockets) : sockets(num_sockets)
{
    for (auto &level : cells) {
        level.resize(static_cast<std::size_t>(sockets));
        for (auto &c : level)
            c.pointersTo.assign(static_cast<std::size_t>(sockets), 0);
    }
}

LevelSocketCell &
PtSnapshot::cell(int level, SocketId socket)
{
    MITOSIM_ASSERT(level >= 1 && level <= 4);
    MITOSIM_ASSERT(socket >= 0 && socket < sockets);
    return cells[static_cast<std::size_t>(level)]
                [static_cast<std::size_t>(socket)];
}

const LevelSocketCell &
PtSnapshot::cell(int level, SocketId socket) const
{
    MITOSIM_ASSERT(level >= 1 && level <= 4);
    MITOSIM_ASSERT(socket >= 0 && socket < sockets);
    return cells[static_cast<std::size_t>(level)]
                [static_cast<std::size_t>(socket)];
}

std::uint64_t
PtSnapshot::leafPtesOn(SocketId socket) const
{
    // Leaf PTEs live in L1 pages, plus huge-page entries in L2 pages.
    // L2 cells count pointers to children (PT pages or 2MB frames); for
    // the leaf metric we rely on the analyzer filling L1 cells with leaf
    // counts and recording huge L2 leaves in L1 as well (see analyzer).
    return cell(1, socket).validPtes;
}

std::uint64_t
PtSnapshot::totalLeafPtes() const
{
    std::uint64_t total = 0;
    for (SocketId s = 0; s < sockets; ++s)
        total += leafPtesOn(s);
    return total;
}

double
PtSnapshot::remoteLeafFractionFrom(SocketId observer) const
{
    std::uint64_t total = totalLeafPtes();
    if (total == 0)
        return 0.0;
    std::uint64_t local = leafPtesOn(observer);
    return static_cast<double>(total - local) /
           static_cast<double>(total);
}

namespace
{

std::string
humanCount(std::uint64_t v)
{
    if (v >= 1000000)
        return format("%lluM", (unsigned long long)(v / 1000000));
    if (v >= 10000)
        return format("%lluk", (unsigned long long)(v / 1000));
    return format("%llu", (unsigned long long)v);
}

} // namespace

std::string
PtSnapshot::str() const
{
    // Figure 3 layout: one row per level (L4 root first), one column per
    // socket; each cell prints "pages [ptrs to s0 s1 ...] (remote%)".
    std::string out;
    out += "Level |";
    for (SocketId s = 0; s < sockets; ++s)
        out += format(" %-28s|", format("Socket %d", s).c_str());
    out += "\n";
    for (int level = 4; level >= 1; --level) {
        out += format("L%d    |", level);
        for (SocketId s = 0; s < sockets; ++s) {
            const auto &c = cell(level, s);
            std::string ptrs;
            for (SocketId t = 0; t < sockets; ++t) {
                ptrs += humanCount(
                    c.pointersTo[static_cast<std::size_t>(t)]);
                if (t + 1 < sockets)
                    ptrs += " ";
            }
            out += format(" %5s [%s] (%3.0f%%)",
                          humanCount(c.pages).c_str(), ptrs.c_str(),
                          100.0 * c.remoteFraction());
            out += " |";
        }
        out += "\n";
    }
    return out;
}

PtSnapshot
PtAnalyzer::snapshotTree(Pfn root) const
{
    PtSnapshot snap(mem.topology().numSockets());
    if (root == InvalidPfn)
        return snap;

    struct Frame
    {
        Pfn table;
        int level;
    };
    std::vector<Frame> stack{{root, 4}};
    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        SocketId holder = mem.socketOf(f.table);
        auto &c = snap.cell(f.level, holder);
        ++c.pages;

        const std::uint64_t *tbl = mem.tableView(f.table);
        for (unsigned i = 0; i < PtEntriesPerPage; ++i) {
            pt::Pte entry{tbl[i]};
            if (!entry.present())
                continue;
            SocketId target = mem.socketOf(entry.pfn());
            ++c.validPtes;
            ++c.pointersTo[static_cast<std::size_t>(target)];
            if (target != holder)
                ++c.remotePtes;
            bool is_leaf =
                (f.level == 1) || (f.level == 2 && entry.huge());
            if (!is_leaf) {
                stack.push_back({entry.pfn(), f.level - 1});
            } else if (f.level == 2) {
                // Count huge leaves into the L1 row as well so the
                // leaf-PTE metrics see them (they are leaf translations
                // held by an L2 page on `holder`).
                auto &leaf_cell = snap.cell(1, holder);
                ++leaf_cell.validPtes;
                ++leaf_cell.pointersTo[static_cast<std::size_t>(target)];
                if (target != holder)
                    ++leaf_cell.remotePtes;
            }
        }
    }
    return snap;
}

PtSnapshot
PtAnalyzer::snapshot(const pt::RootSet &roots) const
{
    return snapshotTree(roots.primaryRoot);
}

PtSnapshot
PtAnalyzer::snapshotFor(const pt::RootSet &roots, SocketId socket) const
{
    return snapshotTree(roots.rootFor(socket));
}

std::uint64_t
pageTableBytes(std::uint64_t footprint)
{
    // Compact address space [0, footprint): each level needs
    // ceil(entries-covered / 512) pages, minimum 1 (Table 4's model:
    // "each level has at least one page-table allocated").
    std::uint64_t bytes = 0;
    std::uint64_t covered = PageSize; // bytes mapped per L1 entry
    for (int level = 1; level <= 4; ++level) {
        std::uint64_t entries =
            (footprint + covered - 1) / covered; // entries needed
        std::uint64_t pages =
            (entries + PtEntriesPerPage - 1) / PtEntriesPerPage;
        if (pages == 0)
            pages = 1;
        bytes += pages * PageSize;
        covered *= PtEntriesPerPage;
    }
    return bytes;
}

double
replicationMemOverhead(std::uint64_t footprint, int replicas)
{
    MITOSIM_ASSERT(replicas >= 1);
    double pt = static_cast<double>(pageTableBytes(footprint));
    double base = static_cast<double>(footprint) + pt;
    double with = static_cast<double>(footprint) +
                  pt * static_cast<double>(replicas);
    return with / base;
}

} // namespace mitosim::analysis
