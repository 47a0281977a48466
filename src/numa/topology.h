/**
 * @file
 * NUMA machine topology: sockets, cores, per-socket physical memory ranges
 * and the access latency/bandwidth matrix.
 *
 * Defaults mirror the paper's evaluation platform, a 4-socket Intel Xeon
 * E7-4850v3: 14 cores/socket, local DRAM ~280 cycles / 28 GB/s, remote DRAM
 * ~580 cycles / 11 GB/s (§8, Hardware Configuration). Physical memory is
 * homed contiguously: socket s owns frames [s*framesPerSocket,
 * (s+1)*framesPerSocket), so frame->socket lookup is a shift, like Linux's
 * pfn_to_nid on contiguous-memory-model machines.
 */

#ifndef MITOSIM_NUMA_TOPOLOGY_H
#define MITOSIM_NUMA_TOPOLOGY_H

#include <vector>

#include "src/base/logging.h"
#include "src/base/types.h"

namespace mitosim::numa
{

/** Static description of the simulated machine. */
struct TopologyConfig
{
    int numSockets = 4;
    int coresPerSocket = 14;

    /**
     * Simulated physical memory per socket. Scaled down from the paper's
     * 128 GB/socket; see EXPERIMENTS.md "Scaling: 128 MiB footprints
     * against a 64 KiB per-socket L3" for the scaling argument. Data
     * frames are unbacked so this costs only metadata on the host.
     */
    std::uint64_t memPerSocket = 4ull << 30; // 4 GiB

    /** DRAM access latency, cycles (paper: 280 local / 580 remote). */
    Cycles dramLocalLatency = 280;
    Cycles dramRemoteLatency = 580;

    /**
     * Extra queueing delay factor applied to DRAM accesses targeting a
     * socket whose memory bandwidth is being hogged by an interfering
     * process (the paper's "I" configurations run STREAM there). Local
     * bandwidth is 28 GB/s vs 11 GB/s remote, so a loaded socket roughly
     * doubles effective latency for everyone else.
     */
    double interferenceFactor = 2.0;
};

/**
 * Topology instance: owns the config, answers homing and latency queries,
 * and tracks which sockets currently host a bandwidth interferer.
 */
class Topology
{
  public:
    explicit Topology(const TopologyConfig &config);

    const TopologyConfig &config() const { return cfg; }

    int numSockets() const { return cfg.numSockets; }
    int coresPerSocket() const { return cfg.coresPerSocket; }
    int numCores() const { return cfg.numSockets * cfg.coresPerSocket; }

    /** Socket that owns core @p core. */
    SocketId
    socketOfCore(CoreId core) const
    {
        MITOSIM_DASSERT(core >= 0 && core < numCores());
        // Table instead of `core / coresPerSocket`: this sits on the
        // per-reference simulation path (every cache access derives the
        // issuing socket) and the divisor is runtime-variable, so the
        // compiler cannot strength-reduce it.
        return coreSocket_[static_cast<std::size_t>(core)];
    }

    /** First core id on socket @p socket. */
    CoreId
    firstCoreOf(SocketId socket) const
    {
        MITOSIM_ASSERT(socket >= 0 && socket < numSockets());
        return socket * cfg.coresPerSocket;
    }

    std::uint64_t framesPerSocket() const { return framesPerSocket_; }
    std::uint64_t totalFrames() const
    {
        return framesPerSocket_ * static_cast<std::uint64_t>(numSockets());
    }

    /** Home socket of a physical frame. */
    SocketId
    socketOfPfn(Pfn pfn) const
    {
        MITOSIM_DASSERT(pfn < totalFrames());
        // Same hot-path argument as socketOfCore: a 64-bit division by
        // a runtime divisor costs ~20-40 cycles and runs once per
        // simulated memory reference. Frames are homed contiguously, so
        // a block-granular table (block size = the largest power of two
        // dividing framesPerSocket_) answers exactly; the division
        // remains as fallback when that table would be unreasonably
        // large (pathological odd per-socket frame counts).
        if (!pfnBlockSocket_.empty()) {
            return static_cast<SocketId>(
                pfnBlockSocket_[pfn >> pfnBlockShift_]);
        }
        return static_cast<SocketId>(pfn / framesPerSocket_);
    }

    /** First frame homed on @p socket. */
    Pfn
    firstPfnOf(SocketId socket) const
    {
        MITOSIM_ASSERT(socket >= 0 && socket < numSockets());
        return framesPerSocket_ * static_cast<std::uint64_t>(socket);
    }

    /**
     * Raw DRAM latency for an access issued from @p from targeting memory
     * homed on @p to, including the interference penalty if an interferer
     * is active on @p to.
     */
    Cycles
    dramLatency(SocketId from, SocketId to) const
    {
        Cycles base = (from == to) ? cfg.dramLocalLatency
                                   : cfg.dramRemoteLatency;
        if (interferers[static_cast<std::size_t>(to)] > 0) {
            base = static_cast<Cycles>(static_cast<double>(base) *
                                       cfg.interferenceFactor);
        }
        return base;
    }

    /** Register/unregister a bandwidth hog on @p socket. */
    void addInterferer(SocketId socket);
    void removeInterferer(SocketId socket);

    bool
    hasInterferer(SocketId socket) const
    {
        MITOSIM_DASSERT(socket >= 0 && socket < numSockets());
        return interferers[static_cast<std::size_t>(socket)] > 0;
    }

  private:
    TopologyConfig cfg;
    std::uint64_t framesPerSocket_;
    std::vector<int> interferers; // refcount per socket

    // Hot-path lookup tables (see socketOfCore / socketOfPfn).
    std::vector<SocketId> coreSocket_; //!< core -> owning socket
    std::vector<std::uint8_t> pfnBlockSocket_; //!< pfn block -> socket
    unsigned pfnBlockShift_ = 0;
};

} // namespace mitosim::numa

#endif // MITOSIM_NUMA_TOPOLOGY_H
