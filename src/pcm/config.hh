/**
 * @file
 * System configuration constants from the paper's Table II.
 *
 * The trace-driven evaluation only depends on the data-path models
 * (energy, DER). The topology and queueing parameters below record
 * the rest of the paper's setup: 8-core 4 GHz CMP, 2 MB private L2
 * per core, 32 GB MLC PCM main memory, 2 channels x 2 DIMMs x 16
 * banks, 32-entry write queue with write pausing and an 80 % drain
 * threshold.
 */

#ifndef WLCRC_PCM_CONFIG_HH
#define WLCRC_PCM_CONFIG_HH

#include <cstdint>

namespace wlcrc::pcm
{

/** Table II memory-system parameters. */
struct SystemConfig
{
    // CPU side.
    unsigned cores = 8;
    double coreGhz = 4.0;

    // Private L2 per core.
    uint64_t l2Bytes = 2ull * 1024 * 1024;
    unsigned l2Ways = 8;
    unsigned l2LineBytes = 64;

    // PCM main memory topology.
    uint64_t pcmBytes = 32ull * 1024 * 1024 * 1024;
    unsigned channels = 2;
    unsigned dimmsPerChannel = 2;
    unsigned banksPerDimm = 16;

    // Controller queueing (write pausing scheduling).
    unsigned writeQueueEntries = 32;
    double writeDrainThreshold = 0.80;

    // Device timing in controller cycles (behavioural; PCM writes are
    // roughly an order of magnitude slower than reads).
    unsigned readLatencyCycles = 120;
    unsigned writeLatencyCycles = 1000;

    unsigned totalBanks() const
    {
        return channels * dimmsPerChannel * banksPerDimm;
    }
};

} // namespace wlcrc::pcm

#endif // WLCRC_PCM_CONFIG_HH
