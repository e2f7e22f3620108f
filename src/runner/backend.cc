#include "backend.hh"

#include <optional>
#include <stdexcept>

#include "common/simd.hh"
#include "pcm/disturbance.hh"
#include "pcm/energy_model.hh"
#include "runner/remote.hh"
#include "wearlevel/lifetime.hh"
#include "runner/runner.hh"
#include "runner/thread_pool.hh"
#include "tracefile/source.hh"
#include "trace/workload.hh"
#include "wlcrc/factory.hh"

namespace wlcrc::runner
{

namespace
{

/** Everything one shard task produces. */
struct ShardOutcome
{
    trace::ReplayResult replay;
    std::optional<pcm::WearTracker> wear;
    wearlevel::LifetimeResult lifetime; //!< leveled/lifetime specs
    std::string error; // empty = success
};

/**
 * Materialise a spec's full transaction stream, for hooks that want
 * it as a vector rather than a pull loop: synthesized specs
 * re-derive it from the seed, sourced specs gather their (possibly
 * on-disk) stream. Only custom replays pay this — the stock replay
 * path always streams.
 */
std::vector<trace::WriteTransaction>
materialiseStream(const ExperimentSpec &spec)
{
    if (spec.source)
        return tracefile::gather(*spec.source);
    std::vector<trace::WriteTransaction> txns;
    txns.reserve(spec.lines);
    if (spec.random) {
        trace::RandomWorkload random(spec.seed);
        for (uint64_t i = 0; i < spec.lines; ++i)
            txns.push_back(random.next());
    } else {
        trace::TraceSynthesizer synth(
            trace::WorkloadProfile::byName(spec.workload), spec.seed);
        for (uint64_t i = 0; i < spec.lines; ++i)
            txns.push_back(synth.next());
    }
    return txns;
}

/**
 * Replay shard @p shard of @p spec. Synthesized streams are
 * re-derived per shard and filtered down to the shard's addresses
 * (synthesis is cheap relative to replay, and source-independent
 * shards need no cross-thread coordination); sourced streams open a
 * per-shard cursor that filters — and, for indexed containers,
 * block-prunes — on the source side, so a trace larger than RAM
 * replays without ever being materialised.
 */
ShardOutcome
runShard(const ExperimentSpec &spec, unsigned shard)
{
    ShardOutcome out;
    try {
        if (spec.partition == tracefile::Partition::range &&
            !spec.source)
            throw std::runtime_error(
                "partition=range requires a trace source "
                "(--trace-in): synthesized streams have no stored "
                "address bounds to slice");
        if (spec.customReplay) {
            // An in-memory source is borrowed, never copied per
            // grid point; anything else is gathered once.
            const auto *vec =
                dynamic_cast<const tracefile::VectorSource *>(
                    spec.source.get());
            out.replay =
                vec ? spec.customReplay(spec, vec->transactions())
                    : spec.customReplay(spec,
                                        materialiseStream(spec));
            return out;
        }
        const auto energy = pcm::EnergyModel::withHighStateEnergies(
            spec.device.s3, spec.device.s4);
        const auto codec = spec.codecFactory
                               ? spec.codecFactory(energy)
                               : core::makeCodec(spec.scheme, energy);
        const pcm::WriteUnit unit{energy, pcm::DisturbanceModel()};
        if (spec.lifetime || spec.leveler.active()) {
            // Leveled and lifetime replays need one globally
            // consistent line mapping, so they always run as a
            // single shard (effectiveShards() == 1) with the spec's
            // own seed, and the LifetimeEngine drives the device.
            if (spec.lifetime && !spec.endurance.active())
                throw std::runtime_error(
                    "lifetime replay requires an endurance config "
                    "(mean per-cell budget > 0)");
            wearlevel::LifetimeEngine::Options lopts;
            lopts.leveler = spec.leveler;
            lopts.endurance = spec.endurance;
            lopts.seed = spec.seed;
            lopts.vnr = spec.device.vnr;
            wearlevel::LifetimeEngine engine(*codec, unit, lopts);
            out.lifetime =
                engine.run(materialiseStream(spec), spec.lifetime);
            out.replay = engine.replayResult();
            if (spec.device.wearEndurance || spec.keepWearTracker)
                out.wear.emplace(engine.wearTracker());
            return out;
        }
        trace::Replayer rep(*codec, unit,
                            shardSeed(spec.seed, shard, spec.shards),
                            spec.device.vnr);
        if (spec.device.wearEndurance || spec.keepWearTracker) {
            out.wear.emplace(codec->cellCount());
            rep.device().attachWearTracker(&*out.wear);
        }

        // Every path streams through Replayer::runBatch: the shard's
        // transactions are gathered into fixed blocks and encoded
        // via LineCodec::encodeBatch, amortising dispatch without
        // changing any result (batched == stepped, by construction).
        if (spec.source) {
            // The cursor filters (and block-prunes) source-side;
            // records arrive already restricted to this shard.
            tracefile::ShardFilter filter{
                spec.shards > 1 ? spec.shards : 1, shard};
            if (spec.partition == tracefile::Partition::range &&
                filter.shards > 1)
                filter = tracefile::rangePartition(
                    spec.source->addrBounds(), filter.shards,
                    shard);
            auto cursor = spec.source->open(filter);
            rep.runBatch([&](trace::WriteTransaction &slot) {
                auto t = cursor->next();
                if (!t)
                    return false;
                slot = *t;
                return true;
            });
        } else if (spec.random) {
            // Synthesized streams are re-derived per shard and
            // filtered down to the shard's addresses (synthesis is
            // cheap relative to replay, and source-independent
            // shards need no cross-thread coordination).
            trace::RandomWorkload random(spec.seed);
            uint64_t consumed = 0;
            rep.runBatch([&](trace::WriteTransaction &slot) {
                while (consumed < spec.lines) {
                    const trace::WriteTransaction &t = random.next();
                    ++consumed;
                    if (shardOf(t.lineAddr, spec.shards) == shard) {
                        slot = t;
                        return true;
                    }
                }
                return false;
            });
        } else {
            trace::TraceSynthesizer synth(
                trace::WorkloadProfile::byName(spec.workload),
                spec.seed);
            uint64_t consumed = 0;
            rep.runBatch([&](trace::WriteTransaction &slot) {
                while (consumed < spec.lines) {
                    const trace::WriteTransaction &t = synth.next();
                    ++consumed;
                    if (shardOf(t.lineAddr, spec.shards) == shard) {
                        slot = t;
                        return true;
                    }
                }
                return false;
            });
        }
        out.replay = rep.result();
    } catch (const std::exception &err) {
        out.error = err.what();
    }
    return out;
}

/** Merge per-shard outcomes (in shard order) into one result. */
ExperimentResult
mergeShards(const ExperimentSpec &spec,
            std::vector<ShardOutcome> &outcomes)
{
    ExperimentResult res;
    res.spec = spec;
    std::optional<pcm::WearTracker> wear;
    for (auto &o : outcomes) {
        if (!o.error.empty()) {
            res.error = o.error;
            return res;
        }
        res.replay.merge(o.replay);
        if (o.wear) {
            if (!wear)
                wear = std::move(o.wear);
            else
                wear->merge(*o.wear);
        }
    }
    if (spec.lifetime || spec.leveler.active())
        res.lifetime = std::move(outcomes.front().lifetime);
    if (wear) {
        res.wear = wear->summary();
        res.projectedLifetime = wear->projectedLifetime(
            spec.device.wearEndurance, res.replay.writes);
        if (spec.keepWearTracker) {
            res.wearTracker = std::make_shared<pcm::WearTracker>(
                std::move(*wear));
        }
    }
    res.simdKernel = simd::kernelName(simd::activeKernel());
    res.ok = true;
    return res;
}

void
notify(const std::function<void()> &taskDone)
{
    if (taskDone)
        taskDone();
}

} // namespace

unsigned
effectiveShards(const ExperimentSpec &spec)
{
    // Custom replays consume the whole stream in one pass: the hook
    // owns its own state, which the runner cannot merge shard-wise.
    if (spec.customReplay)
        return 1;
    // A leveler's logical-to-physical mapping (and the death point
    // of a lifetime replay) spans the whole address space; shards
    // would each level their own partition and diverge.
    if (spec.lifetime || spec.leveler.active())
        return 1;
    return spec.shards ? spec.shards : 1;
}

ExperimentResult
runSpecSerial(const ExperimentSpec &spec)
{
    std::vector<ShardOutcome> outcomes(effectiveShards(spec));
    for (unsigned s = 0; s < outcomes.size(); ++s)
        outcomes[s] = runShard(spec, s);
    return mergeShards(spec, outcomes);
}

std::size_t
ExecutionBackend::taskCount(
    const std::vector<ExperimentSpec> &specs) const
{
    std::size_t total = 0;
    for (const auto &s : specs)
        total += effectiveShards(s);
    return total;
}

// ------------------------------------------------------------ serial

std::vector<ExperimentResult>
SerialBackend::run(const std::vector<ExperimentSpec> &specs,
                   unsigned /*jobs*/,
                   const std::function<void()> &taskDone) const
{
    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    for (const auto &spec : specs) {
        std::vector<ShardOutcome> outcomes(effectiveShards(spec));
        for (unsigned s = 0; s < outcomes.size(); ++s) {
            outcomes[s] = runShard(spec, s);
            notify(taskDone);
        }
        results.push_back(mergeShards(spec, outcomes));
    }
    return results;
}

// ------------------------------------------------------------ thread

std::vector<ExperimentResult>
ThreadBackend::run(const std::vector<ExperimentSpec> &specs,
                   unsigned jobs,
                   const std::function<void()> &taskDone) const
{
    // One outcome slot per (spec, shard); tasks only touch their
    // own slot, so no synchronisation is needed beyond the pool's.
    std::vector<std::vector<ShardOutcome>> outcomes(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        outcomes[i].resize(effectiveShards(specs[i]));

    {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            for (unsigned s = 0; s < outcomes[i].size(); ++s) {
                pool.submit([&specs, &outcomes, &taskDone, i, s] {
                    outcomes[i][s] = runShard(specs[i], s);
                    notify(taskDone);
                });
            }
        }
        pool.wait();
    }

    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        results.push_back(mergeShards(specs[i], outcomes[i]));
    return results;
}

// -------------------------------------------------------------- free

std::shared_ptr<const ExecutionBackend>
makeBackend(const std::string &name,
            const std::string &workerBinary)
{
    if (name == "serial")
        return std::make_shared<SerialBackend>();
    if (name == "thread")
        return std::make_shared<ThreadBackend>();
    if (name == "remote") {
        if (workerBinary.empty())
            throw std::invalid_argument(
                "backend 'remote' needs a worker binary "
                "(wlcrc_worker; benches read WLCRC_WORKER_BIN) — "
                "for externally managed workers construct "
                "RemoteBackend directly");
        RemoteBackendOptions opts;
        opts.workerBinary = workerBinary;
        return std::make_shared<RemoteBackend>(std::move(opts));
    }
    throw std::invalid_argument(
        "unknown backend '" + name +
        "' (expected serial, thread or remote)");
}

} // namespace wlcrc::runner
