#include "qec/decoder_cache.hh"

#include <future>
#include <mutex>
#include <unordered_map>

#include "core/logging.hh"
#include "obs/obs.hh"
#include "qec/surface_circuit.hh"
#include "stab/circuit_stats.hh"

namespace hetarch {
namespace qec {

namespace {

// Telemetry.  get() counts a miss exactly when it claims the build of
// a previously-absent key, so the hit/miss split depends only on the
// sequence of distinct circuits — not on which thread wins a race —
// and stays bit-identical across worker counts while no eviction
// occurs (working set within capacity).
obs::Counter& cCacheHits = obs::counter("qec.decoder_cache.hits");
obs::Counter& cCacheMisses = obs::counter("qec.decoder_cache.misses");
obs::Counter& cCacheEvictions = obs::counter("qec.decoder_cache.evictions");
obs::Counter& cFaultHits = obs::counter("qec.decoder_cache.fault_hits");
obs::Counter& cFaultMisses = obs::counter("qec.decoder_cache.fault_misses");

} // namespace

std::uint64_t
hashCircuit(const stab::Circuit& circuit)
{
    // Canonical implementation lives with the circuit IR so every
    // cache (decoder setups, fault analyses, schedule analyses) keys
    // on the identical content hash.
    return stab::hashCircuit(circuit);
}

std::shared_ptr<const DecoderSetup>
DecoderSetup::build(const stab::Circuit& circuit, DecoderKind kind)
{
    auto setup = std::make_shared<DecoderSetup>();
    setup->dem = stab::buildDetectorErrorModel(circuit);
    setup->program = stab::FrameProgram::compile(circuit);

    if (kind == DecoderKind::GreedyDem) {
        // The decoder keeps a reference to setup->dem, which lives at
        // a stable address inside the shared_ptr from here on.
        setup->greedy = std::make_unique<DemDecoder>(setup->dem);
        return setup;
    }

    // Union-find path: exactly one detector class carries the logical
    // observable (Z-stabilizer detectors for memory-Z, X for memory-X).
    // Detect it from the DEM instead of assuming a basis and build only
    // its graph: the other class's edges would carry no observable
    // (Y errors span both classes and must not count twice), so its
    // decode could only ever predict 0.
    const auto& tags = circuit.detectorTags();
    // Vote with mechanisms whose detectors sit *exclusively* in one
    // class: a pure Z error (X-detector-only) can never flip logical Z,
    // so for memory-Z the exclusive observable flippers all live in the
    // Z-detector class (and symmetrically for memory-X).
    double obs_votes[2] = {0.0, 0.0};
    for (const auto& mech : setup->dem.mechanisms) {
        if (!mech.observables || mech.detectors.empty())
            continue;
        const auto first_tag = tags[mech.detectors.front()];
        bool exclusive = true;
        for (auto d : mech.detectors)
            exclusive = exclusive && tags[d] == first_tag;
        if (exclusive)
            obs_votes[first_tag == kTagX ? 1 : 0] += mech.probability;
    }
    setup->carrierTag = obs_votes[0] >= obs_votes[1] ? kTagZ : kTagX;
    setup->graph =
        DecodingGraph::fromDem(setup->dem, tags, setup->carrierTag);
    return setup;
}

struct DecoderCache::Impl
{
    struct Key
    {
        std::uint64_t hash;
        std::uint64_t numOps;
        std::uint64_t numDetectors;
        DecoderKind kind;

        bool operator==(const Key& other) const
        {
            return hash == other.hash && numOps == other.numOps &&
                   numDetectors == other.numDetectors &&
                   kind == other.kind;
        }
    };

    struct KeyHash
    {
        std::size_t operator()(const Key& k) const
        {
            return static_cast<std::size_t>(
                k.hash ^ (k.numOps * 0x9e3779b97f4a7c15ull) ^
                (static_cast<std::uint64_t>(k.kind) << 62));
        }
    };

    /** Whole-cache eviction threshold; sweeps touch shapes in bursts. */
    static constexpr std::size_t kCapacity = 128;

    /**
     * Entries hold futures, not finished setups: the first requester
     * of a key claims the build and every concurrent requester waits
     * on the same future, so each key is built exactly once.
     */
    using SetupFuture =
        std::shared_future<std::shared_ptr<const DecoderSetup>>;

    /** Fault analyses are keyed on circuit content plus options. */
    struct FaultKey
    {
        std::uint64_t hash;
        std::uint64_t numOps;
        std::uint64_t numDetectors;
        std::uint64_t maxWeight;
        bool unionBound;

        bool operator==(const FaultKey& other) const
        {
            return hash == other.hash && numOps == other.numOps &&
                   numDetectors == other.numDetectors &&
                   maxWeight == other.maxWeight &&
                   unionBound == other.unionBound;
        }
    };

    struct FaultKeyHash
    {
        std::size_t operator()(const FaultKey& k) const
        {
            return static_cast<std::size_t>(
                k.hash ^ (k.numOps * 0x9e3779b97f4a7c15ull) ^
                (k.maxWeight * 0xff51afd7ed558ccdull) ^
                (static_cast<std::uint64_t>(k.unionBound) << 63));
        }
    };

    using FaultFuture =
        std::shared_future<std::shared_ptr<const lint::FaultAnalysis>>;

    mutable std::mutex mutex;
    std::unordered_map<Key, SetupFuture, KeyHash> entries;
    std::unordered_map<FaultKey, FaultFuture, FaultKeyHash> faultEntries;
    std::size_t hitCount = 0;
};

DecoderCache::DecoderCache() : impl(std::make_unique<Impl>()) {}
DecoderCache::~DecoderCache() = default;

DecoderCache&
DecoderCache::instance()
{
    static DecoderCache cache;
    return cache;
}

std::shared_ptr<const DecoderSetup>
DecoderCache::get(const stab::Circuit& circuit, DecoderKind kind)
{
    const Impl::Key key{qec::hashCircuit(circuit), circuit.ops().size(),
                        circuit.numDetectors(), kind};
    std::promise<std::shared_ptr<const DecoderSetup>> promise;
    Impl::SetupFuture future;
    {
        std::lock_guard<std::mutex> lock(impl->mutex);
        auto it = impl->entries.find(key);
        if (it != impl->entries.end()) {
            ++impl->hitCount;
            cCacheHits.add();
            future = it->second;
        } else {
            cCacheMisses.add();
            if (impl->entries.size() >= Impl::kCapacity) {
                cCacheEvictions.add(impl->entries.size());
                impl->entries.clear();
            }
            impl->entries.emplace(key, promise.get_future().share());
        }
    }
    if (future.valid()) {
        // A concurrent builder may still be working; wait for its
        // result (never the pool's caller building it — the builder
        // runs on its own thread and needs no help to finish).
        return future.get();
    }
    // This thread claimed the build; do it outside the lock.  Setups
    // are deterministic, so waiters get exactly what a fresh build
    // would produce.
    auto setup = DecoderSetup::build(circuit, kind);
    promise.set_value(setup);
    return setup;
}

std::shared_ptr<const lint::FaultAnalysis>
DecoderCache::faultAnalysis(const stab::Circuit& circuit,
                            const lint::FaultOptions& options)
{
    const Impl::FaultKey key{qec::hashCircuit(circuit),
                             circuit.ops().size(),
                             circuit.numDetectors(), options.maxWeight,
                             options.unionBound};
    std::promise<std::shared_ptr<const lint::FaultAnalysis>> promise;
    Impl::FaultFuture future;
    Impl::SetupFuture setup_future;
    {
        std::lock_guard<std::mutex> lock(impl->mutex);
        auto it = impl->faultEntries.find(key);
        if (it != impl->faultEntries.end()) {
            ++impl->hitCount;
            cFaultHits.add();
            future = it->second;
        } else {
            cFaultMisses.add();
            if (impl->faultEntries.size() >= Impl::kCapacity)
                impl->faultEntries.clear();
            impl->faultEntries.emplace(key, promise.get_future().share());
            // Reuse the DEM of an already-cached decoder setup for the
            // same circuit (either kind) instead of rebuilding it.
            for (auto kind : {DecoderKind::UnionFind,
                              DecoderKind::GreedyDem}) {
                const Impl::Key setup_key{key.hash, key.numOps,
                                          key.numDetectors, kind};
                auto sit = impl->entries.find(setup_key);
                if (sit != impl->entries.end()) {
                    setup_future = sit->second;
                    break;
                }
            }
        }
    }
    if (future.valid())
        return future.get();

    // This thread claimed the build.  The analyzer is deterministic,
    // so waiters get exactly what a fresh run would produce.
    std::shared_ptr<const lint::FaultAnalysis> analysis;
    if (setup_future.valid()) {
        const auto setup = setup_future.get();
        analysis = std::make_shared<const lint::FaultAnalysis>(
            lint::analyzeFaults(setup->dem, options));
    } else {
        analysis = std::make_shared<const lint::FaultAnalysis>(
            lint::analyzeCircuitFaults(circuit, options));
    }
    promise.set_value(analysis);
    return analysis;
}

void
DecoderCache::clear()
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    impl->entries.clear();
    impl->faultEntries.clear();
}

std::size_t
DecoderCache::size() const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    return impl->entries.size() + impl->faultEntries.size();
}

std::size_t
DecoderCache::hits() const
{
    std::lock_guard<std::mutex> lock(impl->mutex);
    return impl->hitCount;
}

} // namespace qec
} // namespace hetarch
