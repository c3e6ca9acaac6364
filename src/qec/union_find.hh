/**
 * @file
 * Weighted union-find decoder (Delfosse–Nickerson) over a decoding
 * graph derived from a detector error model.
 *
 * The graph is built over the one detector class (tag) that carries
 * the logical observable: for surface-code memory-Z, the Z-stabilizer
 * detectors, which catch X errors.  Mechanisms with one detector in
 * the class become boundary edges; with two, ordinary edges; with more
 * than two, they are decomposed onto existing elementary edges (the
 * same convention Stim/PyMatching use for Y-type correlations).
 *
 * Two decode entry points share the algorithm:
 *
 *   - decode(dense) allocates fresh state per call and scans every
 *     node.  It is the reference implementation — simple, const,
 *     thread-safe.
 *   - decodeSparse(span of fired node ids) runs on an epoch-versioned
 *     scratch arena owned by the decoder: per-node/per-edge state is
 *     lazily re-initialized the first time a decode touches it, so a
 *     weight-w syndrome costs O(cluster size), not O(graph size), and
 *     no per-shot allocation survives warm-up.  Outputs are
 *     bit-identical to decode() — the growth schedule, frontier
 *     merge order and peeling order are replicated exactly, which the
 *     packed-pipeline tests pin.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/obs.hh"
#include "stab/dem.hh"

namespace hetarch {
namespace qec {

/** One edge of the decoding graph. */
struct GraphEdge
{
    std::int32_t u = -1;     ///< node id
    std::int32_t v = -1;     ///< node id, or -1 for the boundary
    std::uint32_t observables = 0; ///< logical mask flipped by this edge
    std::int32_t weight = 1;       ///< integer growth weight
};

/** Matching graph over one detector class. */
class DecodingGraph
{
  public:
    /**
     * Build from a DEM keeping only detectors whose tag equals
     * @p wanted_tag.  @p tags is indexed by detector id.  Every edge
     * carries the observable mask of the mechanisms it stands for, so
     * @p wanted_tag should name the observable-carrier class (see
     * DecoderSetup::carrierTag).
     */
    static DecodingGraph fromDem(const stab::DetectorErrorModel& dem,
                                 const std::vector<std::uint32_t>& tags,
                                 std::uint32_t wanted_tag);

    /** Number of (kept) detector nodes. */
    std::size_t numNodes() const { return nNodes; }
    const std::vector<GraphEdge>& edges() const { return edgeList; }
    /** Edge ids incident to a node. */
    const std::vector<std::vector<std::int32_t>>& incidence() const
    {
        return inc;
    }
    /** Map from global detector id to node id (-1 when filtered out). */
    const std::vector<std::int32_t>& detectorToNode() const
    {
        return det2node;
    }
    /** Mechanisms that could not be decomposed onto elementary edges. */
    std::size_t undecomposedCount() const { return undecomposed; }

    /** Project a full detector event vector onto this graph's nodes. */
    std::vector<std::uint8_t>
    projectSyndrome(const std::vector<std::uint8_t>& detectors) const;

    /**
     * Project an ascending list of fired global detector ids onto this
     * graph, appending the kept node ids to @p out (ascending, since
     * node ids are assigned in detector order).  The sparse analogue
     * of projectSyndrome.
     */
    void projectSparse(std::span<const std::uint32_t> fired,
                       std::vector<std::uint32_t>& out) const;

  private:
    std::size_t nNodes = 0;
    std::vector<GraphEdge> edgeList;
    std::vector<std::vector<std::int32_t>> inc;
    std::vector<std::int32_t> det2node;
    std::size_t undecomposed = 0;
};

/**
 * Union-find decoder.  Construct once per graph, then decode many
 * syndromes.  decode() is const and thread-safe; decodeSparse() uses
 * the decoder's scratch arena and must not be called concurrently on
 * one instance (use one decoder per worker, as the chunked experiment
 * path does).
 */
class UnionFindDecoder
{
  public:
    /**
     * Work done by the sparse entry points since construction.  The
     * counts are functions of the decoded syndromes alone (hence
     * invariant under worker count and sampler width); the per-decode
     * stage durations are recorded only while obs::timingEnabled().
     */
    struct Stats
    {
        std::uint64_t growSteps = 0;   ///< unit growths of frontier edges
        std::uint64_t unions = 0;      ///< cluster merges
        std::uint64_t peeledEdges = 0; ///< correction edges emitted
        obs::LocalHistogram growNs;    ///< growth time per decode
        obs::LocalHistogram peelNs;    ///< peeling time per decode

        /** Add to qec.decode.uf_* and qec.decode.{grow,peel}_ns. */
        void publish() const;
    };

    explicit UnionFindDecoder(const DecodingGraph& graph);

    const Stats& stats() const { return st; }

    /**
     * Decode one syndrome (bit per node).  Returns the predicted
     * logical-observable mask of the correction.  Reference
     * implementation: allocates per call.
     */
    std::uint32_t decode(const std::vector<std::uint8_t>& syndrome) const;

    /**
     * Decode a sparse syndrome given as the ascending list of fired
     * node ids.  Bit-identical to decode() on the equivalent dense
     * vector; runs on the reusable arena (no per-shot allocation once
     * warm).
     *
     * When @p applied_edges is non-null, the ids of the correction
     * edges the peeling pass applied are appended to it (in peel
     * order).  The sliding-window decoder uses this to split a
     * window's correction into committed and deferred parts; passing
     * nullptr skips the recording entirely.
     */
    std::uint32_t decodeSparse(std::span<const std::uint32_t> fired,
                               std::vector<std::uint32_t>* applied_edges =
                                   nullptr);

    /**
     * Decode a block of sparse syndromes at once, writing the
     * predicted observable mask of shot i to @p out[i].
     * Output-identical to decodeSparse() per shot (the epoch-stamped
     * arena isolates decodes); shots run in decodeDeduplicated()
     * order, cheap syndromes first so the arena's touched set stays
     * small and hot, and repeated syndromes reuse their mask.  Returns
     * the reuse count (telemetry: qec.decode.batch_dedup_hits).
     */
    std::size_t decodeBatch(std::span<const std::vector<std::uint32_t>>
                                fired,
                            std::span<std::uint32_t> out);

  private:
    /** Per-node arena slot; valid iff epoch equals the decoder's. */
    struct NodeState
    {
        std::uint64_t epoch = 0;
        std::int32_t parent = 0;
        std::int32_t size = 1;      ///< cluster node count (roots only)
        std::uint8_t odd = 0;
        std::uint8_t touchesBoundary = 0;
        std::uint8_t materialized = 0;
        std::uint8_t defect = 0;
        std::uint8_t visited = 0; ///< reached by a peeling BFS
    };

    void touchNode(std::size_t v);
    std::size_t findRoot(std::size_t x);
    std::size_t unite(std::size_t a, std::size_t b);

    const DecodingGraph& g;
    Stats st;

    // --- epoch-versioned scratch arena (decodeSparse only) ----------
    // Bumping `epoch` invalidates every slot in O(1).  Node slots are
    // sized n+1 (last slot = virtual boundary node).  An edge's growth
    // this decode is its stamp minus epoch * kStampStride when the
    // stamp is at least that base, else 0 (edge weights are at most
    // 60, below the stride).
    static constexpr std::uint64_t kStampStride = 64;
    std::uint64_t epoch = 0;
    std::vector<NodeState> node;
    std::vector<std::uint64_t> edgeStamp;
    std::vector<std::vector<std::int32_t>> frontier;
    /** (parent node, edge id) of each BFS-visited node. */
    std::vector<std::pair<std::int32_t, std::int32_t>> parentEdge;
    // Reused per-decode buffers (cleared, never shrunk).
    std::vector<std::size_t> worklist;
    std::vector<std::size_t> touchedNodes;
    std::vector<std::int32_t> grownEdges;
    std::vector<std::size_t> rootsBuf;
    std::vector<std::int32_t> orderBuf;
    std::vector<std::int32_t> edgesNowBuf;
    /** Fully grown edges as (neighbour, edge id), per node. */
    std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> adj;
    std::vector<std::uint32_t> batchOrderBuf; ///< decodeBatch shot order
};

} // namespace qec
} // namespace hetarch
