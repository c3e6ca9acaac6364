#include "qec/union_find.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "core/logging.hh"
#include "qec/batch_decode.hh"

namespace hetarch {
namespace qec {

namespace {

// Union-find work counters (deterministic) and per-decode stage
// timings (advisory), published per chunk from decoder-local Stats.
obs::Counter& cGrowSteps = obs::counter("qec.decode.uf_grow_steps");
obs::Counter& cUnions = obs::counter("qec.decode.uf_unions");
obs::Counter& cPeeledEdges = obs::counter("qec.decode.uf_peeled_edges");
obs::Histogram& hGrowNs = obs::histogram("qec.decode.grow_ns");
obs::Histogram& hPeelNs = obs::histogram("qec.decode.peel_ns");

/**
 * Insertion sort.  The lists the sparse decoder orders (active roots,
 * cluster roots, one node's grown edges) are short and mostly
 * ascending already, where it beats std::sort's mispredicted
 * partitioning.
 */
template <typename T, typename Less = std::less<T>>
void
insertionSort(std::vector<T>& v, Less less = {})
{
    for (std::size_t i = 1; i < v.size(); ++i) {
        const T x = v[i];
        std::size_t j = i;
        for (; j > 0 && less(x, v[j - 1]); --j)
            v[j] = v[j - 1];
        v[j] = x;
    }
}

/** Move @p from's edge ids to the end of @p to, keeping their order. */
void
appendEdges(std::vector<std::int32_t>& to, std::vector<std::int32_t>& from)
{
    if (to.empty())
        to.swap(from); // same contents, no copy
    else
        to.insert(to.end(), from.begin(), from.end());
    from.clear();
}

/** Combine probabilities of two independent mechanisms with the same
 * effect: exactly one of them firing. */
double
combineP(double a, double b)
{
    return a * (1.0 - b) + b * (1.0 - a);
}

std::int32_t
weightFromProbability(double p)
{
    p = std::clamp(p, 1e-12, 0.5);
    const double llr = std::log((1.0 - p) / p);
    const auto w = static_cast<std::int32_t>(std::lround(llr));
    return 2 * std::clamp(w, 1, 30);
}

} // namespace

DecodingGraph
DecodingGraph::fromDem(const stab::DetectorErrorModel& dem,
                       const std::vector<std::uint32_t>& tags,
                       std::uint32_t wanted_tag)
{
    HETARCH_ASSERT(tags.size() == dem.numDetectors,
                   "tag list size mismatch");
    DecodingGraph g;
    g.det2node.assign(dem.numDetectors, -1);
    for (std::size_t d = 0; d < dem.numDetectors; ++d) {
        if (tags[d] == wanted_tag)
            g.det2node[d] = static_cast<std::int32_t>(g.nNodes++);
    }

    // key = (u, v) with boundary encoded as -1; candidate obs variants
    // tracked with their probabilities so the dominant one wins.
    struct Candidate
    {
        double p = 0.0;
        std::map<std::uint32_t, double> byObs;
    };
    std::map<std::pair<std::int32_t, std::int32_t>, Candidate> edge_map;

    auto add_edge = [&](std::int32_t u, std::int32_t v, double p,
                        std::uint32_t obs) {
        if (u > v)
            std::swap(u, v);
        auto& cand = edge_map[{u, v}];
        cand.p = combineP(cand.p, p);
        cand.byObs[obs] += p;
    };

    std::vector<const stab::ErrorMechanism*> deferred;
    for (const auto& mech : dem.mechanisms) {
        std::vector<std::int32_t> nodes;
        for (auto d : mech.detectors)
            if (g.det2node[d] >= 0)
                nodes.push_back(g.det2node[d]);
        if (nodes.empty())
            continue;
        if (nodes.size() == 1) {
            add_edge(-1, nodes[0], mech.probability, mech.observables);
        } else if (nodes.size() == 2) {
            add_edge(nodes[0], nodes[1], mech.probability,
                     mech.observables);
        } else {
            deferred.push_back(&mech);
        }
    }

    // Decompose >2-detector mechanisms onto existing elementary edges.
    auto has_key = [&](std::int32_t u, std::int32_t v) {
        if (u > v)
            std::swap(u, v);
        return edge_map.count({u, v}) > 0;
    };
    for (const auto* mech : deferred) {
        std::vector<std::int32_t> rest;
        for (auto d : mech->detectors)
            if (g.det2node[d] >= 0)
                rest.push_back(g.det2node[d]);
        bool clean = true;
        while (rest.size() >= 2) {
            bool found = false;
            for (std::size_t i = 0; i < rest.size() && !found; ++i) {
                for (std::size_t j = i + 1; j < rest.size() && !found;
                     ++j) {
                    if (has_key(rest[i], rest[j])) {
                        // Reuse the elementary edge's own observable
                        // mask: the decomposition parity works out
                        // because the elementary mechanisms exist.
                        auto& cand = edge_map[{std::min(rest[i], rest[j]),
                                               std::max(rest[i], rest[j])}];
                        cand.p = combineP(cand.p, mech->probability);
                        rest.erase(rest.begin() +
                                   static_cast<std::ptrdiff_t>(j));
                        rest.erase(rest.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                        found = true;
                    }
                }
            }
            if (!found) {
                // Fallback: pair the two closest ids.
                add_edge(rest[0], rest[1], mech->probability, 0);
                rest.erase(rest.begin(), rest.begin() + 2);
                clean = false;
            }
        }
        if (rest.size() == 1) {
            if (has_key(-1, rest[0])) {
                auto& cand = edge_map[{-1, rest[0]}];
                cand.p = combineP(cand.p, mech->probability);
            } else {
                add_edge(-1, rest[0], mech->probability,
                         mech->observables);
                clean = false;
            }
        }
        if (!clean)
            ++g.undecomposed;
    }

    g.inc.assign(g.nNodes, {});
    for (const auto& [key, cand] : edge_map) {
        GraphEdge e;
        // key is (min, max), so a boundary (-1) always lands in first.
        e.u = key.second;
        e.v = key.first;
        double best_p = -1.0;
        for (const auto& [obs, p] : cand.byObs) {
            if (p > best_p) {
                best_p = p;
                e.observables = obs;
            }
        }
        e.weight = weightFromProbability(cand.p);
        const auto id = static_cast<std::int32_t>(g.edgeList.size());
        g.edgeList.push_back(e);
        g.inc[static_cast<std::size_t>(e.u)].push_back(id);
        if (e.v >= 0)
            g.inc[static_cast<std::size_t>(e.v)].push_back(id);
    }
    return g;
}

std::vector<std::uint8_t>
DecodingGraph::projectSyndrome(
    const std::vector<std::uint8_t>& detectors) const
{
    HETARCH_ASSERT(detectors.size() == det2node.size(),
                   "syndrome size mismatch");
    std::vector<std::uint8_t> out(nNodes, 0);
    for (std::size_t d = 0; d < detectors.size(); ++d)
        if (det2node[d] >= 0)
            out[static_cast<std::size_t>(det2node[d])] = detectors[d];
    return out;
}

void
DecodingGraph::projectSparse(std::span<const std::uint32_t> fired,
                             std::vector<std::uint32_t>& out) const
{
    for (auto d : fired) {
        HETARCH_DEBUG_ASSERT(d < det2node.size(), "detector id ", d,
                             " out of range");
        const auto node = det2node[d];
        if (node >= 0)
            out.push_back(static_cast<std::uint32_t>(node));
    }
}

void
UnionFindDecoder::Stats::publish() const
{
    cGrowSteps.add(growSteps);
    cUnions.add(unions);
    cPeeledEdges.add(peeledEdges);
    hGrowNs.merge(growNs);
    hPeelNs.merge(peelNs);
}

UnionFindDecoder::UnionFindDecoder(const DecodingGraph& graph)
    : g(graph)
{
    const std::size_t slots = g.numNodes() + 1; // + virtual boundary
    node.assign(slots, {});
    frontier.resize(slots);
    adj.resize(slots);
    parentEdge.assign(slots, {-1, -1});
    edgeStamp.assign(g.edges().size(), 0);
}

void
UnionFindDecoder::touchNode(std::size_t v)
{
    auto& s = node[v];
    if (s.epoch == epoch)
        return;
    const bool is_boundary = v == g.numNodes();
    s.epoch = epoch;
    s.parent = static_cast<std::int32_t>(v);
    s.size = 1;
    s.odd = 0;
    s.touchesBoundary = is_boundary;
    s.materialized = is_boundary;
    s.defect = 0;
    s.visited = 0;
    frontier[v].clear();
    adj[v].clear();
    touchedNodes.push_back(v);
}

std::size_t
UnionFindDecoder::findRoot(std::size_t x)
{
    while (node[x].parent != static_cast<std::int32_t>(x)) {
        node[x].parent =
            node[static_cast<std::size_t>(node[x].parent)].parent;
        x = static_cast<std::size_t>(node[x].parent);
    }
    return x;
}

std::size_t
UnionFindDecoder::unite(std::size_t a, std::size_t b)
{
    std::size_t ra = findRoot(a), rb = findRoot(b);
    if (ra == rb)
        return ra;
    // Union by node count; ties keep the first argument's root, as in
    // the dense reference (whose member lists have exactly these
    // sizes).
    if (node[ra].size < node[rb].size)
        std::swap(ra, rb);
    ++st.unions;
    auto& keep = node[ra];
    const auto& gone = node[rb];
    keep.size += gone.size;
    keep.odd ^= gone.odd;
    keep.touchesBoundary |= gone.touchesBoundary;
    node[rb].parent = static_cast<std::int32_t>(ra);
    appendEdges(frontier[ra], frontier[rb]);
    return ra;
}

std::uint32_t
UnionFindDecoder::decodeSparse(std::span<const std::uint32_t> fired,
                               std::vector<std::uint32_t>* applied_edges)
{
    const std::size_t n = g.numNodes();
    const std::size_t boundary = n; // virtual boundary node id
    if (fired.empty())
        return 0;

    const bool timed = obs::timingEnabled();
    const std::uint64_t t0 = timed ? obs::nowNs() : 0;
    ++epoch;
    const std::uint64_t stamp_base = epoch * kStampStride;
    worklist.clear();
    touchedNodes.clear();
    grownEdges.clear();

    touchNode(boundary);
    for (auto v : fired) {
        HETARCH_DEBUG_ASSERT(v < n, "node id ", v, " out of range");
        touchNode(v);
        node[v].odd = 1;
        node[v].defect = 1;
        node[v].materialized = 1;
        frontier[v] = g.incidence()[v];
        worklist.push_back(v);
    }

    // --- growth ------------------------------------------------------
    // Round-robin: grow every active cluster's frontier by one unit
    // until all clusters are neutral (even parity or boundary-touching).
    // Same schedule, frontier order and merge order as the dense
    // reference; only the storage differs (a lazily reset arena, node
    // counts for member lists, frontiers moved instead of copied).
    std::uint64_t grow_steps = 0;
    bool progress = true;
    while (progress) {
        const std::uint64_t round_start_steps = grow_steps;
        rootsBuf.clear();
        for (auto v : worklist) {
            const auto r = findRoot(v);
            if (node[r].odd && !node[r].touchesBoundary)
                rootsBuf.push_back(r);
        }
        insertionSort(rootsBuf);
        rootsBuf.erase(std::unique(rootsBuf.begin(), rootsBuf.end()),
                       rootsBuf.end());
        if (rootsBuf.empty())
            break;
        // Only this round's active roots and the roots of merges made
        // during it can be active next round (an inactive cluster
        // changes only by merging, and every merge pushes its root), so
        // the worklist shrinks to them without changing that set.
        worklist.assign(rootsBuf.begin(), rootsBuf.end());

        for (auto r : rootsBuf) {
            if (findRoot(r) != r || !node[r].odd ||
                node[r].touchesBoundary)
                continue; // merged or neutralized earlier this sweep
            // Take the frontier; edges still growing are compacted to
            // its front in order and handed back after the sweep.
            auto& edges_now = edgesNowBuf;
            edges_now.swap(frontier[r]);
            frontier[r].clear();
            std::size_t kept = 0;
            for (std::size_t i = 0; i < edges_now.size(); ++i) {
                const auto eid = edges_now[i];
                const auto& e = g.edges()[static_cast<std::size_t>(eid)];
                auto& stamp = edgeStamp[static_cast<std::size_t>(eid)];
                const std::uint64_t grown =
                    (stamp >= stamp_base ? stamp - stamp_base : 0) + 2;
                if (grown - 2 >= static_cast<std::uint64_t>(e.weight))
                    continue; // already fully grown and merged
                stamp = stamp_base + grown;
                ++grow_steps;
                if (grown < static_cast<std::uint64_t>(e.weight)) {
                    edges_now[kept++] = eid;
                    continue;
                }
                grownEdges.push_back(eid);
                const auto a = static_cast<std::size_t>(e.u);
                const auto b =
                    e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
                // Materialize far endpoints' incident edges.
                for (std::size_t endpoint : {a, b}) {
                    touchNode(endpoint);
                    if (!node[endpoint].materialized) {
                        node[endpoint].materialized = 1;
                        const auto& inc = g.incidence()[endpoint];
                        auto& f = frontier[findRoot(endpoint)];
                        f.insert(f.end(), inc.begin(), inc.end());
                    }
                }
                worklist.push_back(unite(unite(a, b), r));
            }
            edges_now.resize(kept);
            appendEdges(frontier[findRoot(r)], edges_now);
        }
        progress = grow_steps != round_start_steps;
    }
    st.growSteps += grow_steps;

    // --- peeling ------------------------------------------------------
    // For each cluster, build a spanning forest of fully grown edges
    // and peel from the leaves, emitting correction edges.  Roots are
    // visited in ascending id order and adjacency lists are built in
    // ascending edge-id order so the spanning trees — and with them the
    // emitted corrections — match the dense reference bit for bit.
    const std::uint64_t t1 = timed ? obs::nowNs() : 0;
    std::uint32_t correction = 0;

    // Adjacency of the grown edges, each node's list ordered by edge id.
    for (auto eid : grownEdges) {
        const auto& e = g.edges()[static_cast<std::size_t>(eid)];
        const auto a = static_cast<std::size_t>(e.u);
        const auto b = e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
        adj[a].push_back({static_cast<std::int32_t>(b), eid});
        adj[b].push_back({static_cast<std::int32_t>(a), eid});
    }
    for (auto v : touchedNodes)
        insertionSort(adj[v], [](const auto& x, const auto& y) {
            return x.second < y.second;
        });

    rootsBuf.clear();
    for (auto v : touchedNodes)
        if (findRoot(v) == v)
            rootsBuf.push_back(v);
    insertionSort(rootsBuf);
    for (auto r : rootsBuf) {
        // Tree root: the boundary if this cluster reached it (only the
        // boundary node starts out touching it), else r itself.
        const std::size_t tree_root =
            node[r].touchesBoundary ? boundary : r;
        if (node[tree_root].visited)
            continue;
        // BFS spanning tree.
        orderBuf.clear();
        node[tree_root].visited = 1;
        orderBuf.push_back(static_cast<std::int32_t>(tree_root));
        for (std::size_t head = 0; head < orderBuf.size(); ++head) {
            const auto u = static_cast<std::size_t>(orderBuf[head]);
            for (const auto& [w, eid] : adj[u]) {
                auto& next = node[static_cast<std::size_t>(w)];
                if (!next.visited) {
                    next.visited = 1;
                    parentEdge[static_cast<std::size_t>(w)] = {
                        static_cast<std::int32_t>(u), eid};
                    orderBuf.push_back(w);
                }
            }
        }
        // Peel leaves-first (reverse BFS order).
        for (std::size_t k = orderBuf.size(); k-- > 1;) {
            const auto v = static_cast<std::size_t>(orderBuf[k]);
            if (node[v].defect) {
                const auto [p, eid] = parentEdge[v];
                correction ^=
                    g.edges()[static_cast<std::size_t>(eid)].observables;
                ++st.peeledEdges;
                if (applied_edges)
                    applied_edges->push_back(
                        static_cast<std::uint32_t>(eid));
                node[v].defect = 0;
                node[static_cast<std::size_t>(p)].defect ^= 1;
            }
        }
        node[boundary].defect = 0; // boundary absorbs anything
    }
    if (timed) {
        const std::uint64_t t2 = obs::nowNs();
        st.growNs.record(t1 - t0);
        st.peelNs.record(t2 - t1);
    }
    return correction;
}

std::uint32_t
UnionFindDecoder::decode(const std::vector<std::uint8_t>& syndrome) const
{
    const std::size_t n = g.numNodes();
    HETARCH_ASSERT(syndrome.size() == n, "syndrome size mismatch");
    const std::size_t boundary = n; // virtual boundary node id

    // --- union-find state -------------------------------------------
    std::vector<std::int32_t> parent(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
        parent[i] = static_cast<std::int32_t>(i);
    std::vector<std::uint8_t> odd(n + 1, 0);
    std::vector<std::uint8_t> touches_boundary(n + 1, 0);
    touches_boundary[boundary] = 1;

    auto find = [&](std::size_t x) {
        while (parent[x] != static_cast<std::int32_t>(x)) {
            parent[x] = parent[static_cast<std::size_t>(parent[x])];
            x = static_cast<std::size_t>(parent[x]);
        }
        return x;
    };

    std::vector<std::int32_t> grown(g.edges().size(), 0);
    // Frontier edge lists per root and cluster member lists.
    std::vector<std::vector<std::int32_t>> frontier(n + 1);
    std::vector<std::vector<std::int32_t>> members(n + 1);
    std::vector<std::uint8_t> materialized(n + 1, 0);

    std::vector<std::size_t> worklist;
    for (std::size_t v = 0; v < n; ++v) {
        members[v] = {static_cast<std::int32_t>(v)};
        if (syndrome[v]) {
            odd[v] = 1;
            frontier[v] = g.incidence()[v];
            materialized[v] = 1;
            worklist.push_back(v);
        }
    }
    members[boundary] = {static_cast<std::int32_t>(boundary)};
    materialized[boundary] = 1;

    auto unite = [&](std::size_t a, std::size_t b) {
        std::size_t ra = find(a), rb = find(b);
        if (ra == rb)
            return ra;
        // Union by member count.
        if (members[ra].size() < members[rb].size())
            std::swap(ra, rb);
        parent[rb] = static_cast<std::int32_t>(ra);
        odd[ra] ^= odd[rb];
        touches_boundary[ra] |= touches_boundary[rb];
        members[ra].insert(members[ra].end(), members[rb].begin(),
                           members[rb].end());
        members[rb].clear();
        frontier[ra].insert(frontier[ra].end(), frontier[rb].begin(),
                            frontier[rb].end());
        frontier[rb].clear();
        return ra;
    };

    // --- growth ------------------------------------------------------
    // Round-robin: grow every active cluster's frontier by one unit
    // until all clusters are neutral (even parity or boundary-touching).
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<std::size_t> roots;
        for (auto v : worklist) {
            const auto r = find(v);
            if (odd[r] && !touches_boundary[r])
                roots.push_back(r);
        }
        std::sort(roots.begin(), roots.end());
        roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
        if (roots.empty())
            break;

        for (auto r : roots) {
            if (find(r) != r || !odd[r] || touches_boundary[r])
                continue; // merged or neutralized earlier this sweep
            std::vector<std::int32_t> keep;
            auto edges_now = frontier[r];
            frontier[r].clear();
            for (auto eid : edges_now) {
                const auto& e = g.edges()[static_cast<std::size_t>(eid)];
                if (grown[static_cast<std::size_t>(eid)] >= e.weight) {
                    continue; // already fully grown and merged
                }
                grown[static_cast<std::size_t>(eid)] += 2;
                progress = true;
                if (grown[static_cast<std::size_t>(eid)] >= e.weight) {
                    const std::size_t a = static_cast<std::size_t>(e.u);
                    const std::size_t b =
                        e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
                    // Materialize far endpoints' incident edges.
                    for (std::size_t endpoint : {a, b}) {
                        if (endpoint != boundary &&
                            !materialized[endpoint]) {
                            materialized[endpoint] = 1;
                            const auto er = find(endpoint);
                            frontier[er].insert(
                                frontier[er].end(),
                                g.incidence()[endpoint].begin(),
                                g.incidence()[endpoint].end());
                        }
                    }
                    const auto nr = unite(unite(a, b), r);
                    worklist.push_back(nr);
                } else {
                    keep.push_back(eid);
                }
            }
            const auto r2 = find(r);
            frontier[r2].insert(frontier[r2].end(), keep.begin(),
                                keep.end());
        }
    }

    // --- peeling ------------------------------------------------------
    // For each cluster, build a spanning forest of fully grown edges
    // and peel from the leaves, emitting correction edges.
    std::uint32_t correction = 0;
    std::vector<std::uint8_t> defect(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v)
        defect[v] = syndrome[v];

    // Adjacency restricted to fully grown edges.
    std::vector<std::size_t> cluster_of(n + 1, SIZE_MAX);
    std::vector<std::size_t> roots;
    for (std::size_t v = 0; v <= n; ++v) {
        if (find(v) == v && !members[v].empty())
            roots.push_back(v);
    }
    for (auto r : roots)
        for (auto m : members[r])
            cluster_of[static_cast<std::size_t>(m)] = r;

    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(
        n + 1); // node -> (neighbor, edge id)
    for (std::size_t eid = 0; eid < g.edges().size(); ++eid) {
        if (grown[eid] < g.edges()[eid].weight)
            continue;
        const auto& e = g.edges()[eid];
        const std::size_t a = static_cast<std::size_t>(e.u);
        const std::size_t b =
            e.v < 0 ? boundary : static_cast<std::size_t>(e.v);
        adj[a].push_back({b, eid});
        adj[b].push_back({a, eid});
    }

    std::vector<std::uint8_t> visited(n + 1, 0);
    for (auto r : roots) {
        // Pick a tree root: boundary if in this cluster, else r itself.
        std::size_t tree_root = r;
        if (touches_boundary[r]) {
            for (auto m : members[r]) {
                if (static_cast<std::size_t>(m) == boundary) {
                    tree_root = boundary;
                    break;
                }
            }
        }
        if (visited[tree_root])
            continue;
        // BFS spanning tree.
        std::vector<std::size_t> order;
        std::vector<std::pair<std::size_t, std::size_t>> parent_edge(
            n + 1, {SIZE_MAX, SIZE_MAX});
        visited[tree_root] = 1;
        order.push_back(tree_root);
        for (std::size_t head = 0; head < order.size(); ++head) {
            const auto u = order[head];
            for (const auto& [w, eid] : adj[u]) {
                if (!visited[w]) {
                    visited[w] = 1;
                    parent_edge[w] = {u, eid};
                    order.push_back(w);
                }
            }
        }
        // Peel leaves-first (reverse BFS order).
        for (std::size_t k = order.size(); k-- > 1;) {
            const auto v = order[k];
            if (defect[v]) {
                const auto [p, eid] = parent_edge[v];
                correction ^= g.edges()[eid].observables;
                defect[v] = 0;
                defect[p] ^= 1;
            }
        }
        defect[boundary] = 0; // boundary absorbs anything
    }
    return correction;
}

std::size_t
UnionFindDecoder::decodeBatch(
    std::span<const std::vector<std::uint32_t>> fired,
    std::span<std::uint32_t> out)
{
    return decodeDeduplicated(
        fired, out, batchOrderBuf,
        [this](const std::vector<std::uint32_t>& f) {
            return decodeSparse(f);
        });
}

} // namespace qec
} // namespace hetarch
