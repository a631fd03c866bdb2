//! Co-access graph partitioning allocation.
//!
//! The paper's allocation schemes (round-robin, greedy-by-size) place
//! fragments independently, which defeats declustering exactly when
//! queries touch *correlated* fragments that land on the same disk:
//! the whole class then serializes on one device. Following the
//! graph-partitioning placement literature ("Distributed Data Placement
//! via Graph Partitioning"), this module models the workload as a
//! fragment co-access graph — nodes are fragments, an edge connects two
//! fragments that some query class reads together, weighted by that
//! class's heat — and derives a placement that *scatters* co-accessed
//! fragments across disks while keeping byte occupancy and access heat
//! balanced.
//!
//! The objective is therefore the complement of the classic min-cut:
//! we minimize the co-access weight that stays *internal* to a disk
//! (equivalently, maximize the cut), because fragments read by the same
//! query want to be on different spindles. The partitioner is the
//! standard multilevel scheme adapted to that objective:
//!
//! 1. **Coarsen** by affinity matching — the heavy-edge-matching rule
//!    applied to the co-residence affinity graph: two fragments have
//!    maximal affinity when *no* query reads them together, so each
//!    round pairs every node with its lightest co-access partner (an
//!    unmatched non-neighbor when one exists). Merged nodes may safely
//!    share a disk, so contraction preserves cut quality.
//! 2. **Initial partition** of the coarsest graph: nodes in
//!    deterministic hot-first order, each onto the disk minimizing
//!    (co-access weight to residents, heat load, byte load), subject to
//!    a byte-capacity slack.
//! 3. **Refine** with Fiduccia–Mattheyses-style passes at every level
//!    while uncoarsening: each pass visits nodes hot-first, computes
//!    the gain of moving to every other disk (internal co-access shed
//!    minus gained), and applies the best balance-preserving move.
//!
//! Every ordering is total (`f64::total_cmp` + index tie-breaks) and
//! residual ties are broken by a splitmix64 hash of the caller's seed,
//! so the same inputs — at any worker count — produce a byte-identical
//! allocation, and different seeds explore different tie-break choices
//! deterministically.

use crate::{greedy_by_size, Allocation, AllocationScheme};

/// Groups larger than this contribute no pairwise edges: a class that
/// scans half the warehouse is placement-insensitive (it hits every
/// disk regardless), and its clique would dominate the edge budget.
const MAX_CLIQUE_GROUP: usize = 512;

/// Byte-occupancy slack over the perfectly balanced mean that a disk
/// may reach before the partitioner refuses to place more bytes on it.
const BALANCE_SLACK: f64 = 0.2;

/// Coarsening stops when a level has at most this many nodes (scaled by
/// the disk count) or a matching round stops shrinking the graph.
const COARSEST_NODES: usize = 64;

/// Maximum refinement passes per level; each pass strictly improves the
/// internal co-access weight or the balance, so this is a backstop.
const MAX_REFINE_PASSES: usize = 8;

/// Weighted fragment co-access graph: one node per fragment (carrying
/// its byte size and access heat), one undirected edge per co-accessed
/// fragment pair (carrying the accumulated joint query-class heat).
#[derive(Debug, Clone)]
pub struct CoAccessGraph {
    level: Level,
    num_edges: usize,
}

impl CoAccessGraph {
    /// Starts building a graph over `sizes.len()` fragments.
    pub fn builder(sizes: Vec<u64>) -> CoAccessBuilder {
        let n = sizes.len();
        CoAccessBuilder {
            sizes,
            heats: vec![0.0; n],
            pairs: Vec::new(),
        }
    }

    /// Number of fragment nodes.
    pub fn num_fragments(&self) -> usize {
        self.level.sizes.len()
    }

    /// Number of distinct co-access edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Per-fragment byte sizes.
    pub fn sizes(&self) -> &[u64] {
        &self.level.sizes
    }

    /// Per-fragment accumulated access heat.
    pub fn heats(&self) -> &[f64] {
        &self.level.heats
    }
}

/// Incremental [`CoAccessGraph`] construction from per-class accessed
/// fragment sets.
#[derive(Debug, Clone)]
pub struct CoAccessBuilder {
    sizes: Vec<u64>,
    heats: Vec<f64>,
    /// Every `(u, v, weight)` pair contribution with `u < v`, in the
    /// order the groups were added; [`merge_edges`] folds duplicates.
    pairs: Vec<(u32, u32, f64)>,
}

impl CoAccessBuilder {
    /// Accumulates access heat on one fragment node.
    ///
    /// # Panics
    ///
    /// Panics if the fragment index is out of range or the heat is not
    /// a finite non-negative number.
    pub fn add_heat(&mut self, fragment: u32, heat: f64) {
        assert!(
            heat.is_finite() && heat >= 0.0,
            "fragment heat must be finite and non-negative, got {heat}"
        );
        self.heats[fragment as usize] += heat;
    }

    /// Records one query class's co-accessed fragment group: every pair
    /// in `fragments` gains `weight / (group − 1)` edge weight, so a
    /// node's incident weight from one class stays ~`weight` no matter
    /// how wide the class reads. Groups wider than `MAX_CLIQUE_GROUP` (512)
    /// are skipped (scan-everything classes carry no placement signal);
    /// duplicate indices are deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the weight is not a finite
    /// non-negative number.
    pub fn add_group(&mut self, fragments: &[u32], weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "co-access weight must be finite and non-negative, got {weight}"
        );
        let mut group: Vec<u32> = fragments.to_vec();
        group.sort_unstable();
        group.dedup();
        for &f in &group {
            assert!(
                (f as usize) < self.sizes.len(),
                "fragment {f} out of range ({} fragments)",
                self.sizes.len()
            );
        }
        if group.len() < 2 || group.len() > MAX_CLIQUE_GROUP || weight == 0.0 {
            return;
        }
        let per_pair = weight / (group.len() - 1) as f64;
        for (i, &u) in group.iter().enumerate() {
            self.pairs
                .extend(group[i + 1..].iter().map(|&v| (u, v, per_pair)));
        }
    }

    /// Finalizes the graph.
    pub fn build(self) -> CoAccessGraph {
        let (adj, num_edges) = merge_edges(self.sizes.len(), self.pairs);
        CoAccessGraph {
            level: Level {
                sizes: self.sizes,
                heats: self.heats,
                adj,
            },
            num_edges,
        }
    }
}

/// Undirected weighted adjacency in compressed sparse row form: the
/// neighbors of node `u`, sorted by id, are
/// `edges[offsets[u]..offsets[u + 1]]`.
#[derive(Debug, Clone)]
struct Adjacency {
    offsets: Vec<usize>,
    edges: Vec<(u32, f64)>,
}

impl Adjacency {
    /// The `(neighbor, weight)` list of node `u`, sorted by neighbor.
    #[inline]
    fn of(&self, u: usize) -> &[(u32, f64)] {
        &self.edges[self.offsets[u]..self.offsets[u + 1]]
    }
}

/// Folds `(u, v, w)` contributions (`u < v`, `n` nodes) into one edge
/// per distinct pair and returns the adjacency plus the edge count.
///
/// The stable sort keeps each pair's contributions in the order they
/// were pushed, and each run is summed left to right from `0.0`: the
/// same additions, in the same order, as accumulating into a map entry
/// by entry, so every edge weight is bit-identical to that.
fn merge_edges(n: usize, mut pairs: Vec<(u32, u32, f64)>) -> (Adjacency, usize) {
    pairs.sort_by_key(|&(u, v, _)| (u, v));
    let mut len = 0usize;
    for i in 0..pairs.len() {
        let (u, v, w) = pairs[i];
        if len > 0 && (pairs[len - 1].0, pairs[len - 1].1) == (u, v) {
            pairs[len - 1].2 += w;
        } else {
            pairs[len] = (u, v, 0.0 + w);
            len += 1;
        }
    }
    pairs.truncate(len);

    let mut offsets = vec![0usize; n + 1];
    for &(u, v, _) in &pairs {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    // Walking the pairs in `(u, v)` order appends every node's lower
    // neighbors (as some earlier `u`'s `v`) before its higher ones (as
    // its own `u`), each in ascending order: the lists come out sorted.
    let mut fill = offsets[..n].to_vec();
    let mut edges = vec![(0u32, 0.0f64); 2 * pairs.len()];
    for &(u, v, w) in &pairs {
        edges[fill[u as usize]] = (v, w);
        fill[u as usize] += 1;
        edges[fill[v as usize]] = (u, w);
        fill[v as usize] += 1;
    }
    (Adjacency { offsets, edges }, pairs.len())
}

/// splitmix64 — the deterministic tie-break hash. Same generator the
/// scenario fleet uses; chosen for a full-period avalanche on cheap
/// integer inputs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Residual tie-break key for placing `node` on `disk` under `seed`.
fn tie_key(seed: u64, node: u32, disk: u32) -> u64 {
    splitmix64(seed ^ (u64::from(node) << 32) ^ u64::from(disk))
}

/// One level of the multilevel hierarchy: the input graph itself or a
/// coarsened copy of it.
#[derive(Debug, Clone)]
struct Level {
    sizes: Vec<u64>,
    heats: Vec<f64>,
    adj: Adjacency,
}

/// Partitions the co-access graph across `num_disks` disks, scattering
/// co-accessed fragments while balancing bytes and heat.
///
/// When the graph has no edges there is no co-access signal at all and
/// the partitioner degrades gracefully to [`greedy_by_size`] (the
/// returned allocation reports [`AllocationScheme::GreedySize`]).
/// Otherwise the allocation reports
/// [`AllocationScheme::GraphPartition`].
///
/// Same graph + disks + seed ⇒ byte-identical placement; the seed only
/// perturbs residual tie-breaks.
///
/// # Panics
///
/// Panics if `num_disks` is zero.
pub fn partition_coaccess(graph: &CoAccessGraph, num_disks: u32, seed: u64) -> Allocation {
    assert!(num_disks > 0, "partition_coaccess needs at least one disk");
    if graph.num_edges == 0 {
        return greedy_by_size(graph.level.sizes.clone(), num_disks);
    }

    // Coarsen: affinity-match until the graph is small or stops shrinking.
    // `coarse[i]` is level `i + 1`; level 0 is the input graph.
    let target = COARSEST_NODES.max(num_disks as usize * 4);
    let mut coarse: Vec<Level> = Vec::new();
    let mut maps: Vec<Vec<u32>> = Vec::new();
    loop {
        let finer = coarse.last().unwrap_or(&graph.level);
        if finer.sizes.len() <= target {
            break;
        }
        let (next, map) = coarsen(finer);
        // A matching round that shrinks by <5 % has hit structural
        // saturation (e.g. a dense clique) — stop rather than loop.
        if next.sizes.len() as f64 > finer.sizes.len() as f64 * 0.95 {
            break;
        }
        coarse.push(next);
        maps.push(map);
    }

    // Initial partition on the coarsest level, then refine while
    // projecting back down through the matching hierarchy.
    let coarsest = coarse.last().unwrap_or(&graph.level);
    let mut assignment = initial_partition(coarsest, num_disks, seed);
    refine(coarsest, num_disks, seed, &mut assignment);
    for lvl in (0..maps.len()).rev() {
        let fine = lvl.checked_sub(1).map_or(&graph.level, |i| &coarse[i]);
        let map = &maps[lvl];
        let mut fine_assignment = vec![0u32; fine.sizes.len()];
        for (f, &c) in map.iter().enumerate() {
            fine_assignment[f] = assignment[c as usize];
        }
        assignment = fine_assignment;
        refine(fine, num_disks, seed, &mut assignment);
    }

    Allocation::new(
        AllocationScheme::GraphPartition,
        num_disks,
        assignment,
        graph.level.sizes.clone(),
    )
}

/// One round of affinity matching: visit nodes hot-first; pair each
/// unmatched node with its *lightest* co-access partner — the
/// heavy-edge rule on the co-residence affinity graph, where affinity
/// is maximal between fragments no query reads together. An unmatched
/// non-neighbor (affinity ∞) beats every neighbor.
fn coarsen(level: &Level) -> (Level, Vec<u32>) {
    let n = level.sizes.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        level.heats[b as usize]
            .total_cmp(&level.heats[a as usize])
            .then(a.cmp(&b))
    });

    let mut mate: Vec<Option<u32>> = vec![None; n];
    // Cursor into `order` for the next unmatched non-neighbor probe.
    let mut probe = 0usize;
    for &u in &order {
        if mate[u as usize].is_some() {
            continue;
        }
        // Advance the shared probe past matched nodes.
        while probe < n && mate[order[probe] as usize].is_some() {
            probe += 1;
        }
        // Candidate 1: the next unmatched node in hot order that is not
        // u itself and not a neighbor — zero co-access, best affinity.
        let neighbor_of = |v: u32| {
            level
                .adj
                .of(u as usize)
                .binary_search_by(|&(w, _)| w.cmp(&v))
                .is_ok()
        };
        let mut free: Option<u32> = None;
        for &v in order.iter().skip(probe) {
            if v != u && mate[v as usize].is_none() && !neighbor_of(v) {
                free = Some(v);
                break;
            }
        }
        let partner = if let Some(v) = free {
            Some(v)
        } else {
            // Candidate 2: the unmatched neighbor with the least
            // co-access weight (ties: lower id).
            level
                .adj
                .of(u as usize)
                .iter()
                .filter(|&&(v, _)| mate[v as usize].is_none() && v != u)
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .map(|&(v, _)| v)
        };
        mate[u as usize] = Some(u);
        if let Some(v) = partner {
            mate[u as usize] = Some(v);
            mate[v as usize] = Some(u);
        }
    }

    // Number coarse nodes in fine-index order for determinism.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for f in 0..n {
        if map[f] != u32::MAX {
            continue;
        }
        map[f] = next;
        let m = mate[f].unwrap_or(f as u32) as usize;
        if m != f {
            map[m] = next;
        }
        next += 1;
    }

    let coarse_n = next as usize;
    let mut sizes = vec![0u64; coarse_n];
    let mut heats = vec![0.0f64; coarse_n];
    for (f, &c) in map.iter().enumerate() {
        sizes[c as usize] += level.sizes[f];
        heats[c as usize] += level.heats[f];
    }
    // Merge edges; intra-pair weight disappears (its placement cost is
    // now fixed and common to every assignment).
    let mut pairs: Vec<(u32, u32, f64)> = Vec::with_capacity(level.adj.edges.len() / 2);
    for (f, &cu) in map.iter().enumerate() {
        for &(v, w) in level.adj.of(f) {
            if (v as usize) <= f {
                continue; // each undirected edge once
            }
            let cv = map[v as usize];
            if cu != cv {
                pairs.push((cu.min(cv), cu.max(cv), w));
            }
        }
    }
    let (adj, _) = merge_edges(coarse_n, pairs);
    (Level { sizes, heats, adj }, map)
}

/// Greedy balanced initial partition: nodes hot-first (then big-first),
/// each onto the disk minimizing (co-access to residents, heat load,
/// byte load, seed hash, disk id) among disks within the capacity
/// slack — all disks when none qualifies.
fn initial_partition(level: &Level, num_disks: u32, seed: u64) -> Vec<u32> {
    let n = level.sizes.len();
    let d = num_disks as usize;
    let total: u64 = level.sizes.iter().sum();
    let cap = capacity(total, num_disks);

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let (a_us, b_us) = (a as usize, b as usize);
        level.heats[b_us]
            .total_cmp(&level.heats[a_us])
            .then(level.sizes[b_us].cmp(&level.sizes[a_us]))
            .then(a.cmp(&b))
    });

    let mut assignment = vec![u32::MAX; n];
    let mut byte_load = vec![0u64; d];
    let mut heat_load = vec![0.0f64; d];
    let mut co_weight = vec![0.0f64; d]; // scratch, reset per node
    for &u in &order {
        let us = u as usize;
        co_weight.iter_mut().for_each(|w| *w = 0.0);
        for &(v, w) in level.adj.of(us) {
            let dv = assignment[v as usize];
            if dv != u32::MAX {
                co_weight[dv as usize] += w;
            }
        }
        let fits = |disk: usize| byte_load[disk] + level.sizes[us] <= cap;
        let any_fits = (0..d).any(fits);
        let best = (0..d)
            .filter(|&disk| !any_fits || fits(disk))
            .min_by(|&a, &b| {
                co_weight[a]
                    .total_cmp(&co_weight[b])
                    .then(heat_load[a].total_cmp(&heat_load[b]))
                    .then(byte_load[a].cmp(&byte_load[b]))
                    .then_with(|| tie_key(seed, u, a as u32).cmp(&tie_key(seed, u, b as u32)))
                    .then(a.cmp(&b))
            })
            .expect("at least one disk");
        assignment[us] = best as u32;
        byte_load[best] += level.sizes[us];
        heat_load[best] += level.heats[us];
    }
    assignment
}

/// FM-style refinement: bounded passes of best-gain single-node moves.
/// A move is applied when it sheds internal co-access weight, or sheds
/// none but strictly improves byte balance; capacity slack is enforced
/// except for moves that reduce the donor disk's overflow.
fn refine(level: &Level, num_disks: u32, seed: u64, assignment: &mut [u32]) {
    let n = level.sizes.len();
    let d = num_disks as usize;
    if d < 2 || n == 0 {
        return;
    }
    let total: u64 = level.sizes.iter().sum();
    let cap = capacity(total, num_disks);

    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        level.heats[b as usize]
            .total_cmp(&level.heats[a as usize])
            .then(a.cmp(&b))
    });

    let mut byte_load = vec![0u64; d];
    let mut heat_load = vec![0.0f64; d];
    for (f, &disk) in assignment.iter().enumerate() {
        byte_load[disk as usize] += level.sizes[f];
        heat_load[disk as usize] += level.heats[f];
    }

    let mut co_weight = vec![0.0f64; d];
    for _ in 0..MAX_REFINE_PASSES {
        let mut moved = false;
        for &u in &order {
            let us = u as usize;
            let from = assignment[us] as usize;
            co_weight.iter_mut().for_each(|w| *w = 0.0);
            for &(v, w) in level.adj.of(us) {
                co_weight[assignment[v as usize] as usize] += w;
            }
            let size = level.sizes[us];
            let candidate = (0..d)
                .filter(|&to| to != from)
                .filter(|&to| {
                    // Keep the receiver inside the slack, unless the
                    // donor is the overflowing disk and the move still
                    // leaves the receiver lighter than the donor was.
                    byte_load[to] + size <= cap
                        || (byte_load[from] > cap && byte_load[to] + size < byte_load[from])
                })
                .min_by(|&a, &b| {
                    co_weight[a]
                        .total_cmp(&co_weight[b])
                        .then(heat_load[a].total_cmp(&heat_load[b]))
                        .then(byte_load[a].cmp(&byte_load[b]))
                        .then_with(|| tie_key(seed, u, a as u32).cmp(&tie_key(seed, u, b as u32)))
                        .then(a.cmp(&b))
                });
            let Some(to) = candidate else { continue };
            let gain = co_weight[from] - co_weight[to];
            let rebalances = co_weight[from] == co_weight[to]
                && byte_load[to] + size < byte_load[from]
                && heat_load[to] + level.heats[us] < heat_load[from];
            if gain > 0.0 || rebalances {
                assignment[us] = to as u32;
                byte_load[from] -= size;
                byte_load[to] += size;
                heat_load[from] -= level.heats[us];
                heat_load[to] += level.heats[us];
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Per-disk byte capacity: the balanced mean plus [`BALANCE_SLACK`].
fn capacity(total_bytes: u64, num_disks: u32) -> u64 {
    let mean = total_bytes as f64 / f64::from(num_disks);
    (mean * (1.0 + BALANCE_SLACK)).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// 8 fragments on 4 disks; classes read pairs (0,4)…(3,7) with
    /// descending heat. Sizes are rigged so greedy-by-size *and*
    /// round-robin both co-locate every pair.
    fn correlated_graph() -> CoAccessGraph {
        let sizes = vec![130, 120, 110, 100, 70, 80, 90, 100];
        let mut b = CoAccessGraph::builder(sizes);
        let shares = [0.4, 0.3, 0.2, 0.1];
        for (i, &share) in shares.iter().enumerate() {
            let pair = [i as u32, i as u32 + 4];
            b.add_group(&pair, share);
            for &f in &pair {
                b.add_heat(f, share * 10.0);
            }
        }
        b.build()
    }

    #[test]
    fn scatters_correlated_pairs_that_greedy_colocates() {
        let g = correlated_graph();
        // Confirm the fixture is adversarial: greedy and round-robin
        // both put each co-accessed pair on one disk.
        let greedy = greedy_by_size(g.sizes().to_vec(), 4);
        let rr = crate::round_robin(g.sizes().to_vec(), 4);
        for f in 0..4usize {
            assert_eq!(greedy.disk_of(f), greedy.disk_of(f + 4));
            assert_eq!(rr.disk_of(f), rr.disk_of(f + 4));
        }
        let part = partition_coaccess(&g, 4, 0);
        assert_eq!(part.scheme(), AllocationScheme::GraphPartition);
        for f in 0..4usize {
            assert_ne!(
                part.disk_of(f),
                part.disk_of(f + 4),
                "pair ({f},{}) not scattered",
                f + 4
            );
        }
        // Bytes stay inside the slack.
        let stats = part.occupancy_stats();
        assert!(stats.imbalance <= 1.0 + BALANCE_SLACK + 1e-9);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let g = correlated_graph();
        let a = partition_coaccess(&g, 4, 7);
        let b = partition_coaccess(&g, 4, 7);
        assert_eq!(a.placements(), b.placements(), "same seed ⇒ identical");
        // Different seeds may differ, but both must scatter the pairs.
        let c = partition_coaccess(&g, 4, 8);
        for f in 0..4usize {
            assert_ne!(c.disk_of(f), c.disk_of(f + 4));
        }
    }

    #[test]
    fn edgeless_graph_degrades_to_greedy() {
        let sizes = vec![500u64, 10, 10, 10, 10];
        let g = CoAccessGraph::builder(sizes.clone()).build();
        assert_eq!(g.num_edges(), 0);
        let part = partition_coaccess(&g, 2, 0);
        let greedy = greedy_by_size(sizes, 2);
        assert_eq!(part.scheme(), AllocationScheme::GreedySize);
        assert_eq!(part.placements(), greedy.placements());
    }

    #[test]
    fn wide_groups_contribute_no_edges() {
        let n = MAX_CLIQUE_GROUP + 1;
        let mut b = CoAccessGraph::builder(vec![1; n]);
        let all: Vec<u32> = (0..n as u32).collect();
        b.add_group(&all, 5.0);
        assert_eq!(b.build().num_edges(), 0);
    }

    /// 1000 fragments, 50 classes each reading a strided band of 20:
    /// big enough to force several coarsening levels.
    fn banded_graph() -> CoAccessGraph {
        let n = 1000usize;
        let sizes: Vec<u64> = (0..n as u64).map(|i| 50 + (i * 13) % 100).collect();
        let mut b = CoAccessGraph::builder(sizes);
        for c in 0..50u32 {
            let frags: Vec<u32> = (0..20u32).map(|k| (c * 7 + k * 50) % n as u32).collect();
            b.add_group(&frags, 1.0 + f64::from(c % 5));
            for &f in &frags {
                b.add_heat(f, 0.1);
            }
        }
        b.build()
    }

    /// 2000 fragments, 30 overlapping strided groups of 2 to 160
    /// fragments (plus skipped over-wide ones): many pairs gain weight
    /// from several groups, at every coarsening level.
    fn overlapping_graph() -> CoAccessGraph {
        let n = 2000u32;
        let sizes: Vec<u64> = (0..u64::from(n))
            .map(|i| 4096 + (i * 7919) % 65_536)
            .collect();
        let mut b = CoAccessGraph::builder(sizes);
        let widths = [2usize, 3, 17, 40, 64, 100, 160, MAX_CLIQUE_GROUP + 1];
        for c in 0..30u32 {
            let width = widths[c as usize % widths.len()];
            let stride = 1 + c % 7;
            let frags: Vec<u32> = (0..width as u32)
                .map(|k| (c * 61 + k * stride) % n)
                .collect();
            let weight = 0.25 + f64::from(c % 9) * 0.7;
            b.add_group(&frags, weight);
            for &f in &frags {
                b.add_heat(f, weight / width as f64);
            }
        }
        b.build()
    }

    /// The shape of the `fit` benchmark warehouse's top candidate:
    /// 13,824 fragments and six class groups, of which only the
    /// 192-fragment one (every 72nd fragment) is narrow enough to form a
    /// clique — 18,336 edges.
    fn fit_shaped_graph() -> CoAccessGraph {
        let n = 13_824u32;
        let sizes: Vec<u64> = (0..u64::from(n))
            .map(|i| 9_437_184 + (i * 7919) % 1024 * 4096)
            .collect();
        let mut b = CoAccessGraph::builder(sizes);
        let groups: [(Vec<u32>, f64, f64); 6] = [
            ((0..576).collect(), 0.2581, 0.9),
            ((0..2304).collect(), 0.0645, 0.4),
            ((0..n).step_by(8).collect(), 0.2903, 0.6),
            ((0..n).step_by(4).collect(), 0.1613, 0.3),
            ((0..n).step_by(72).collect(), 0.1935, 2.5),
            ((0..2304).collect(), 0.0323, 0.4),
        ];
        for (frags, share, ms) in &groups {
            b.add_group(frags, share * ms * frags.len() as f64);
            for &f in frags {
                b.add_heat(f, share * ms);
            }
        }
        b.build()
    }

    /// FNV-1a over the little-endian placement bytes.
    fn placement_fnv(allocation: &Allocation) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &d in allocation.placements() {
            for b in d.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn placements_match_the_map_accumulation_goldens() {
        // Recorded with the original `BTreeMap` edge accumulation: the
        // flat merge must reproduce every placement bit for bit.
        let cases = [
            (correlated_graph(), 4, 0, 4, 0x8349_08bb_9249_6b45u64),
            (correlated_graph(), 4, 7, 4, 0x0c49_3a81_afa6_ea25),
            (correlated_graph(), 4, 8, 4, 0xc31a_0b83_9566_45a5),
            (banded_graph(), 16, 3, 9500, 0x45a0_d333_8700_f965),
            (overlapping_graph(), 16, 5, 62_468, 0xd0b4_7e9f_5a51_fce7),
            (fit_shaped_graph(), 32, 0, 18_336, 0x6905_12d4_e013_c295),
            (fit_shaped_graph(), 32, 1, 18_336, 0x135d_eedc_dcf9_9315),
        ];
        for (i, (graph, disks, seed, edges, golden)) in cases.into_iter().enumerate() {
            assert_eq!(graph.num_edges(), edges, "case {i} edges");
            let part = partition_coaccess(&graph, disks, seed);
            assert_eq!(part.scheme(), AllocationScheme::GraphPartition);
            assert_eq!(placement_fnv(&part), golden, "case {i} placement");
        }
    }

    /// Adjacency as `(neighbor, weight bits)` lists, for exact equality.
    fn adjacency_bits(adj: &Adjacency, n: usize) -> Vec<Vec<(u32, u64)>> {
        (0..n)
            .map(|u| adj.of(u).iter().map(|&(v, w)| (v, w.to_bits())).collect())
            .collect()
    }

    /// The original accumulation, kept as the oracle: every pair
    /// contribution summed into its `BTreeMap` entry in arrival order,
    /// adjacency read off in key order.
    fn map_adjacency(n: usize, pairs: &[(u32, u32, f64)]) -> (Vec<Vec<(u32, u64)>>, usize) {
        let mut edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for &(u, v, w) in pairs {
            *edges.entry((u, v)).or_insert(0.0) += w;
        }
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (&(u, v), &w) in &edges {
            adj[u as usize].push((v, w.to_bits()));
            adj[v as usize].push((u, w.to_bits()));
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|a| a.0);
        }
        (adj, edges.len())
    }

    /// The pair contributions `add_group` makes, in the order it makes
    /// them (the builder's dedup and width rules included).
    fn group_pairs(groups: &[(Vec<u32>, f64)]) -> Vec<(u32, u32, f64)> {
        let mut pairs = Vec::new();
        for (frags, weight) in groups {
            let mut group = frags.clone();
            group.sort_unstable();
            group.dedup();
            if group.len() < 2 || group.len() > MAX_CLIQUE_GROUP || *weight == 0.0 {
                continue;
            }
            let per_pair = weight / (group.len() - 1) as f64;
            for (i, &u) in group.iter().enumerate() {
                for &v in &group[i + 1..] {
                    pairs.push((u, v, per_pair));
                }
            }
        }
        pairs
    }

    /// A random node count and co-access groups over it: short groups
    /// with repeated indices, plus (on larger graphs) strided windows of
    /// exactly [`MAX_CLIQUE_GROUP`] or one more.
    fn arb_groups() -> impl Strategy<Value = (usize, Vec<(Vec<u32>, f64)>)> {
        (2usize..1200).prop_flat_map(|n| {
            let short = (proptest::collection::vec(0..n as u32, 0..12), 0.0f64..10.0);
            let wide = (0..n as u32, 1u32..3, any::<bool>(), 0.01f64..10.0);
            (
                proptest::collection::vec(short, 0..16),
                proptest::collection::vec(wide, 0..3),
            )
                .prop_map(move |(mut groups, wide)| {
                    // Strides of 1 or 2 keep a window's indices distinct.
                    if n >= 2 * (MAX_CLIQUE_GROUP + 1) {
                        for (start, stride, over, weight) in wide {
                            let width = MAX_CLIQUE_GROUP + usize::from(over);
                            let frags = (0..width as u32)
                                .map(|k| (start + k * stride) % n as u32)
                                .collect();
                            groups.push((frags, weight));
                        }
                    }
                    (n, groups)
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn flat_merge_matches_the_map_accumulation(input in arb_groups()) {
            let (n, groups) = input;
            let mut b = CoAccessGraph::builder(vec![1; n]);
            for (frags, weight) in &groups {
                b.add_group(frags, *weight);
            }
            let graph = b.build();
            let (expected, edges) = map_adjacency(n, &group_pairs(&groups));
            prop_assert_eq!(graph.num_edges(), edges);
            prop_assert_eq!(adjacency_bits(&graph.level.adj, n), expected);

            // One coarsening round merges through the same helper.
            let (coarse, map) = coarsen(&graph.level);
            let mut pairs = Vec::new();
            for u in 0..n {
                for &(v, w) in graph.level.adj.of(u) {
                    let (cu, cv) = (map[u], map[v as usize]);
                    if (v as usize) > u && cu != cv {
                        pairs.push((cu.min(cv), cu.max(cv), w));
                    }
                }
            }
            let coarse_n = coarse.sizes.len();
            let (expected, _) = map_adjacency(coarse_n, &pairs);
            prop_assert_eq!(adjacency_bits(&coarse.adj, coarse_n), expected);
        }
    }

    #[test]
    fn multilevel_path_covers_every_fragment_once() {
        let n = 1000usize;
        let g = banded_graph();
        assert!(g.num_edges() > 0);
        let part = partition_coaccess(&g, 16, 3);
        assert_eq!(part.num_fragments(), n);
        assert_eq!(part.fragment_counts().iter().sum::<u32>() as usize, n);
        assert!(part.placements().iter().all(|&d| d < 16));
        let stats = part.occupancy_stats();
        assert!(
            stats.imbalance <= 1.0 + BALANCE_SLACK + 0.05,
            "imbalance {}",
            stats.imbalance
        );
        // Determinism through the full multilevel path.
        let again = partition_coaccess(&g, 16, 3);
        assert_eq!(part.placements(), again.placements());
    }

    #[test]
    fn empty_and_single_fragment_graphs() {
        let g = CoAccessGraph::builder(Vec::new()).build();
        let part = partition_coaccess(&g, 4, 0);
        assert_eq!(part.num_fragments(), 0);
        let mut b = CoAccessGraph::builder(vec![42]);
        b.add_heat(0, 1.0);
        b.add_group(&[0, 0], 1.0); // self-group: dedups to one node, no edge
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        let part = partition_coaccess(&g, 4, 0);
        assert_eq!(part.num_fragments(), 1);
    }
}
