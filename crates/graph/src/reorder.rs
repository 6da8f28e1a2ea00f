//! Degree-descending graph reordering (Section 2.1).
//!
//! BMP's per-intersection complexity bound `O(min(d_u, d_v))` relies on the
//! invariant `u < v ⇒ d_u ≥ d_v`: the bitmap is always built for the
//! larger-degree endpoint and the smaller neighbor list is the probe side.
//! The relabeling sorts vertices by descending degree (ties broken by old
//! id, making it deterministic) and remaps every neighbor run, re-sorting
//! each one: `O(|V| log |V| + Σ d log d)` against the paper's
//! `O(|V| log |V| + |E|)`, with no global pair sort.

use crate::csr::{prefix_offsets, CsrGraph};
use std::fmt;
use std::sync::OnceLock;

/// The result of a degree-descending relabel.
///
/// Besides the two vertex tables it can hold the relabel's *edge map*
/// `new_eid[e]`: the relabeled slot `e(φ(u), φ(v))` of every slot `e(u, v)`
/// of the original graph. The map is derived data, built the first time a
/// count is carried back to input order (`cnc_core::remap`) and kept for
/// the life of the relabel at 4 B per directed edge. Clones start without
/// it, and `PartialEq` and `Debug` ignore it.
#[derive(Clone, PartialEq, Eq)]
pub struct Reordered {
    /// The relabeled graph (new ids).
    pub graph: CsrGraph,
    /// `old_to_new[old_id] = new_id`.
    pub old_to_new: Vec<u32>,
    /// `new_to_old[new_id] = old_id`.
    pub new_to_old: Vec<u32>,
    edge_map: EdgeMap,
}

/// The lazily kept edge map of a [`Reordered`]; see there.
#[derive(Default)]
struct EdgeMap(OnceLock<Box<[u32]>>);

impl Clone for EdgeMap {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for EdgeMap {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for EdgeMap {}

impl fmt::Debug for Reordered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reordered")
            .field("graph", &self.graph)
            .field("old_to_new", &self.old_to_new)
            .field("new_to_old", &self.new_to_old)
            .finish_non_exhaustive()
    }
}

impl Reordered {
    /// A relabel from its parts, with no edge map yet.
    pub(crate) fn new(graph: CsrGraph, old_to_new: Vec<u32>, new_to_old: Vec<u32>) -> Self {
        Self {
            graph,
            old_to_new,
            new_to_old,
            edge_map: EdgeMap::default(),
        }
    }

    /// The edge map `new_eid[e]` (indexed by the original graph's slots),
    /// if a remap has built it.
    pub fn edge_map(&self) -> Option<&[u32]> {
        self.edge_map.0.get().map(|m| &**m)
    }

    /// Keep `new_eid` as this relabel's edge map and return the kept map.
    /// The first map kept wins: a map built concurrently by another thread
    /// for the same relabel is identical, so a later one is dropped.
    ///
    /// The caller vouches that `new_eid` is the edge map of this relabel and
    /// the original graph it was computed from: every later remap reads
    /// counts through it without a search.
    pub fn keep_edge_map(&self, new_eid: Vec<u32>) -> &[u32] {
        self.edge_map.0.get_or_init(|| new_eid.into_boxed_slice())
    }

    /// Translate an old vertex id to the relabeled id.
    pub fn to_new(&self, old: u32) -> u32 {
        self.old_to_new[old as usize]
    }

    /// Translate a relabeled id back to the original id.
    pub fn to_old(&self, new: u32) -> u32 {
        self.new_to_old[new as usize]
    }
}

/// Relabel so vertex ids are in descending degree order.
pub fn degree_descending(g: &CsrGraph) -> Reordered {
    let mut new_to_old = vec![0u32; g.num_vertices()];
    degree_order(g.offsets(), &mut new_to_old);
    relabel(g, new_to_old)
}

/// Fill `order` (length |V|) with the vertex ids of the CSR `offsets` by
/// descending degree, ascending old id on ties: deterministic.
pub(crate) fn degree_order(offsets: &[usize], order: &mut [u32]) {
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i as u32;
    }
    let degree = |v: u32| offsets[v as usize + 1] - offsets[v as usize];
    order.sort_unstable_by(|&a, &b| degree(b).cmp(&degree(a)).then_with(|| a.cmp(&b)));
}

/// The relabel of `g` in which new vertex `i` is old vertex `new_to_old[i]`.
fn relabel(g: &CsrGraph, new_to_old: Vec<u32>) -> Reordered {
    let mut offsets = vec![0usize; g.num_vertices() + 1];
    let mut dst = vec![0u32; g.num_directed_edges()];
    let old_to_new = relabel_into(g.offsets(), g.dst(), &new_to_old, &mut offsets, &mut dst);
    Reordered::new(CsrGraph::from_built(offsets, dst), old_to_new, new_to_old)
}

/// Relabel the CSR (`offsets`, `dst`) by the vertex order `new_to_old` into
/// `new_offsets` (|V| + 1) and `new_dst` (|E|), returning the inverse
/// old→new table. New vertex `i`'s run is old vertex `new_to_old[i]`'s run
/// mapped through the inverse and sorted in place — `O(|V| + Σ d log d)`,
/// with no global pair sort and no scratch beyond the inverse.
pub(crate) fn relabel_into(
    offsets: &[usize],
    dst: &[u32],
    new_to_old: &[u32],
    new_offsets: &mut [usize],
    new_dst: &mut [u32],
) -> Vec<u32> {
    let mut old_to_new = vec![0u32; new_to_old.len()];
    for (new_id, &old_id) in new_to_old.iter().enumerate() {
        old_to_new[old_id as usize] = new_id as u32;
    }
    let run = |old: u32| &dst[offsets[old as usize]..offsets[old as usize + 1]];
    prefix_offsets(new_to_old.iter().map(|&old| run(old).len()), new_offsets);
    for (new_id, &old_id) in new_to_old.iter().enumerate() {
        let out = &mut new_dst[new_offsets[new_id]..new_offsets[new_id + 1]];
        for (slot, &v) in out.iter_mut().zip(run(old_id)) {
            *slot = old_to_new[v as usize];
        }
        out.sort_unstable();
    }
    old_to_new
}

/// Check the BMP invariant on a graph: `u < v ⇒ d_u ≥ d_v`.
pub fn is_degree_descending(g: &CsrGraph) -> bool {
    (1..g.num_vertices() as u32).all(|u| g.degree(u - 1) >= g.degree(u))
}

/// Core numbers of every vertex (k-core decomposition) via the linear-time
/// bucket peeling of Batagelj–Zaveršnik: repeatedly remove the vertex of
/// minimum remaining degree; a vertex's core number is its degree at
/// removal time (made monotone).
pub fn core_numbers(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = (0..n as u32).map(|u| g.degree(u)).collect();
    let max_d = degree.iter().copied().max().unwrap_or(0);
    // Bucket sort vertices by degree.
    let mut bin = vec![0usize; max_d + 2];
    for &d in &degree {
        bin[d] += 1;
    }
    let mut start = 0usize;
    for b in bin.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut vert = vec![0u32; n];
    for u in 0..n {
        let p = bin[degree[u]];
        pos[u] = p;
        vert[p] = u as u32;
        bin[degree[u]] += 1;
    }
    // Restore bin starts.
    for d in (1..bin.len()).rev() {
        bin[d] = bin[d - 1];
    }
    bin[0] = 0;
    // Peel.
    let mut core = vec![0u32; n];
    for i in 0..n {
        let u = vert[i];
        core[u as usize] = degree[u as usize] as u32;
        for &v in g.neighbors(u) {
            let v = v as usize;
            if degree[v] > degree[u as usize] {
                // Move v one bucket down: swap with the first vertex of its
                // current bucket.
                let dv = degree[v];
                let pv = pos[v];
                let pw = bin[dv];
                let w = vert[pw];
                if v as u32 != w {
                    vert[pv] = w;
                    vert[pw] = v as u32;
                    pos[v] = pw;
                    pos[w as usize] = pv;
                }
                bin[dv] += 1;
                degree[v] -= 1;
            }
        }
    }
    core
}

/// The graph's degeneracy: the maximum core number.
pub fn degeneracy(g: &CsrGraph) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

/// Relabel by *descending core number* (ties by descending degree, then old
/// id) — an alternative preprocessing for BMP: core-descending order puts
/// the densest subgraph first, which clusters common-neighbor bit positions
/// even more tightly than plain degree order on some graphs. Compared in
/// the `ablation_reorder` bench.
pub fn core_descending(g: &CsrGraph) -> Reordered {
    let n = g.num_vertices();
    let core = core_numbers(g);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        core[b as usize]
            .cmp(&core[a as usize])
            .then_with(|| g.degree(b).cmp(&g.degree(a)))
            .then_with(|| a.cmp(&b))
    });
    relabel(g, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::generators;
    use proptest::prelude::*;

    /// Reference relabel: map every `u < v` pair through the inverse of
    /// `new_to_old` and rebuild the CSR from scratch.
    fn reference_relabel(g: &CsrGraph, new_to_old: &[u32]) -> Reordered {
        let mut old_to_new = vec![0u32; new_to_old.len()];
        for (new_id, &old_id) in new_to_old.iter().enumerate() {
            old_to_new[old_id as usize] = new_id as u32;
        }
        let pairs = g
            .iter_edges()
            .filter(|&(_, u, v)| u < v)
            .map(|(_, u, v)| (old_to_new[u as usize], old_to_new[v as usize]));
        Reordered::new(
            CsrGraph::from_undirected_pairs(g.num_vertices(), pairs),
            old_to_new,
            new_to_old.to_vec(),
        )
    }

    /// The three vertex orders the shared relabel serves, each checked
    /// against the reference.
    fn check_all_orders(g: &CsrGraph, seed: u64) {
        let n = g.num_vertices() as u32;
        let mut by_degree: Vec<u32> = (0..n).collect();
        by_degree.sort_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
        assert_eq!(degree_descending(g), reference_relabel(g, &by_degree));

        let by_core = core_descending(g);
        assert_eq!(by_core, reference_relabel(g, &by_core.new_to_old));

        // x ↦ (x ^ seed) · odd is a bijection on u64: distinct sort keys.
        let mut random: Vec<u32> = (0..n).collect();
        random.sort_by_key(|&v| (u64::from(v) ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        assert_eq!(relabel(g, random.clone()), reference_relabel(g, &random));
    }

    #[test]
    fn shared_relabel_matches_reference_on_edge_cases() {
        for g in [
            CsrGraph::from_edge_list(&EdgeList::new(0)),
            CsrGraph::from_edge_list(&EdgeList::new(5)),
            CsrGraph::from_edge_list(&generators::star(9)),
        ] {
            check_all_orders(&g, 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary pair lists, with isolated vertices padded below and
        /// above the ids the pairs use.
        #[test]
        fn shared_relabel_matches_reference(
            ps in prop::collection::vec((0u32..40, 0u32..40), 0..200),
            pad_lo in 0u32..3,
            pad_hi in 0usize..3,
            seed in any::<u64>(),
        ) {
            let n = 40 + pad_lo as usize + pad_hi;
            let g = CsrGraph::from_undirected_pairs(
                n,
                ps.iter().map(|&(u, v)| (u + pad_lo, v + pad_lo)),
            );
            check_all_orders(&g, seed);
        }
    }

    #[test]
    fn relabel_star_graph() {
        // Star centered at 4: vertex 4 has degree 4, others degree 1.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs([(4, 0), (4, 1), (4, 2), (4, 3)]));
        assert!(!is_degree_descending(&g));
        let r = degree_descending(&g);
        assert!(is_degree_descending(&r.graph));
        assert_eq!(r.to_new(4), 0, "hub becomes vertex 0");
        assert_eq!(r.to_old(0), 4);
        r.graph.validate().unwrap();
    }

    #[test]
    fn permutation_is_bijective() {
        let el = generators::gnm(200, 800, 7);
        let g = CsrGraph::from_edge_list(&el);
        let r = degree_descending(&g);
        let mut seen = [false; 200];
        for old in 0..200u32 {
            let new = r.to_new(old);
            assert!(!seen[new as usize]);
            seen[new as usize] = true;
            assert_eq!(r.to_old(new), old);
        }
    }

    #[test]
    fn degrees_preserved_under_relabel() {
        let el = generators::chung_lu(300, 8.0, 2.3, 99);
        let g = CsrGraph::from_edge_list(&el);
        let r = degree_descending(&g);
        assert!(is_degree_descending(&r.graph));
        for old in 0..g.num_vertices() as u32 {
            assert_eq!(g.degree(old), r.graph.degree(r.to_new(old)));
        }
        assert_eq!(g.num_directed_edges(), r.graph.num_directed_edges());
    }

    #[test]
    fn adjacency_preserved_under_relabel() {
        let el = generators::gnm(50, 120, 3);
        let g = CsrGraph::from_edge_list(&el);
        let r = degree_descending(&g);
        for (_, u, v) in g.iter_edges() {
            assert!(
                r.graph.edge_offset(r.to_new(u), r.to_new(v)).is_some(),
                "edge ({u},{v}) lost"
            );
        }
    }

    #[test]
    fn already_ordered_graph_keeps_invariant() {
        // Path 0-1-2: degrees 1,2,1 → not descending; after relabel it is.
        let g = CsrGraph::from_edge_list(&EdgeList::from_pairs([(0, 1), (1, 2)]));
        let r = degree_descending(&g);
        assert!(is_degree_descending(&r.graph));
        // Relabeling an already-ordered graph is the identity.
        let r2 = degree_descending(&r.graph);
        assert_eq!(r2.graph, r.graph);
        assert!(r2
            .old_to_new
            .iter()
            .enumerate()
            .all(|(i, &x)| i as u32 == x));
    }

    #[test]
    fn empty_graph_relabel() {
        let g = CsrGraph::from_edge_list(&EdgeList::new(0));
        let r = degree_descending(&g);
        assert_eq!(r.graph.num_vertices(), 0);
        assert!(core_numbers(&g).is_empty());
        assert_eq!(degeneracy(&g), 0);
    }

    #[test]
    fn core_numbers_on_known_graphs() {
        // K5: every vertex has core number 4.
        let g = CsrGraph::from_edge_list(&generators::complete(5));
        assert!(core_numbers(&g).iter().all(|&c| c == 4));
        assert_eq!(degeneracy(&g), 4);
        // Path: all cores 1.
        let p = CsrGraph::from_edge_list(&generators::path(10));
        assert!(core_numbers(&p).iter().all(|&c| c == 1));
        // Star: hub and leaves all core 1.
        let s = CsrGraph::from_edge_list(&generators::star(10));
        assert!(core_numbers(&s).iter().all(|&c| c == 1));
    }

    #[test]
    fn core_numbers_clique_with_tail() {
        // K4 {0..3} plus path 3-4-5: clique cores 3, tail cores 1.
        let mut el = generators::complete(4);
        el.push(3, 4);
        el.push(4, 5);
        let g = CsrGraph::from_edge_list(&el);
        let core = core_numbers(&g);
        assert_eq!(&core[0..4], &[3, 3, 3, 3]);
        assert_eq!(&core[4..6], &[1, 1]);
    }

    #[test]
    fn core_numbers_match_peeling_oracle() {
        // Oracle: iterative definition — the k-core is what survives
        // repeatedly deleting vertices of degree < k.
        let g = CsrGraph::from_edge_list(&generators::chung_lu(120, 8.0, 2.2, 6));
        let fast = core_numbers(&g);
        let n = g.num_vertices();
        for k in 1..=degeneracy(&g) {
            let mut alive = vec![true; n];
            loop {
                let mut changed = false;
                for u in 0..n as u32 {
                    if !alive[u as usize] {
                        continue;
                    }
                    let d = g
                        .neighbors(u)
                        .iter()
                        .filter(|&&v| alive[v as usize])
                        .count();
                    if d < k as usize {
                        alive[u as usize] = false;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for u in 0..n {
                assert_eq!(alive[u], fast[u] >= k, "k={k} u={u}");
            }
        }
    }

    #[test]
    fn core_descending_is_valid_permutation() {
        let g = CsrGraph::from_edge_list(&generators::hub_web(200, 6.0, 2, 0.4, 7));
        let r = core_descending(&g);
        r.graph.validate().unwrap();
        // Degrees preserved as a multiset.
        let mut before: Vec<usize> = (0..g.num_vertices() as u32).map(|u| g.degree(u)).collect();
        let mut after: Vec<usize> = (0..g.num_vertices() as u32)
            .map(|u| r.graph.degree(u))
            .collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // Core numbers are descending in the new id order.
        let new_core = core_numbers(&r.graph);
        assert!(new_core.windows(2).all(|w| w[0] >= w[1]));
    }
}
