//! Translating count arrays across graph relabelings.
//!
//! BMP's complexity bound requires running on a degree-descending-relabeled
//! graph (Section 2.1), but callers want counts indexed by *their* graph's
//! edge offsets. This module maps a count array computed on the relabeled
//! graph back to the original CSR's offsets.
//!
//! The first remap on a relabel builds its edge map `new_eid[e]` (see
//! [`Reordered::edge_map`]) by one parallel walk over the original graph
//! and keeps it; every remap, that one included, is then one parallel
//! gather `out[e] = counts[new_eid[e]]`.

use cnc_graph::{reorder::Reordered, CsrGraph};
use rayon::prelude::*;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;

/// Edge slots per parallel chunk of a source walk: one source search per
/// chunk, a cursor step per row boundary inside it.
const SOURCE_WALK_CHUNK: usize = 1 << 12;

/// Why counts cannot be carried back across a relabel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemapError {
    /// The relabeled graph has no slot for the input edge `(src, dst)`
    /// (input-graph ids): it preserves degrees but is not the image of the
    /// input graph under the relabel.
    MissingEdge {
        /// Source of the input edge.
        src: u32,
        /// Destination of the input edge.
        dst: u32,
    },
    /// The graph has too many directed edge slots (`2^32` or more) for a
    /// u32 edge map.
    TooManyEdges(usize),
}

impl std::fmt::Display for RemapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemapError::MissingEdge { src, dst } => write!(
                f,
                "relabeled graph has no slot for input edge ({src}, {dst}): \
                 the relabel is inconsistent with the input graph"
            ),
            RemapError::TooManyEdges(m) => {
                write!(f, "{m} directed edge slots exceed a u32 edge map")
            }
        }
    }
}

impl std::error::Error for RemapError {}

/// Build one value per directed edge slot of `g`, in parallel over chunks
/// of the output. Each chunk searches for its first slot's source once and
/// then walks sources forward at row boundaries (stepping over zero-degree
/// vertices), so no slot pays a per-edge source search. `fill(u, edges,
/// out)` receives a source, the slots of its row that fall inside the
/// chunk, and the matching output slots.
pub(crate) fn fill_by_source<F>(g: &CsrGraph, fill: F) -> Vec<u32>
where
    F: Fn(u32, Range<usize>, &mut [u32]) + Sync,
{
    let offsets = g.offsets();
    let mut out = vec![0u32; g.num_directed_edges()];
    out.par_chunks_mut(SOURCE_WALK_CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let start = ci * SOURCE_WALK_CHUNK;
            let end = start + chunk.len();
            let mut u = g.find_src(start, &mut 0);
            let mut eid = start;
            while eid < end {
                let row_end = offsets[u as usize + 1].min(end);
                if row_end > eid {
                    fill(u, eid..row_end, &mut chunk[eid - start..row_end - start]);
                    eid = row_end;
                }
                u += 1;
            }
        });
    out
}

thread_local! {
    /// Per-thread position table of the edge-map build: `pos[w]` is the
    /// index of `w` in the relabeled row this thread scattered last.
    static ROW_POS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Build the edge map of `reordered` over the original graph `g` by a
/// source walk (see [`fill_by_source`]).
///
/// Per source `u`, the relabeled row of `φ(u)` is scattered into a
/// per-thread position table, and each original slot `e(u, v)` reads the
/// position of `φ(v)` there: `O(d)` per row instead of a binary search per
/// edge. A position is trusted only if the row holds `φ(v)` at it, so a
/// stale entry from an earlier row is caught as a missing edge. Rows are
/// strictly ascending and degrees match (load checks), so finding every
/// edge makes the map a permutation.
fn build_edge_map(g: &CsrGraph, reordered: &Reordered) -> Result<Vec<u32>, RemapError> {
    let m = g.num_directed_edges();
    if u32::try_from(m).is_err() {
        return Err(RemapError::TooManyEdges(m));
    }
    let (dst, n) = (g.dst(), g.num_vertices());
    let relabeled = &reordered.graph;
    let missing = OnceLock::new();
    let new_eid = fill_by_source(g, |u, edges, out| {
        let u_new = reordered.to_new(u);
        let row = relabeled.neighbors(u_new);
        let base = relabeled.offsets()[u_new as usize];
        ROW_POS.with_borrow_mut(|pos| {
            if pos.len() < n {
                pos.resize(n, 0);
            }
            for (j, &w) in (0u32..).zip(row) {
                pos[w as usize] = j;
            }
            for (slot, &v) in out.iter_mut().zip(&dst[edges]) {
                let v_new = reordered.to_new(v);
                let j = pos[v_new as usize] as usize;
                if row.get(j) != Some(&v_new) {
                    let _ = missing.set(RemapError::MissingEdge { src: u, dst: v });
                    return;
                }
                // `base + j < m ≤ u32::MAX`, checked above.
                *slot = (base + j) as u32;
            }
        });
    });
    // The calling thread takes part in the walk; drop its table. Scoped
    // worker threads drop theirs when they exit.
    ROW_POS.take();
    match missing.into_inner() {
        Some(e) => Err(e),
        None => Ok(new_eid),
    }
}

/// `out[e] = counts[new_eid[e]]`, in parallel.
fn gather(new_eid: &[u32], counts: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; new_eid.len()];
    out.par_chunks_mut(SOURCE_WALK_CHUNK)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let map = &new_eid[ci * SOURCE_WALK_CHUNK..];
            for (slot, &e) in chunk.iter_mut().zip(map) {
                *slot = counts[e as usize];
            }
        });
    out
}

/// Translate counts computed on `reordered.graph` back to edge offsets of
/// the original graph `g`, the graph `reordered` was computed from.
///
/// For every original edge slot `e(u, v)` the count is read at the
/// relabeled slot `e(φ(u), φ(v))` through the relabel's edge map. The first
/// call on a relabel builds the map and keeps it; later calls only gather.
///
/// # Errors
/// [`RemapError`] when the relabeled graph lacks an input edge (an
/// inconsistent relabel, which degree and structure checks cannot catch)
/// or is too large for a u32 edge map. No map is kept then.
///
/// # Panics
/// If `counts` does not have one entry per directed edge slot of `g`.
pub fn try_counts_to_original(
    g: &CsrGraph,
    reordered: &Reordered,
    counts: &[u32],
) -> Result<Vec<u32>, RemapError> {
    assert_eq!(counts.len(), g.num_directed_edges());
    let new_eid = match reordered.edge_map() {
        Some(new_eid) => new_eid,
        None => reordered.keep_edge_map(build_edge_map(g, reordered)?),
    };
    Ok(gather(new_eid, counts))
}

/// [`try_counts_to_original`] for a relabel known to be consistent, such as
/// one this process computed.
///
/// # Panics
/// On a [`RemapError`], and if `counts` does not have one entry per
/// directed edge slot of `g`.
pub fn counts_to_original(g: &CsrGraph, reordered: &Reordered, counts: &[u32]) -> Vec<u32> {
    try_counts_to_original(g, reordered, counts).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_counts;
    use cnc_graph::prepare::{map_prepared, write_prepared};
    use cnc_graph::{generators, reorder, EdgeList, PreparedGraph, ReorderPolicy};

    /// The edge map by one binary search per original slot: the walk every
    /// remap used to run.
    fn searched_edge_map(g: &CsrGraph, r: &Reordered) -> Vec<u32> {
        g.iter_edges()
            .map(|(_, u, v)| {
                let e = r.graph.edge_offset(r.to_new(u), r.to_new(v));
                e.expect("consistent relabel") as u32
            })
            .collect()
    }

    /// A power-law graph spread over every third id (isolated vertices
    /// between any two with edges, and after the last), plus a hub whose
    /// row alone is longer than a chunk: chunk starts land mid-row and a
    /// source walk has to step over empty rows.
    fn spread_graph_with_hub() -> CsrGraph {
        let spread = |x: u32| 3 * x + 1;
        let base = generators::chung_lu(6000, 4.0, 2.2, 5);
        let hub = spread(6000);
        let mut el = EdgeList::from_pairs(
            base.edges
                .iter()
                .map(|&(u, v)| (spread(u), spread(v)))
                .chain((0..6000).map(|x| (hub, spread(x)))),
        );
        el.num_vertices += 4;
        let g = CsrGraph::from_edge_list(&el);
        assert!(g.num_directed_edges() > 4 * SOURCE_WALK_CHUNK);
        assert!(g.neighbors(hub).len() > SOURCE_WALK_CHUNK);
        g
    }

    fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn remapped_counts_match_direct_reference() {
        let g = CsrGraph::from_edge_list(&generators::chung_lu(200, 9.0, 2.2, 11));
        let r = reorder::degree_descending(&g);
        // Counts computed in relabeled space...
        let relabeled_counts = reference_counts(&r.graph);
        // ...translated back...
        let got = counts_to_original(&g, &r, &relabeled_counts);
        // ...must equal counts computed directly on the original graph
        // (common neighbor counts are label-invariant).
        assert_eq!(got, reference_counts(&g));
    }

    #[test]
    fn identity_relabel_is_identity_map() {
        // A graph already in degree-descending order relabels to itself.
        let g = CsrGraph::from_edge_list(&generators::star(10));
        let r = reorder::degree_descending(&g);
        let counts: Vec<u32> = (0..g.num_directed_edges() as u32).collect();
        assert_eq!(counts_to_original(&g, &r, &counts), counts);
    }

    #[test]
    fn edge_map_matches_the_binary_search_walk() {
        let graphs = [
            CsrGraph::from_edge_list(&generators::chung_lu(3000, 9.0, 2.2, 11)),
            CsrGraph::from_edge_list(&generators::hub_web(3000, 12.0, 3, 0.5, 4)),
            spread_graph_with_hub(),
        ];
        for (gi, g) in graphs.iter().enumerate() {
            let want = searched_edge_map(g, &reorder::degree_descending(g));
            // Counts equal to their own relabeled slot read back the map.
            let slots: Vec<u32> = (0..g.num_directed_edges() as u32).collect();
            for threads in [1, 3] {
                let r = reorder::degree_descending(g);
                assert!(r.edge_map().is_none());
                in_pool(threads, || {
                    let built = try_counts_to_original(g, &r, &slots).unwrap();
                    assert_eq!(built, want, "graph {gi}, {threads} threads, first remap");
                    assert_eq!(r.edge_map(), Some(&want[..]), "graph {gi}");
                    let gathered = try_counts_to_original(g, &r, &slots).unwrap();
                    assert_eq!(gathered, want, "graph {gi}, {threads} threads, gather");
                    let counts = counts_to_original(g, &r, &reference_counts(&r.graph));
                    assert_eq!(counts, reference_counts(g), "graph {gi}, {threads} threads");
                });
            }
        }
    }

    #[test]
    fn source_walk_crosses_chunks_mid_row_and_over_empty_rows() {
        let g = spread_graph_with_hub();
        let fresh_search: Vec<u32> = (0..g.num_directed_edges())
            .map(|eid| g.find_src(eid, &mut 0))
            .collect();
        for threads in [1, 3] {
            let walked = in_pool(threads, || {
                fill_by_source(&g, |u, edges, out| {
                    assert_eq!(out.len(), edges.len());
                    out.fill(u);
                })
            });
            assert_eq!(walked, fresh_search, "{threads} threads");
        }
    }

    #[test]
    fn inconsistent_relabel_is_a_typed_error_and_keeps_no_map() {
        // Swap the labels of two equal-degree vertices with different
        // neighbours: every load check (a degree-preserving permutation)
        // still passes, but the relabeled graph lacks their edges.
        let g = CsrGraph::from_edge_list(&generators::chung_lu(200, 9.0, 2.2, 11));
        let r = reorder::degree_descending(&g);
        let n = g.num_vertices() as u32;
        let (a, b) = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| g.degree(a) == g.degree(b) && g.neighbors(a) != g.neighbors(b))
            .expect("two equal-degree vertices with different neighbours");
        let mut bad = r.clone();
        let (na, nb) = (r.to_new(a), r.to_new(b));
        bad.old_to_new.swap(a as usize, b as usize);
        bad.new_to_old.swap(na as usize, nb as usize);
        let counts = reference_counts(&bad.graph);
        for threads in [1, 3] {
            let err = in_pool(threads, || try_counts_to_original(&g, &bad, &counts)).unwrap_err();
            let RemapError::MissingEdge { src, dst } = err else {
                panic!("{err:?}");
            };
            assert!(g.edge_offset(src, dst).is_some(), "reports an input edge");
            assert!(
                [src, dst].iter().any(|&x| x == a || x == b),
                "touches a or b"
            );
            assert!(bad.edge_map().is_none(), "a failed build keeps nothing");
        }
    }

    #[test]
    fn loaded_preparation_equals_built_with_or_without_edge_map() {
        let el = generators::hub_web(2000, 10.0, 3, 0.5, 7);
        let built = PreparedGraph::from_edge_list(&el, ReorderPolicy::DegreeDescending);
        let path = std::env::temp_dir().join(format!(
            "cnc-remap-equality-{}-{:?}.prep",
            std::process::id(),
            std::thread::current().id()
        ));
        write_prepared(&built, std::fs::File::create(&path).unwrap()).unwrap();
        let loaded = map_prepared(&path).unwrap();
        let (b, l) = (built.reordered().unwrap(), loaded.reordered().unwrap());
        let debug = |r: &Reordered| format!("{r:?}");
        assert_eq!(l, b, "neither map built");
        let unbuilt_debug = debug(b);
        let counts = reference_counts(&b.graph);
        let want = counts_to_original(built.graph(), b, &counts);
        assert!(b.edge_map().is_some() && l.edge_map().is_none());
        assert_eq!(l, b, "only the built preparation holds a map");
        assert_eq!(debug(b), unbuilt_debug, "Debug ignores the map");
        assert_eq!(counts_to_original(loaded.graph(), l, &counts), want);
        assert_eq!(l, b, "both maps built");
        let copy = b.clone();
        assert!(copy.edge_map().is_none(), "clones start without a map");
        assert_eq!(&copy, b);
        drop(loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edge_list(&cnc_graph::EdgeList::new(0));
        let r = reorder::degree_descending(&g);
        assert!(counts_to_original(&g, &r, &[]).is_empty());
        assert!(counts_to_original(&g, &r, &[]).is_empty(), "gather path");
    }
}
