//! Translating count arrays across graph relabelings.
//!
//! BMP's complexity bound requires running on a degree-descending-relabeled
//! graph (Section 2.1), but callers want counts indexed by *their* graph's
//! edge offsets. This module maps a count array computed on the relabeled
//! graph back to the original CSR's offsets.

use cnc_graph::{reorder::Reordered, CsrGraph};
use rayon::prelude::*;
use std::ops::Range;

/// Edge slots per parallel chunk of a source walk: one source search per
/// chunk, a cursor step per row boundary inside it.
const SOURCE_WALK_CHUNK: usize = 1 << 12;

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

/// Translate counts computed on `reordered.graph` back to edge offsets of
/// the original graph `g`.
///
/// For every original edge slot `e(u, v)` the count is looked up at the
/// relabeled slot `e(φ(u), φ(v))`: sources are walked (see
/// [`fill_by_source`]), `φ(u)` is taken once per source, and each edge
/// pays one `O(log d)` binary search in the relabeled row.
pub fn counts_to_original(g: &CsrGraph, reordered: &Reordered, counts: &[u32]) -> Vec<u32> {
    assert_eq!(counts.len(), g.num_directed_edges());
    let dst = g.dst();
    fill_by_source(g, |u, edges, out| {
        let u_new = reordered.to_new(u);
        for (slot, &v) in out.iter_mut().zip(&dst[edges]) {
            let eid_new = reordered
                .graph
                .edge_offset(u_new, reordered.to_new(v))
                .expect("relabeled graph lost an edge");
            *slot = counts[eid_new];
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_counts;
    use cnc_graph::{generators, reorder};

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
    fn source_walk_crosses_chunks_mid_row_and_over_empty_rows() {
        // A power-law graph spread over every third id (isolated vertices
        // between any two with edges, and after the last), plus a hub whose
        // row alone is longer than a chunk: chunk starts land mid-row and
        // the walk has to step over empty rows.
        let spread = |x: u32| 3 * x + 1;
        let base = generators::chung_lu(6000, 4.0, 2.2, 5);
        let hub = spread(6000);
        let mut el = cnc_graph::EdgeList::from_pairs(
            base.edges
                .iter()
                .map(|&(u, v)| (spread(u), spread(v)))
                .chain((0..6000).map(|x| (hub, spread(x)))),
        );
        el.num_vertices += 4;
        let g = CsrGraph::from_edge_list(&el);
        assert!(g.num_directed_edges() > 4 * SOURCE_WALK_CHUNK);
        assert!(g.neighbors(hub).len() > SOURCE_WALK_CHUNK);
        let fresh_search: Vec<u32> = (0..g.num_directed_edges())
            .map(|eid| g.find_src(eid, &mut 0))
            .collect();
        let r = reorder::degree_descending(&g);
        for threads in [1, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let walked = fill_by_source(&g, |u, edges, out| {
                    assert_eq!(out.len(), edges.len());
                    out.fill(u);
                });
                assert_eq!(walked, fresh_search, "{threads} threads");
                let got = counts_to_original(&g, &r, &reference_counts(&r.graph));
                assert_eq!(got, reference_counts(&g), "{threads} threads");
            });
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edge_list(&cnc_graph::EdgeList::new(0));
        let r = reorder::degree_descending(&g);
        assert!(counts_to_original(&g, &r, &[]).is_empty());
    }
}
