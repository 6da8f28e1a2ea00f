//! Graph statistics of the paper's evaluation setup.
//!
//! [`GraphStats`] reproduces the columns of **Table 1** (|V|, |E|, average
//! and maximum degree); [`skew_percentage`] reproduces **Table 2** — the
//! fraction of set intersections in the all-edge counting that are *highly
//! skewed* (`d_u / d_v > 50` supposing `d_u > d_v`), the statistic that
//! predicts whether pivot-skip pays off on a dataset.

use crate::csr::CsrGraph;

/// The skew-ratio threshold used by Table 2 and as the MPS default.
pub const SKEW_THRESHOLD: u32 = 50;

/// Table 1 row: basic size and degree statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `|V|`.
    pub num_vertices: usize,
    /// Number of directed edge slots `|E|` (2 × undirected; the paper's
    /// Table 1 counts the CSR entries of the symmetrized graph).
    pub num_edges: usize,
    /// Average degree.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
}

impl GraphStats {
    /// Compute the statistics of `g`.
    pub fn of(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let m = g.num_directed_edges();
        Self {
            num_vertices: n,
            num_edges: m,
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            max_degree: max_degree(g.offsets()),
        }
    }
}

/// The largest degree of the CSR with these offsets (0 when edgeless).
pub(crate) fn max_degree(offsets: &[usize]) -> usize {
    offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

/// Table 2: percentage of the intersections performed by the all-edge
/// counting (one per undirected edge, `u < v`) whose degree ratio exceeds
/// `threshold`.
pub fn skew_percentage(g: &CsrGraph, threshold: u32) -> f64 {
    skew_pct(g.offsets(), g.dst(), threshold)
}

/// [`skew_percentage`] over raw CSR arrays (`offsets`, `dst`).
pub(crate) fn skew_pct(offsets: &[usize], dst: &[u32], threshold: u32) -> f64 {
    let degree = |v: usize| offsets[v + 1] - offsets[v];
    let mut total = 0u64;
    let mut skewed = 0u64;
    for u in 0..offsets.len().saturating_sub(1) {
        let du = degree(u);
        for &v in &dst[offsets[u]..offsets[u + 1]] {
            if u < v as usize {
                total += 1;
                let dv = degree(v as usize);
                let (s, l) = if du < dv { (du, dv) } else { (dv, du) };
                if s > 0 && l > threshold as usize * s {
                    skewed += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * skewed as f64 / total as f64
    }
}

/// Degree histogram in log₂ buckets (bucket `i` counts vertices with degree
/// in `[2^i, 2^(i+1))`; bucket 0 also counts degree-0/1). Used to sanity
/// check generated dataset analogues against the target shapes.
pub fn degree_histogram_log2(g: &CsrGraph) -> Vec<usize> {
    let mut hist = Vec::new();
    for u in 0..g.num_vertices() as u32 {
        let d = g.degree(u);
        let bucket = if d <= 1 { 0 } else { d.ilog2() as usize };
        if bucket >= hist.len() {
            hist.resize(bucket + 1, 0);
        }
        hist[bucket] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::generators;

    #[test]
    fn stats_of_star() {
        let g = crate::CsrGraph::from_edge_list(&generators::star(11));
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 11);
        assert_eq!(s.num_edges, 20);
        assert_eq!(s.max_degree, 10);
        assert!((s.avg_degree - 20.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let g = crate::CsrGraph::from_edge_list(&EdgeList::new(0));
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.avg_degree, 0.0);
    }

    #[test]
    fn skew_zero_on_regular_graph() {
        let g = crate::CsrGraph::from_edge_list(&generators::complete(10));
        assert_eq!(skew_percentage(&g, 50), 0.0);
    }

    #[test]
    fn skew_full_on_extreme_star_union() {
        // A hub of degree 200 attached to degree-1 leaves: every edge is a
        // (200 vs 1) intersection — ratio 200 > 50.
        let g = crate::CsrGraph::from_edge_list(&generators::star(201));
        assert_eq!(skew_percentage(&g, 50), 100.0);
        // With a threshold of 200 the ratio is no longer *strictly* greater.
        assert_eq!(skew_percentage(&g, 200), 0.0);
    }

    #[test]
    fn hub_web_more_skewed_than_gnm() {
        let web = crate::CsrGraph::from_edge_list(&generators::hub_web(2000, 6.0, 2, 0.5, 9));
        let uni = crate::CsrGraph::from_edge_list(&generators::gnm(2000, 6000, 9));
        assert!(
            skew_percentage(&web, 50) > skew_percentage(&uni, 50),
            "web-like graphs must show more degree skew"
        );
    }

    #[test]
    fn histogram_counts_all_vertices() {
        let g = crate::CsrGraph::from_edge_list(&generators::chung_lu(500, 8.0, 2.2, 4));
        let h = degree_histogram_log2(&g);
        assert_eq!(h.iter().sum::<usize>(), 500);
    }
}
