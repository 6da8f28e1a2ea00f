//! Incremental maintenance of the all-edge common neighbor counts under
//! edge insertions and deletions.
//!
//! The paper's motivation is *online* analytics — "recommend products of
//! potential interest while the user is shopping" — which implies the graph
//! mutates between queries. Recomputing all `|E|` intersections per update
//! defeats the purpose; this module maintains the counts exactly under
//! single-edge updates in `O(d_u + d_v)` time each:
//!
//! * inserting `(u, v)` sets `cnt[(u,v)] = |N(u) ∩ N(v)|` and increments
//!   `cnt[(x,u)]` and `cnt[(x,v)]` for every common neighbor `x` (each new
//!   triangle `u-v-x` adds one shared neighbor to both of its old edges);
//! * deleting `(u, v)` does the reverse.
//!
//! Batch-initialize from a [`CsrGraph`] counted by any backend, mutate, and
//! [`IncrementalCnc::snapshot`] back to CSR + counts when a bulk recount or
//! a static analysis is wanted.

use std::collections::HashMap;

use cnc_graph::CsrGraph;
use cnc_intersect::{merge_collect, NullMeter};

/// Why an incremental operation rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalError {
    /// The counts slice does not align with the graph's directed edge slots.
    CountsLengthMismatch {
        /// `g.num_directed_edges()`.
        expected: usize,
        /// `counts.len()` as passed.
        got: usize,
    },
    /// `(u, u)` edges are not representable.
    SelfLoop(u32),
    /// An endpoint is not a vertex of the graph.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: u32,
        /// Current vertex-id bound.
        num_vertices: usize,
    },
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::CountsLengthMismatch { expected, got } => write!(
                f,
                "counts length {got} does not match {expected} directed edge slots"
            ),
            IncrementalError::SelfLoop(u) => {
                write!(f, "self-loop ({u}, {u}) is not representable")
            }
            IncrementalError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(f, "vertex {vertex} out of range (|V| = {num_vertices})"),
        }
    }
}

impl std::error::Error for IncrementalError {}

/// Dynamically maintained graph + exact per-edge common neighbor counts.
#[derive(Debug, Clone, Default)]
pub struct IncrementalCnc {
    /// Sorted neighbor lists.
    adj: Vec<Vec<u32>>,
    /// Canonical `(min, max)` edge → count.
    counts: HashMap<(u32, u32), u32>,
    scratch: Vec<u32>,
}

impl IncrementalCnc {
    /// An empty graph over `num_vertices` ids.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            adj: vec![Vec::new(); num_vertices],
            counts: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Initialize from a static graph and its (verified) counts.
    ///
    /// Fails with [`IncrementalError::CountsLengthMismatch`] when `counts`
    /// is not aligned to `g`'s directed edge slots.
    pub fn from_graph(g: &CsrGraph, counts: &[u32]) -> Result<Self, IncrementalError> {
        if counts.len() != g.num_directed_edges() {
            return Err(IncrementalError::CountsLengthMismatch {
                expected: g.num_directed_edges(),
                got: counts.len(),
            });
        }
        let adj: Vec<Vec<u32>> = (0..g.num_vertices() as u32)
            .map(|u| g.neighbors(u).to_vec())
            .collect();
        let mut map = HashMap::with_capacity(g.num_undirected_edges());
        for (eid, u, v) in g.iter_edges() {
            if u < v {
                map.insert((u, v), counts[eid]);
            }
        }
        Ok(Self {
            adj,
            counts: map,
            scratch: Vec::new(),
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.counts.len()
    }

    /// Append a fresh isolated vertex, returning its id.
    pub fn add_vertex(&mut self) -> u32 {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as u32
    }

    /// The current count for an edge, `None` if `(u, v)` is not present.
    pub fn count(&self, u: u32, v: u32) -> Option<u32> {
        self.counts.get(&canonical(u, v)).copied()
    }

    /// The sorted neighbor list of `u`.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.adj[u as usize]
    }

    /// Total triangles, maintained exactly: `Σ cnt / 3` over undirected
    /// edges (each triangle contributes one common neighbor to each of its
    /// three edges).
    pub fn triangle_count(&self) -> u64 {
        self.counts.values().map(|&c| c as u64).sum::<u64>() / 3
    }

    /// Insert the undirected edge `(u, v)`; returns `Ok(false)` if it
    /// already exists (no change). Self-loops and out-of-range endpoints
    /// are typed errors, not panics. `O(d_u + d_v)`.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Result<bool, IncrementalError> {
        if u == v {
            return Err(IncrementalError::SelfLoop(u));
        }
        if (u.max(v) as usize) >= self.adj.len() {
            return Err(IncrementalError::VertexOutOfRange {
                vertex: u.max(v),
                num_vertices: self.adj.len(),
            });
        }
        let (a, b) = canonical(u, v);
        if self.counts.contains_key(&(a, b)) {
            return Ok(false);
        }
        // Common neighbors BEFORE linking (u ∉ N(v) and v ∉ N(u) yet).
        let mut scratch = std::mem::take(&mut self.scratch);
        merge_collect(
            &self.adj[a as usize],
            &self.adj[b as usize],
            &mut scratch,
            &mut NullMeter,
        );
        for &x in &scratch {
            *self.counts.get_mut(&canonical(x, a)).expect("edge (x,a)") += 1;
            *self.counts.get_mut(&canonical(x, b)).expect("edge (x,b)") += 1;
        }
        self.counts.insert((a, b), scratch.len() as u32);
        insert_sorted(&mut self.adj[a as usize], b);
        insert_sorted(&mut self.adj[b as usize], a);
        self.scratch = scratch;
        Ok(true)
    }

    /// Remove the undirected edge `(u, v)`; returns `false` if absent.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> bool {
        let (a, b) = canonical(u, v);
        if self.counts.remove(&(a, b)).is_none() {
            return false;
        }
        remove_sorted(&mut self.adj[a as usize], b);
        remove_sorted(&mut self.adj[b as usize], a);
        // Common neighbors AFTER unlinking.
        let mut scratch = std::mem::take(&mut self.scratch);
        merge_collect(
            &self.adj[a as usize],
            &self.adj[b as usize],
            &mut scratch,
            &mut NullMeter,
        );
        for &x in &scratch {
            *self.counts.get_mut(&canonical(x, a)).expect("edge (x,a)") -= 1;
            *self.counts.get_mut(&canonical(x, b)).expect("edge (x,b)") -= 1;
        }
        self.scratch = scratch;
        true
    }

    /// Snapshot to a static CSR plus counts aligned to its edge offsets.
    pub fn snapshot(&self) -> (CsrGraph, Vec<u32>) {
        let g = CsrGraph::from_undirected_pairs(self.adj.len(), self.counts.keys().copied());
        let counts = g
            .iter_edges()
            .map(|(_, u, v)| self.counts[&canonical(u, v)])
            .collect();
        (g, counts)
    }
}

#[inline]
fn canonical(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

fn insert_sorted(list: &mut Vec<u32>, v: u32) {
    if let Err(pos) = list.binary_search(&v) {
        list.insert(pos, v);
    }
}

fn remove_sorted(list: &mut Vec<u32>, v: u32) {
    if let Ok(pos) = list.binary_search(&v) {
        list.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{reference_counts, verify_counts};
    use cnc_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Invariant check: every maintained count equals a fresh recount.
    fn assert_exact(inc: &IncrementalCnc) {
        let (g, counts) = inc.snapshot();
        verify_counts(&g, &counts).expect("incremental counts must stay exact");
    }

    #[test]
    fn build_triangle_incrementally() {
        let mut inc = IncrementalCnc::new(3);
        assert!(inc.insert_edge(0, 1).unwrap());
        assert!(inc.insert_edge(1, 2).unwrap());
        assert_eq!(inc.count(0, 1), Some(0));
        assert!(inc.insert_edge(0, 2).unwrap()); // closes the triangle
        assert_eq!(inc.count(0, 1), Some(1));
        assert_eq!(inc.count(1, 2), Some(1));
        assert_eq!(inc.count(0, 2), Some(1));
        assert_eq!(inc.triangle_count(), 1);
        assert_exact(&inc);
    }

    #[test]
    fn duplicate_and_missing_edges() {
        let mut inc = IncrementalCnc::new(4);
        assert!(inc.insert_edge(0, 1).unwrap());
        assert!(
            !inc.insert_edge(1, 0).unwrap(),
            "duplicate insert is a no-op"
        );
        assert_eq!(inc.num_edges(), 1);
        assert!(!inc.remove_edge(2, 3), "missing removal is a no-op");
        assert!(inc.remove_edge(0, 1));
        assert_eq!(inc.num_edges(), 0);
        assert_eq!(inc.count(0, 1), None);
    }

    #[test]
    fn remove_reopens_triangles() {
        let mut inc = IncrementalCnc::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            inc.insert_edge(u, v).unwrap();
        }
        assert_eq!(inc.triangle_count(), 2);
        inc.remove_edge(1, 2); // breaks both triangles
        assert_eq!(inc.triangle_count(), 0);
        assert_eq!(inc.count(0, 1), Some(0));
        assert_exact(&inc);
    }

    #[test]
    fn from_graph_then_mutate() {
        let g = CsrGraph::from_edge_list(&generators::clique_chain(3, 5));
        let counts = reference_counts(&g);
        let mut inc = IncrementalCnc::from_graph(&g, &counts).unwrap();
        assert_eq!(inc.triangle_count(), 3 * 10, "three K5s worth of triangles");
        // Bridge two cliques into one denser community.
        inc.insert_edge(0, 5).unwrap();
        inc.insert_edge(1, 6).unwrap();
        assert_exact(&inc);
        let grown = inc.add_vertex();
        inc.insert_edge(grown, 0).unwrap();
        inc.insert_edge(grown, 1).unwrap();
        assert_eq!(inc.count(grown, 0), Some(1), "0 and grown share 1");
        assert_exact(&inc);
    }

    #[test]
    fn random_edit_sequence_stays_exact() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 40u32;
        let mut inc = IncrementalCnc::new(n as usize);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for step in 0..400 {
            let insert = edges.is_empty() || rng.gen::<f64>() < 0.6;
            if insert {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && inc.insert_edge(u, v).unwrap() {
                    edges.push(canonical(u, v));
                }
            } else {
                let idx = rng.gen_range(0..edges.len());
                let (u, v) = edges.swap_remove(idx);
                assert!(inc.remove_edge(u, v));
            }
            if step % 50 == 49 {
                assert_exact(&inc);
            }
        }
        assert_exact(&inc);
    }

    #[test]
    fn snapshot_matches_batch_backend() {
        // Counts maintained through edits equal a from-scratch parallel
        // BMP run on the final graph.
        let mut inc = IncrementalCnc::new(60);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let u = rng.gen_range(0..60);
            let v = rng.gen_range(0..60);
            if u != v {
                inc.insert_edge(u, v).unwrap();
            }
        }
        let (g, maintained) = inc.snapshot();
        let batch = crate::Runner::new(crate::Platform::cpu_parallel(), crate::Algorithm::bmp_rf())
            .try_run(&g)
            .unwrap();
        assert_eq!(maintained, batch.counts());
    }

    #[test]
    fn bad_inputs_are_typed_errors() {
        let mut inc = IncrementalCnc::new(2);
        assert_eq!(inc.insert_edge(1, 1), Err(IncrementalError::SelfLoop(1)));
        assert_eq!(
            inc.insert_edge(0, 7),
            Err(IncrementalError::VertexOutOfRange {
                vertex: 7,
                num_vertices: 2
            })
        );
        let g = CsrGraph::from_edge_list(&generators::gnm(10, 20, 1));
        let err = IncrementalCnc::from_graph(&g, &[0, 0]).unwrap_err();
        assert!(matches!(
            err,
            IncrementalError::CountsLengthMismatch { got: 2, .. }
        ));
        assert!(err.to_string().contains("does not match"));
    }
}
