//! The output check. The oracle is computed once per seed, before any
//! timing, by a different kernel family, driver and relabeling than the
//! path under test, and must satisfy Σcnt = 6 × triangles against the
//! separate triangle workload before anything is compared with it.

use std::io::{self, Read, Write};
use std::path::Path;

use cnc_core::{Algorithm, Platform, Runner, WorkloadKind};
use cnc_graph::{PreparedGraph, ReorderPolicy};

/// Reference per-edge counts (input-graph offsets) and the triangle total.
pub struct Oracle {
    pub counts: Vec<u32>,
    pub triangles: u64,
}

impl Oracle {
    /// Whether the counts agree with the independent triangle count:
    /// every triangle adds one to each of its six directed edge slots.
    pub fn consistent(&self) -> bool {
        let sum: u64 = self.counts.iter().map(|&c| u64::from(c)).sum();
        sum == 6 * self.triangles
    }
}

/// Compute the oracle for a workload whose timed path runs BMP
/// (`timed_bmp`) or MPS. A BMP path is checked against sequential MPS on
/// the unreordered graph; an MPS path against sequential BMP-RF on a fresh
/// in-memory degree-descending relabel.
pub fn compute(pg: &PreparedGraph, timed_bmp: bool) -> Result<Oracle, String> {
    let err = |e: cnc_core::PlanError| format!("oracle plan: {e}");
    let relabeled;
    let (counts, tri_graph) = if timed_bmp {
        let r = Runner::new(Platform::CpuSequential, Algorithm::mps())
            .reorder(false)
            .try_run_prepared(pg)
            .map_err(err)?;
        (r.into_counts(), pg)
    } else {
        relabeled = PreparedGraph::from_csr(pg.graph().clone(), ReorderPolicy::DegreeDescending);
        let r = Runner::new(Platform::CpuSequential, Algorithm::bmp_rf())
            .try_run_prepared(&relabeled)
            .map_err(err)?;
        (r.into_counts(), &*relabeled)
    };
    let triangles = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf())
        .workload(WorkloadKind::Triangle)
        .try_run_prepared(tri_graph)
        .map_err(err)?
        .output
        .global_count()
        .ok_or("triangle workload returned no total")?;
    Ok(Oracle { counts, triangles })
}

/// Number of slots where `got` disagrees with `want` (every slot when the
/// lengths differ).
pub fn mismatches(got: &[u32], want: &[u32]) -> u64 {
    if got.len() != want.len() {
        return want.len().max(got.len()) as u64;
    }
    got.iter().zip(want).filter(|(a, b)| a != b).count() as u64
}

/// [`mismatches`] against a counts file, streamed through a small buffer
/// so the checking process holds no second copy of the array.
pub fn mismatches_file(got: &[u32], path: &Path) -> io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let want_len = file.metadata()?.len() / 4;
    if want_len != got.len() as u64 {
        return Ok(want_len.max(got.len() as u64));
    }
    let mut buf = vec![0u8; 1 << 20];
    let mut bad = 0u64;
    for chunk in got.chunks(buf.len() / 4) {
        let bytes = &mut buf[..chunk.len() * 4];
        file.read_exact(bytes)?;
        let want = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        bad += chunk.iter().zip(want).filter(|(a, b)| **a != *b).count() as u64;
    }
    Ok(bad)
}

/// Corrupt one count, as a wrong program would (`--flip-one-count`).
pub fn flip_one(counts: &mut [u32], salt: usize) {
    if !counts.is_empty() {
        let k = salt.wrapping_mul(2_654_435_761) % counts.len();
        counts[k] = counts[k].wrapping_add(1);
    }
}

pub fn write_counts(path: &Path, counts: &[u32]) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(counts.len() * 4);
    for c in counts {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    std::fs::File::create(path)?.write_all(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::{generators, CsrGraph};

    fn small() -> std::sync::Arc<PreparedGraph> {
        let g = CsrGraph::from_edge_list(&generators::hub_web(400, 6.0, 2, 0.4, 5));
        PreparedGraph::from_csr(g, ReorderPolicy::DegreeDescending)
    }

    #[test]
    fn oracles_agree_and_hold_the_triangle_identity() {
        let pg = small();
        let bmp = compute(&pg, true).unwrap();
        let mps = compute(&pg, false).unwrap();
        assert!(bmp.consistent() && mps.consistent());
        assert_eq!(bmp.counts, mps.counts);
        assert_eq!(bmp.counts, cnc_core::reference_counts(pg.graph()));
    }

    #[test]
    fn one_flipped_count_is_caught() {
        let pg = small();
        let oracle = compute(&pg, true).unwrap();
        let mut got = oracle.counts.clone();
        assert_eq!(mismatches(&got, &oracle.counts), 0);
        flip_one(&mut got, 7);
        assert_eq!(mismatches(&got, &oracle.counts), 1);
        assert_eq!(
            mismatches(&got[1..], &oracle.counts),
            oracle.counts.len() as u64
        );
    }

    #[test]
    fn counts_check_against_files() {
        let path = std::env::temp_dir().join(format!("cncbench-{}.cnt", std::process::id()));
        let want: Vec<u32> = (0..300_000).map(|i| i * 7).collect();
        write_counts(&path, &want).unwrap();
        let mut got = want.clone();
        assert_eq!(mismatches_file(&got, &path).unwrap(), 0);
        flip_one(&mut got, 3);
        assert_eq!(mismatches_file(&got, &path).unwrap(), 1);
        assert_eq!(
            mismatches_file(&got[1..], &path).unwrap(),
            want.len() as u64
        );
        let _ = std::fs::remove_file(path);
    }
}
