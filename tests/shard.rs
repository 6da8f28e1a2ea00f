//! Differential tests for multi-process sharded execution (`cnc-shard`).
//!
//! The layer's acceptance property is byte-identity: for every worker
//! count, the assembled per-edge counts must equal a single-process run of
//! the same plan exactly. These tests spawn real worker processes — the
//! `cnc` binary built by this package (`CARGO_BIN_EXE_cnc`) — against
//! prepared-graph files written to the system temp directory, so they
//! exercise the full coordinator/worker wire path, not an in-process
//! simulation. Fault injection is passed per-child via `ShardConfig`
//! (never `std::env::set_var` — tests run in parallel threads).

use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use cnc_core::remap::RemapError;
use cnc_core::{Algorithm, PlanError, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{prepare, CsrGraph, PreparedGraph, ReorderPolicy};
use cnc_obs::{Counter, ObsContext};
use cnc_shard::{run_sharded, ShardConfig, ShardError};

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_cnc"))
}

/// Write `pg` to a uniquely named prep file; returns the path.
fn write_prep(pg: &PreparedGraph, tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("cnc-shard-test-{}-{tag}.prep", std::process::id()));
    let f = std::fs::File::create(&path).expect("create prep file");
    prepare::write_prepared(pg, f).expect("write prep file");
    path
}

fn config(prep: PathBuf, workers: usize, algorithm: Algorithm) -> ShardConfig {
    ShardConfig {
        workers,
        algorithm,
        reorder: None,
        worker_exe: worker_exe(),
        prep_path: prep,
        fail_spec: None,
    }
}

fn oracle(pg: &PreparedGraph, algorithm: Algorithm, reorder: Option<bool>) -> Vec<u32> {
    let mut runner = Runner::new(Platform::CpuSequential, algorithm);
    if let Some(r) = reorder {
        runner = runner.reorder(r);
    }
    runner.try_run_prepared(pg).unwrap().into_counts()
}

#[test]
fn sharded_counts_match_single_process_on_every_dataset() {
    for d in Dataset::ALL {
        for (reorder, policy) in [
            (None, ReorderPolicy::DegreeDescending),
            (Some(false), ReorderPolicy::None),
        ] {
            let pg = PreparedGraph::from_csr(d.build(Scale::Tiny), policy);
            let tag = format!("{}-{policy:?}", d.name());
            let prep = write_prep(&pg, &tag);
            let want = oracle(&pg, Algorithm::bmp_rf(), reorder);
            for workers in [2usize, 4, 8] {
                let mut cfg = config(prep.clone(), workers, Algorithm::bmp_rf());
                cfg.reorder = reorder;
                let out =
                    run_sharded(&pg, &cfg).unwrap_or_else(|e| panic!("{tag} x{workers}: {e}"));
                assert_eq!(
                    out.counts, want,
                    "{tag} with {workers} workers must be byte-identical"
                );
                assert_eq!(out.worker_failures, 0, "{tag} x{workers}");
                assert!(out.workers >= 1 && out.workers <= workers);
                assert!(out.range_cost_max >= out.range_cost_min);
                assert!(out.work.intersections > 0, "workers must ship work counts");
            }
            let _ = std::fs::remove_file(&prep);
        }
    }
}

#[test]
fn every_tokenizable_algorithm_shards_identically() {
    let pg = PreparedGraph::from_csr(
        Dataset::TwS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "algos");
    for algorithm in [Algorithm::MergeBaseline, Algorithm::mps(), Algorithm::bmp()] {
        let want = oracle(&pg, algorithm, None);
        for workers in [3usize, 5] {
            let out = run_sharded(&pg, &config(prep.clone(), workers, algorithm))
                .unwrap_or_else(|e| panic!("{} x{workers}: {e}", algorithm.label()));
            assert_eq!(
                out.counts,
                want,
                "{} with {workers} workers",
                algorithm.label()
            );
        }
    }
    let _ = std::fs::remove_file(&prep);
}

#[test]
fn killed_worker_is_retried_once_and_counted() {
    let pg = PreparedGraph::from_csr(
        Dataset::TwS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "kill");
    let want = oracle(&pg, Algorithm::bmp_rf(), None);

    // Shard 1's first attempt dies mid-stream; the retry must succeed and
    // the output must stay byte-identical.
    let ctx = Arc::new(ObsContext::new());
    let out = {
        let _obs = ctx.install();
        let mut cfg = config(prep.clone(), 4, Algorithm::bmp_rf());
        cfg.fail_spec = Some("1:0".into());
        run_sharded(&pg, &cfg).expect("retry must recover")
    };
    assert_eq!(out.counts, want, "retried run must stay byte-identical");
    assert_eq!(out.worker_failures, 1);
    let report = cnc_obs::RunReport::from_context(&ctx);
    assert_eq!(report.counter(Counter::ShardWorkerFailures), 1);
    assert_eq!(
        report.counter(Counter::ShardWorkers),
        out.workers as u64 + 1,
        "the failed attempt counts as a spawned worker"
    );
    assert!(report.counter(Counter::ShardRangeCostMax) > 0);
    let shard_span = report
        .spans
        .iter()
        .find(|s| s.name == "shard")
        .expect("shard span at the root");
    assert_eq!(shard_span.children.len(), out.workers);
    assert!(shard_span.children.iter().all(|c| c.name == "execute"));
    assert!(shard_span.children.iter().all(|c| c.items > 0));
    assert!(
        report.spans.iter().any(|s| s.name == "remap"),
        "the reordered gather is remapped under its own span"
    );

    // Both attempts dying exhausts the retry budget: a typed error naming
    // the shard and the attempt count.
    let mut cfg = config(prep.clone(), 4, Algorithm::bmp_rf());
    cfg.fail_spec = Some("1:0,1:1".into());
    match run_sharded(&pg, &cfg) {
        Err(ShardError::Worker {
            shard, attempts, ..
        }) => {
            assert_eq!(shard, 1);
            assert_eq!(attempts, 2);
        }
        other => panic!("expected ShardError::Worker, got {other:?}"),
    }
    let _ = std::fs::remove_file(&prep);
}

#[test]
fn missing_worker_executable_is_a_spawn_error() {
    let pg = PreparedGraph::from_csr(
        Dataset::WiS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "spawn");
    let mut cfg = config(prep.clone(), 2, Algorithm::bmp_rf());
    cfg.worker_exe = PathBuf::from("/nonexistent/cnc-no-such-binary");
    match run_sharded(&pg, &cfg) {
        Err(ShardError::Spawn { .. }) => {}
        other => panic!("expected ShardError::Spawn, got {other:?}"),
    }
    let _ = std::fs::remove_file(&prep);
}

#[test]
fn custom_mps_config_is_rejected_with_a_typed_error() {
    let pg = PreparedGraph::from_csr(
        Dataset::WiS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "algo-reject");
    let custom = Algorithm::Mps(cnc_intersect::MpsConfig {
        skew_threshold: 7,
        ..cnc_intersect::MpsConfig::default()
    });
    match run_sharded(&pg, &config(prep.clone(), 2, custom)) {
        Err(ShardError::Algorithm(msg)) => {
            assert!(msg.contains("MPS"), "unhelpful error: {msg}")
        }
        other => panic!("expected ShardError::Algorithm, got {other:?}"),
    }
    let _ = std::fs::remove_file(&prep);
}

/// The `CNCPREP4` payload checksum, restated from `cnc_graph::prepare`: an
/// FNV-style multiply-xor fold over four interleaved u64 lanes, then the
/// zero-padded tail words and the length.
fn prep_checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let word = |w: &[u8]| {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(padded)
    };
    let mut lanes = [OFFSET ^ 0x01, OFFSET ^ 0x10, OFFSET ^ 0x11, OFFSET];
    let blocks = bytes.len() / 32 * 32;
    for block in bytes[..blocks].chunks(32) {
        for (lane, w) in lanes.iter_mut().zip(block.chunks(8)) {
            *lane = (*lane ^ word(w)).wrapping_mul(PRIME);
        }
    }
    let mut hash = OFFSET;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for w in bytes[blocks..].chunks(8) {
        hash = (hash ^ word(w)).wrapping_mul(PRIME);
    }
    (hash ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// Byte ranges of the section payloads of a `CNCPREP4` image: a 64-byte
/// file header, then per section a 64-byte header (payload length,
/// checksum, element width) and the payload padded to 64 bytes.
fn payload_ranges(image: &[u8]) -> Vec<Range<usize>> {
    let word = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let mut ranges = Vec::new();
    let mut pos = 64;
    while pos < image.len() {
        let start = pos + 64;
        let end = start + word(pos);
        ranges.push(start..end);
        pos = end.div_ceil(64) * 64;
    }
    ranges
}

/// `g` after one double-edge swap `(a,b), (c,d) → (a,d), (c,b)`: degrees,
/// symmetry and sorted rows survive, the edge set does not.
fn double_edge_swap(g: &CsrGraph) -> CsrGraph {
    let edges: Vec<(u32, u32)> = g
        .iter_edges()
        .filter(|&(_, u, v)| u < v)
        .map(|(_, u, v)| (u, v))
        .collect();
    let absent = |u: u32, v: u32| g.edge_offset(u, v).is_none();
    let (i, j) = (0..edges.len())
        .flat_map(|i| (i + 1..edges.len()).map(move |j| (i, j)))
        .find(|&(i, j)| {
            let ((a, b), (c, d)) = (edges[i], edges[j]);
            a != c && a != d && b != c && b != d && absent(a, d) && absent(c, b)
        })
        .expect("a swappable pair of edges");
    let ((a, b), (c, d)) = (edges[i], edges[j]);
    let swapped = edges.iter().enumerate().map(|(k, &e)| match k {
        k if k == i => (a, d),
        k if k == j => (c, b),
        _ => e,
    });
    let mut out = CsrGraph::from_undirected_pairs(g.num_vertices(), swapped);
    out.build_reverse_index();
    out
}

#[test]
fn inconsistent_relabel_is_a_typed_error_in_process_and_sharded() {
    // A prep image whose relabeled CSR has one double-edge swap, with its
    // dst and reverse-index sections rewritten and re-checksummed. Every
    // load check passes (checksums are not authentication, and degrees are
    // preserved), so only the remap can notice the lost edges.
    let pg = PreparedGraph::from_csr(
        Dataset::TwS.build(Scale::Tiny),
        ReorderPolicy::DegreeDescending,
    );
    let prep = write_prep(&pg, "tampered-relabel");
    let mut image = std::fs::read(&prep).unwrap();
    let sections = payload_ranges(&image);
    assert_eq!(sections.len(), 7, "original CSR, relabeled CSR, table");
    let swapped = double_edge_swap(&pg.reordered().unwrap().graph);
    let dst: Vec<u8> = swapped.dst().iter().flat_map(|x| x.to_le_bytes()).collect();
    let rev: Vec<u8> = swapped
        .reverse_index()
        .unwrap()
        .iter()
        .flat_map(|&x| (x as u64).to_le_bytes())
        .collect();
    for (section, payload) in [(4, dst), (5, rev)] {
        let range = sections[section].clone();
        assert_eq!(range.len(), payload.len());
        image[range.clone()].copy_from_slice(&payload);
        let checksum_at = range.start - 64 + 8;
        image[checksum_at..checksum_at + 8].copy_from_slice(&prep_checksum(&payload).to_le_bytes());
    }
    std::fs::write(&prep, &image).unwrap();
    let loaded = prepare::map_prepared(&prep).expect("the image passes every load check");

    let runner = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf());
    match runner.try_run_prepared(&loaded).map(|_| ()) {
        Err(PlanError::Remap(RemapError::MissingEdge { .. })) => {}
        other => panic!("expected PlanError::Remap, got {other:?}"),
    }
    assert!(loaded.reordered().unwrap().edge_map().is_none());
    match run_sharded(&loaded, &config(prep.clone(), 2, Algorithm::bmp_rf())).map(|_| ()) {
        Err(ShardError::Remap(RemapError::MissingEdge { .. })) => {}
        other => panic!("expected ShardError::Remap, got {other:?}"),
    }
    // A run that does not reorder never reads the relabel.
    let unreordered = runner.reorder(false).try_run_prepared(&loaded).unwrap();
    assert_eq!(
        unreordered.into_counts(),
        oracle(&pg, Algorithm::mps(), Some(false))
    );
    let _ = std::fs::remove_file(&prep);
}
