//! A prepared graph built by the bounded-memory streaming pipeline must be
//! a perfect drop-in for one built in memory: identical counts from every
//! platform × algorithm combination, driven through the same `Runner`
//! entry points, under both reorder policies.

#![cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]

use std::fs;
use std::sync::Arc;

use cnc_core::{reference_counts, Algorithm, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::prepare::map_prepared;
use cnc_graph::stream::{self, StreamConfig};
use cnc_graph::{PreparedGraph, ReorderPolicy};
use cnc_machine::MemMode;

fn platforms(scale: f64) -> Vec<(&'static str, Platform)> {
    vec![
        ("cpu-seq", Platform::CpuSequential),
        ("cpu-par", Platform::cpu_parallel()),
        (
            "cpu-model",
            Platform::CpuModel {
                threads: 56,
                capacity_scale: scale,
            },
        ),
        ("knl-flat", Platform::knl_flat(scale)),
        (
            "knl-ddr",
            Platform::Knl {
                threads: 64,
                mode: MemMode::Ddr,
                capacity_scale: scale,
            },
        ),
        ("gpu", Platform::gpu(scale)),
    ]
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::MergeBaseline,
        Algorithm::mps(),
        Algorithm::bmp(),
        Algorithm::bmp_rf(),
    ]
}

#[test]
fn streamed_preparation_counts_identically_everywhere() {
    let dir = std::env::temp_dir().join(format!("cnc-stream-agree-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    for (dataset, policy) in [
        (Dataset::OrS, ReorderPolicy::DegreeDescending),
        (Dataset::WiS, ReorderPolicy::None),
    ] {
        let el = dataset.edge_list(Scale::Tiny);
        let owned = PreparedGraph::from_edge_list(&el, policy);
        let want = reference_counts(owned.graph());

        // Stream the same edges through the external sorter under a budget
        // small enough to force disk spills, then map the image back.
        let path = dir.join(format!("{}-{}.prep", dataset.name(), policy.tag()));
        let cfg = StreamConfig {
            mem_budget: Some(8192),
            spill_dir: None,
        };
        let summary =
            stream::prepare_pairs_to_file(el.num_vertices, el.iter(), policy, &path, &cfg)
                .expect("streamed preparation must succeed");
        assert!(
            summary.spill_runs > 0,
            "{}: tiny budget must exercise the spill path",
            dataset.name()
        );
        let mapped = Arc::new(map_prepared(&path).expect("streamed image must map"));
        assert!(mapped.graph().storage_mapped(), "CSR must be zero-copy");

        let scale = dataset.capacity_scale(mapped.graph());
        for (pname, platform) in platforms(scale) {
            for algorithm in algorithms() {
                let runner = Runner::new(platform.clone(), algorithm);
                let got = runner.try_run_prepared(&mapped).unwrap();
                assert_eq!(
                    got.counts(),
                    want,
                    "dataset={} policy={} platform={pname} algorithm={} \
                     diverges on streamed preparation",
                    dataset.name(),
                    policy.tag(),
                    algorithm.label()
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
