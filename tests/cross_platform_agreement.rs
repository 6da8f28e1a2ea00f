//! Cross-crate integration: every platform × algorithm combination must
//! produce identical, reference-verified counts on a corpus of graphs.

use cnc_core::{reference_counts, Algorithm, Platform, Runner};
use cnc_graph::datasets::{Dataset, Scale};
use cnc_graph::{generators, CsrGraph, EdgeList};
use cnc_machine::MemMode;

fn corpus() -> Vec<(String, CsrGraph)> {
    let mut out: Vec<(String, CsrGraph)> = vec![
        ("empty".into(), CsrGraph::from_edge_list(&EdgeList::new(0))),
        (
            "edgeless".into(),
            CsrGraph::from_edge_list(&EdgeList::new(7)),
        ),
        (
            "single-edge".into(),
            CsrGraph::from_edge_list(&EdgeList::from_pairs([(0, 1)])),
        ),
        (
            "triangle".into(),
            CsrGraph::from_edge_list(&EdgeList::from_pairs([(0, 1), (1, 2), (0, 2)])),
        ),
        (
            "complete-16".into(),
            CsrGraph::from_edge_list(&generators::complete(16)),
        ),
        (
            "path-64".into(),
            CsrGraph::from_edge_list(&generators::path(64)),
        ),
        (
            "star-100".into(),
            CsrGraph::from_edge_list(&generators::star(100)),
        ),
        (
            "clique-chain".into(),
            CsrGraph::from_edge_list(&generators::clique_chain(5, 7)),
        ),
        (
            "gnm".into(),
            CsrGraph::from_edge_list(&generators::gnm(300, 1500, 11)),
        ),
        (
            "power-law".into(),
            CsrGraph::from_edge_list(&generators::chung_lu(300, 9.0, 2.1, 12)),
        ),
        (
            "hub-web".into(),
            CsrGraph::from_edge_list(&generators::hub_web(300, 5.0, 2, 0.5, 13)),
        ),
        (
            "rmat".into(),
            CsrGraph::from_edge_list(&generators::rmat(8, 6, 0.57, 0.19, 0.19, 14)),
        ),
    ];
    for d in [Dataset::LjS, Dataset::TwS] {
        out.push((d.name().into(), d.build(Scale::Tiny)));
    }
    out
}

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
fn all_platforms_all_algorithms_all_graphs() {
    for (name, g) in corpus() {
        let want = reference_counts(&g);
        for (pname, platform) in platforms(1e-4) {
            for algorithm in algorithms() {
                let r = Runner::new(platform.clone(), algorithm)
                    .try_run(&g)
                    .unwrap();
                assert_eq!(
                    r.counts(),
                    want,
                    "graph={name} platform={pname} algorithm={}",
                    algorithm.label()
                );
            }
        }
    }
}

#[test]
fn reordering_never_changes_counts() {
    for (name, g) in corpus() {
        let want = reference_counts(&g);
        for reorder in [false, true] {
            let r = Runner::new(Platform::cpu_parallel(), Algorithm::bmp_rf())
                .reorder(reorder)
                .try_run(&g)
                .unwrap();
            assert_eq!(r.counts(), want, "graph={name} reorder={reorder}");
        }
    }
}

#[test]
fn triangle_counts_agree_across_platforms() {
    let g = Dataset::OrS.build(Scale::Tiny);
    let scale = Dataset::OrS.capacity_scale(&g);
    let mut triangle_counts = Vec::new();
    for (pname, platform) in platforms(scale) {
        let r = Runner::new(platform, Algorithm::mps()).try_run(&g).unwrap();
        triangle_counts.push((pname, r.view(&g).triangle_count()));
    }
    let first = triangle_counts[0].1;
    assert!(first > 0, "or-s must contain triangles");
    for (pname, t) in triangle_counts {
        assert_eq!(t, first, "platform {pname} disagrees on triangle count");
    }
}
