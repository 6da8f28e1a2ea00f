//! Seeded workload inputs. Every input is generated from `--seed` through
//! the repository's public generators and handed to the program as a file.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

use cnc_graph::prepare::write_prepared;
use cnc_graph::stream::{prepare_file, StreamConfig};
use cnc_graph::{generators, io::write_csr, CsrGraph, PreparedGraph, ReorderPolicy};

use crate::report::Outcome;

/// The tw-s recipe (`Dataset::TwS`) at medium scale: 96k vertices, six hubs
/// covering half the graph, and a γ = 2.2 body of average degree 24.
pub const HUB_WEB: (usize, f64, usize, f64) = (96_000, 24.0, 6, 0.5);

/// The streamed power-law edge list: vertices, sampled average degree, γ.
pub const POWER_LAW: (usize, f64, f64) = (200_000, 20.0, 2.2);

/// Memory budget of every timed stream prepare: small enough that the
/// external sort spills several runs on either input.
pub const STREAM_BUDGET: u64 = 2 << 20;

/// Budget of the untimed reference preparation: the whole input fits, so
/// it never spills and cross-checks the spilling path byte for byte.
const REFERENCE_BUDGET: u64 = 256 << 20;

/// One workload's input files.
#[derive(Debug, Clone)]
pub struct Input {
    /// The edge-list file a cold preparation reads.
    pub source: PathBuf,
    /// The prepared image the counting paths load warm.
    pub prep: PathBuf,
    /// Reorder policy of `prep` (degree-descending for BMP, none for MPS).
    pub policy: ReorderPolicy,
}

/// The hub-heavy graph: binary CSR source plus its degree-descending
/// preparation.
pub fn hub_web(dir: &Path, seed: u64) -> io::Result<Input> {
    let (n, avg_deg, hubs, coverage) = HUB_WEB;
    let el = generators::hub_web(n, avg_deg, hubs, coverage, seed);
    let g = CsrGraph::from_edge_list_parallel(&el);
    drop(el);
    let source = dir.join("input.csr");
    write_csr(&g, File::create(&source)?)?;
    let policy = ReorderPolicy::DegreeDescending;
    let pg = PreparedGraph::from_csr(g, policy);
    let prep = dir.join("graph.prep");
    write_prepared(&pg, BufWriter::new(File::create(&prep)?))?;
    Ok(Input {
        source,
        prep,
        policy,
    })
}

/// The streamed power-law graph: SNAP text source plus its unreordered
/// reference preparation (built without spilling).
pub fn power_law(dir: &Path, seed: u64) -> io::Result<Input> {
    let (n, avg_deg, gamma) = POWER_LAW;
    let source = dir.join("input.txt");
    generators::stream_power_law(n, avg_deg, gamma, seed, File::create(&source)?)?;
    let prep = dir.join("graph.prep");
    let policy = ReorderPolicy::None;
    let cfg = StreamConfig {
        mem_budget: Some(REFERENCE_BUDGET),
        spill_dir: Some(dir.to_path_buf()),
    };
    prepare_file(&source, &prep, policy, &cfg)?;
    Ok(Input {
        source,
        prep,
        policy,
    })
}

/// Record the stated input size: |V|, |E|, skew, CSR and file bytes.
pub fn describe(pg: &PreparedGraph, input: &Input, out: &mut Outcome) {
    let g = pg.graph();
    let bytes = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    out.info_num("vertices", g.num_vertices());
    out.info_num("undirected_edges", g.num_undirected_edges());
    out.info_num("max_degree", pg.stats().max_degree);
    out.info_raw("skew_pct", format!("{:.2}", pg.skew_pct()));
    out.info_num("csr_bytes", g.csr_bytes());
    out.info_num("input_bytes", bytes(&input.source));
    out.info_num("prep_bytes", bytes(&input.prep));
    out.info_num("stream_budget_bytes", STREAM_BUDGET);
    out.info_str(
        "reorder",
        match input.policy {
            ReorderPolicy::DegreeDescending => "degdesc",
            ReorderPolicy::None => "none",
        },
    );
}
