//! Exact work profiles of the counting algorithms on a concrete graph.

use cnc_cpu::{BmpMode, CpuKernel, ParConfig, WorkloadKind};
use cnc_graph::{CsrGraph, PreparedGraph};
use cnc_intersect::{Bitmap, MpsConfig, RfBitmap, WorkCounts};
use cnc_machine::WorkProfile;

use crate::runner::ModeledAlgo;

/// The random-access working set of one execution context of `algo` on `g`:
/// the thread-local bitmap for BMP (replicated per thread), the shared
/// neighbor array for the merge family.
pub fn working_set_of(g: &CsrGraph, algo: &ModeledAlgo) -> (f64, bool) {
    match algo {
        ModeledAlgo::MergeBaseline | ModeledAlgo::Mps { .. } => {
            // Binary-search probes during pivot-skip land in the CSR
            // neighbor array, shared by all threads.
            (g.dst().len() as f64 * 4.0, false)
        }
        ModeledAlgo::Bmp { mode } => {
            let n = g.num_vertices().max(1);
            let bytes = match mode {
                BmpMode::Plain => Bitmap::new(n).bytes(),
                BmpMode::RangeFiltered { ratio } => {
                    // Only the *big* bitmap pressures the cache; the small
                    // filter is L1-resident by construction (its accesses
                    // are metered separately as `rand_accesses_small`).
                    RfBitmap::with_ratio(n, *ratio).bytes().0
                }
            };
            (bytes as f64, true)
        }
    }
}

/// Convert kernel work counts plus working-set information into the machine
/// model's input.
fn to_profile(counts: &WorkCounts, ws_bytes: f64, replicated: bool) -> WorkProfile {
    WorkProfile {
        scalar_ops: counts.scalar_ops as f64,
        vector_ops: counts.vector_ops as f64,
        seq_bytes: counts.seq_bytes as f64,
        rand_accesses: counts.rand_accesses as f64,
        rand_accesses_small: counts.rand_accesses_small as f64,
        write_bytes: counts.write_bytes as f64,
        ws_rand_bytes: ws_bytes,
        ws_replicated_per_thread: replicated,
    }
}

/// The CPU-side kernel dispatch equivalent to a modeled algorithm: modeled
/// processors execute the same unified edge-range driver as the real CPU.
pub fn cpu_kernel_of(algo: &ModeledAlgo) -> CpuKernel {
    match algo {
        ModeledAlgo::MergeBaseline => CpuKernel::Merge,
        ModeledAlgo::Mps { simd, threshold } => CpuKernel::Mps(MpsConfig {
            skew_threshold: *threshold,
            simd: *simd,
        }),
        ModeledAlgo::Bmp { mode } => CpuKernel::Bmp(*mode),
    }
}

/// Execute `algo` on `g` (sequentially, fully instrumented) and return the
/// exact counts plus the raw work tallies.
///
/// This routes through `cnc_cpu::CpuKernel::execute` on the one-task
/// [`ParConfig::sequential`] schedule — the same edge-range loop as every
/// real-CPU run — metered, so profiles are deterministic and exactly match
/// the work of one whole-range `run_range` call. Under an installed
/// observability context the driver also records the tallies, so
/// `--metrics` reports agree with the profile.
pub fn counts_and_work_of(g: &CsrGraph, algo: &ModeledAlgo) -> (Vec<u32>, WorkCounts) {
    let (output, work) = cnc_obs::ObsContext::scoped("modeled_count", || {
        cpu_kernel_of(algo).execute(g, WorkloadKind::Cnc, &ParConfig::sequential(), true)
    });
    let counts = output.into_edge_counts().expect("CNC yields edge counts");
    (counts, work.expect("metered runs report work"))
}

/// Turn raw work tallies of `algo` on `g` into the machine model's input.
pub fn profile_from_work(g: &CsrGraph, algo: &ModeledAlgo, work: &WorkCounts) -> WorkProfile {
    let (ws, repl) = working_set_of(g, algo);
    to_profile(work, ws, repl)
}

/// Execute `algo` on `g` (sequentially, fully instrumented) and return the
/// exact counts plus the machine-neutral work profile.
pub fn profile_of(g: &CsrGraph, algo: &ModeledAlgo) -> (Vec<u32>, WorkProfile) {
    let (counts, work) = counts_and_work_of(g, algo);
    (counts, profile_from_work(g, algo, &work))
}

/// The prepared-graph input `algo` should execute on: BMP takes the
/// degree-descending relabel (its complexity bound requires it) when the
/// preparation computed one; the merge family runs on the original ids.
pub fn execution_graph_of<'a>(prepared: &'a PreparedGraph, algo: &ModeledAlgo) -> &'a CsrGraph {
    prepared.execution_graph(matches!(algo, ModeledAlgo::Bmp { .. }))
}

/// [`profile_of`] over a shared preparation: the graph (and its reorder)
/// come from the [`PreparedGraph`] — no preprocessing happens here. Counts
/// are in the executed graph's offsets (the relabeled graph for BMP).
pub fn profile_of_prepared(
    prepared: &PreparedGraph,
    algo: &ModeledAlgo,
) -> (Vec<u32>, WorkProfile) {
    profile_of(execution_graph_of(prepared, algo), algo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_graph::datasets::{Dataset, Scale};
    use cnc_graph::generators;
    use cnc_intersect::SimdLevel;

    #[test]
    fn profiles_carry_positive_work() {
        let g = CsrGraph::from_edge_list(&generators::gnm(200, 1000, 1));
        for algo in [
            ModeledAlgo::MergeBaseline,
            ModeledAlgo::mps_avx2(),
            ModeledAlgo::mps_avx512(),
            ModeledAlgo::bmp_plain(),
            ModeledAlgo::bmp_rf(g.num_vertices()),
        ] {
            let (counts, p) = profile_of(&g, &algo);
            assert_eq!(counts.len(), g.num_directed_edges());
            assert!(p.total_ops() > 0.0, "{algo:?} did no work");
            assert!(p.seq_bytes > 0.0);
        }
    }

    #[test]
    fn all_profiled_algos_agree_on_counts() {
        let g = Dataset::TwS.build(Scale::Tiny);
        let (want, _) = profile_of(&g, &ModeledAlgo::MergeBaseline);
        for algo in [
            ModeledAlgo::mps_scalar(),
            ModeledAlgo::mps_avx512(),
            ModeledAlgo::bmp_plain(),
            ModeledAlgo::bmp_rf(g.num_vertices()),
        ] {
            let (got, _) = profile_of(&g, &algo);
            assert_eq!(got, want, "{algo:?}");
        }
    }

    #[test]
    fn vectorized_mps_shifts_scalar_work_to_vector() {
        let g = Dataset::FrS.build(Scale::Tiny);
        let (_, scalar) = profile_of(&g, &ModeledAlgo::mps_scalar());
        let (_, vec512) = profile_of(&g, &ModeledAlgo::mps_avx512());
        assert!(vec512.vector_ops > 0.0);
        assert!(vec512.scalar_ops < scalar.scalar_ops);
        assert_eq!(scalar.vector_ops, 0.0);
    }

    #[test]
    fn bmp_working_set_is_bitmap_and_replicated() {
        let g = CsrGraph::from_edge_list(&generators::gnm(640, 2000, 2));
        let (ws, repl) = working_set_of(&g, &ModeledAlgo::bmp_plain());
        assert_eq!(ws, 640.0 / 8.0);
        assert!(repl);
        let (ws_m, repl_m) = working_set_of(&g, &ModeledAlgo::mps_avx2());
        assert_eq!(ws_m, g.dst().len() as f64 * 4.0);
        assert!(!repl_m);
    }

    #[test]
    fn mps_on_skewed_graph_does_less_work_than_baseline() {
        // The DSH effect (Figure 3) at the profile level.
        let g = Dataset::WiS.build(Scale::Tiny);
        let (_, base) = profile_of(&g, &ModeledAlgo::MergeBaseline);
        let (_, mps) = profile_of(
            &g,
            &ModeledAlgo::Mps {
                simd: SimdLevel::Scalar,
                threshold: 50,
            },
        );
        assert!(mps.total_ops() < base.total_ops());
    }
}
