//! The `baseline` target: a deterministic performance baseline, gated
//! against the committed `BENCH_baseline.json`.
//!
//! Runs a *fixed* seed matrix — independent of `--quick`, so the output is
//! canonical — and writes `BENCH_baseline.json` next to the usual
//! experiment files: Q/s, translations per lookup, and per-phase time
//! shares for every (strategy, R size) point. The simulator is
//! deterministic and the JSON writer formats floats deterministically, so
//! the same toolchain produces a byte-identical file on every run and for
//! any `--jobs` count — CI byte-diffs a serial and a 4-worker run.
//!
//! Every point is diffed against the committed file ([`GATE`]): discrete
//! outcomes (windows, result tuples, retries) exactly, throughput-like
//! metrics within 2 % relative, phase shares within 0.02 absolute. Any
//! violation fails the target, so a perf regression — or an
//! unacknowledged improvement — cannot land silently; intentional changes
//! re-record the file with `experiments baseline --record`.

use crate::config::ExpConfig;
use crate::gate::{self, r6, Band, Keyed, Spec};
use crate::output::{num, num6, Experiment};
use serde::Serialize;
use serde_json::json;
use windex_core::prelude::*;
use windex_serve::parallel::run_lanes;
use windex_sim::phase;

/// Format-version marker for trajectory tooling.
const SCHEMA_VERSION: u32 = 1;

/// How `BENCH_baseline.json` is gated.
pub(crate) const GATE: Spec<Baseline> = Spec {
    target: "baseline",
    schema: SCHEMA_VERSION,
    keyed: &[Keyed {
        path: "entries",
        key: &["strategy", "r_gib"],
        noun: "points",
    }],
    bands: &[
        ("entries[].queries_per_second", Band::Rel(0.02)),
        ("entries[].translations_per_lookup", Band::Rel(0.02)),
        ("entries[].tlb_misses", Band::Rel(0.02)),
        ("entries[].ic_bytes_total", Band::Rel(0.02)),
        ("entries[].share_partition", Band::Abs(0.02)),
        ("entries[].share_lookup", Band::Abs(0.02)),
        ("entries[].share_other", Band::Abs(0.02)),
    ],
    invariants: &[],
};

/// Fixed probe-side size of the baseline matrix (simulated tuples).
const S_TUPLES: usize = 1 << 13;

/// Fixed indexed-relation sizes of the baseline matrix, in paper GiB.
const R_GIB: [f64; 2] = [1.0, 8.0];

/// Fixed window capacity for the windowed strategy (the paper's 32 MiB
/// window at 1024× scale).
const WINDOW_TUPLES: usize = 1 << 12;

/// The strategies the baseline tracks, in report order.
fn strategies() -> Vec<JoinStrategy> {
    vec![
        JoinStrategy::HashJoin,
        JoinStrategy::Inlj {
            index: IndexKind::BinarySearch,
        },
        JoinStrategy::Inlj {
            index: IndexKind::RadixSpline,
        },
        JoinStrategy::PartitionedInlj {
            index: IndexKind::RadixSpline,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::Harmonia,
            window_tuples: WINDOW_TUPLES,
        },
        JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples: WINDOW_TUPLES,
        },
    ]
}

/// One (strategy, R size) point of the baseline.
#[derive(Debug, Clone, Serialize)]
struct BaselineEntry {
    strategy: String,
    r_gib: f64,
    queries_per_second: f64,
    translations_per_lookup: f64,
    share_partition: f64,
    share_lookup: f64,
    share_other: f64,
    windows: usize,
    result_tuples: usize,
    tlb_misses: u64,
    ic_bytes_total: u64,
    retries: u64,
}

/// The whole baseline file.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct Baseline {
    schema: u32,
    scale_factor: u64,
    s_tuples: usize,
    window_tuples: usize,
    entries: Vec<BaselineEntry>,
}

/// Run one matrix cell on a fresh `Gpu`. Cells are independent
/// deterministic simulations, which is what makes the parallel harness
/// safe: any scheduling of cells produces the same per-cell result.
/// Also returns the cell's simulated memory-system accesses (L1 + TLB
/// lookups), the work unit the `simperf` target normalizes by.
fn run_cell(
    spec: &GpuSpec,
    r: &Relation,
    s: &Relation,
    gib: f64,
    st: JoinStrategy,
) -> (BaselineEntry, u64) {
    let mut gpu = Gpu::new(spec.clone());
    let rep = QueryExecutor::new()
        .run(&mut gpu, r, s, st)
        .expect("baseline query must succeed");
    let c = &rep.counters;
    let accesses = c.l1_hits + c.l1_misses + c.tlb_hits + c.tlb_misses;
    let entry = BaselineEntry {
        strategy: rep.strategy.clone(),
        r_gib: gib,
        queries_per_second: r6(rep.queries_per_second()),
        translations_per_lookup: r6(rep.translations_per_lookup()),
        share_partition: r6(rep.phases.share(phase::PARTITION)),
        share_lookup: r6(rep.phases.share(phase::LOOKUP)),
        share_other: r6(rep.phases.share(phase::OTHER)),
        windows: rep.windows,
        result_tuples: rep.result_tuples,
        tlb_misses: rep.counters.tlb_misses,
        ic_bytes_total: rep.counters.ic_bytes_total(),
        retries: rep.retries,
    };
    (entry, accesses)
}

/// Compute the seed matrix with `jobs` workers, also returning the total
/// simulated memory-system accesses (for `simperf`).
pub(crate) fn compute_counted(jobs: usize) -> (Baseline, u64) {
    let scale = Scale::PAPER;
    let spec = GpuSpec::v100_nvlink2(scale);
    // Relations are deterministic functions of their seeds; build each R
    // size once and share it read-only across that size's cells.
    let inputs: Vec<(f64, Relation, Relation)> = R_GIB
        .iter()
        .map(|&gib| {
            let r = Relation::unique_sorted(
                scale.sim_tuples_for_paper_gib(gib),
                KeyDistribution::Dense,
                42,
            );
            let s = Relation::foreign_keys_uniform(&r, S_TUPLES, 7);
            (gib, r, s)
        })
        .collect();
    let cells: Vec<(usize, JoinStrategy)> = (0..inputs.len())
        .flat_map(|input| strategies().into_iter().map(move |st| (input, st)))
        .collect();
    let results = run_lanes(jobs, cells.len(), |i| {
        let (input, st) = cells[i];
        let (gib, r, s) = &inputs[input];
        run_cell(&spec, r, s, *gib, st)
    });
    let accesses = results.iter().map(|(_, a)| a).sum();
    let entries = results.into_iter().map(|(e, _)| e).collect();
    (
        Baseline {
            schema: SCHEMA_VERSION,
            scale_factor: scale.factor,
            s_tuples: S_TUPLES,
            window_tuples: WINDOW_TUPLES,
            entries,
        },
        accesses,
    )
}

fn compute() -> Baseline {
    compute_counted(1).0
}

/// The canonical baseline serialization, computed serially.
pub fn baseline_json() -> String {
    gate::to_text(&compute())
}

/// The `baseline` target: renders the matrix as an experiment table,
/// gates it against the committed file, and writes the canonical
/// `BENCH_baseline.json` into `cfg.out_dir`.
pub fn baseline(cfg: &ExpConfig) -> Result<Experiment, String> {
    let data = compute_counted(cfg.jobs).0;
    let gate_note = gate::run(&GATE, cfg, &data)?;
    let rows = data
        .entries
        .iter()
        .map(|e| {
            vec![
                json!(e.strategy.clone()),
                num(e.r_gib),
                num(e.queries_per_second),
                num6(e.translations_per_lookup),
                num(e.share_partition),
                num(e.share_lookup),
                num(e.share_other),
                json!(e.windows),
                json!(e.retries),
            ]
        })
        .collect();
    Ok(Experiment {
        id: "baseline".into(),
        title: "Perf baseline: Q/s, translations/lookup, per-phase shares (fixed matrix)".into(),
        columns: vec![
            "strategy".into(),
            "r_gib".into(),
            "qps".into(),
            "transl_per_lookup".into(),
            "share_partition".into(),
            "share_lookup".into(),
            "share_other".into(),
            "windows".into(),
            "retries".into(),
        ],
        rows,
        notes: vec![
            "fixed seed matrix, independent of --quick: canonical regression trajectory".into(),
            gate_note,
            format!(
                "also written as BENCH_baseline.json (schema v{SCHEMA_VERSION}); \
                 same toolchain => byte-identical, enforced by CI"
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The seed matrix is expensive; compute it once for the whole module.
    fn fresh() -> &'static Baseline {
        static FRESH: OnceLock<Baseline> = OnceLock::new();
        FRESH.get_or_init(compute)
    }

    #[test]
    fn baseline_is_byte_deterministic() {
        assert_eq!(gate::to_text(fresh()), baseline_json());
    }

    #[test]
    fn parallel_jobs_are_byte_identical_to_serial() {
        let parallel = gate::to_text(&compute_counted(4).0);
        assert_eq!(
            gate::to_text(fresh()),
            parallel,
            "--jobs must not change the report"
        );
    }

    #[test]
    fn baseline_matches_committed_file() {
        // The gate diffs with tolerance bands; this golden test holds the
        // canonical artifact to *byte* identity, so any engine change that
        // moves a counter — even inside the bands — must re-record
        // BENCH_baseline.json deliberately.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let committed =
            std::fs::read_to_string(path).expect("committed BENCH_baseline.json at the repo root");
        assert_eq!(
            gate::to_text(fresh()),
            committed,
            "fresh baseline differs from committed BENCH_baseline.json; \
             re-record with `experiments baseline --record` if intentional"
        );
    }

    #[test]
    fn baseline_covers_the_matrix_with_sane_shares() {
        let data = fresh();
        assert_eq!(data.entries.len(), R_GIB.len() * strategies().len());
        for e in &data.entries {
            assert!(e.queries_per_second > 0.0, "{}", e.strategy);
            assert_eq!(e.result_tuples, S_TUPLES, "{}", e.strategy);
            let share_sum = e.share_partition + e.share_lookup + e.share_other;
            assert!(
                share_sum > 0.99 && share_sum < 1.01,
                "{}: shares sum to {share_sum}",
                e.strategy
            );
            assert_eq!(e.retries, 0, "{}: baseline runs are fault-free", e.strategy);
        }
        // Windowed strategies decompose into partition + lookup; the
        // unpartitioned INLJ is all lookup.
        let windowed = data
            .entries
            .iter()
            .find(|e| e.strategy.starts_with("windowed-inlj"))
            .unwrap();
        assert!(windowed.share_partition > 0.0);
        assert!(windowed.share_lookup > 0.0);
        let inlj = data
            .entries
            .iter()
            .find(|e| e.strategy.starts_with("inlj"))
            .unwrap();
        assert!(
            inlj.share_lookup > 0.9,
            "inlj lookup share {}",
            inlj.share_lookup
        );
    }
}
