//! Join workloads: one indexed relation R, one foreign-key probe relation
//! S, and a fixed list of plans run through `QuerySession::run`.

use crate::stats::Digest;
use crate::trace::{timed, Tracer};
use crate::{Call, SetupTimes};
use windex::prelude::*;

/// A join plan the benchmark can run, with its metric key and span name.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Metric-name suffix, e.g. `windowed_rs`.
    pub key: &'static str,
    /// Span around `QuerySession::run` for this plan.
    pub span: &'static str,
    /// The strategy handed to the session.
    pub strategy: JoinStrategy,
}

/// Every plan any join workload runs, in metric order.
pub const PLANS: [Plan; 4] = [
    Plan {
        key: "windowed_rs",
        span: "core.run.windowed_rs",
        strategy: JoinStrategy::WindowedInlj {
            index: IndexKind::RadixSpline,
            window_tuples: 1 << 12,
        },
    },
    Plan {
        key: "windowed_harmonia",
        span: "core.run.windowed_harmonia",
        strategy: JoinStrategy::WindowedInlj {
            index: IndexKind::Harmonia,
            window_tuples: 1 << 12,
        },
    },
    Plan {
        key: "inlj_rs",
        span: "core.run.inlj_rs",
        strategy: JoinStrategy::Inlj {
            index: IndexKind::RadixSpline,
        },
    },
    Plan {
        key: "hash_join",
        span: "core.run.hash_join",
        strategy: JoinStrategy::HashJoin,
    },
];

/// Sizes and plans of one join workload.
#[derive(Debug, Clone, Copy)]
pub struct JoinSpec {
    /// Tuples of R (dense keys).
    pub r_tuples: usize,
    /// Tuples of S (uniform foreign keys into R).
    pub s_tuples: usize,
    /// Positions in [`PLANS`] this workload runs, in run order.
    pub plans: &'static [usize],
}

fn gpu_spec() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

/// A staged join workload.
#[derive(Debug)]
pub struct JoinBench {
    spec: JoinSpec,
    s_len: usize,
    gpu: Gpu,
    session: QuerySession,
    /// The report of every plan's first run, in `spec.plans` order.
    pub first: Vec<Option<QueryReport>>,
}

/// The index kinds `plans` need, each once, in plan order.
fn index_kinds(plans: &[usize]) -> Vec<IndexKind> {
    let mut kinds = Vec::new();
    for kind in plans.iter().filter_map(|&p| PLANS[p].strategy.index_kind()) {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    kinds
}

fn build_session(gpu: &mut Gpu, r: Relation, s: Relation) -> Result<QuerySession, WindexError> {
    QuerySession::new(gpu, QueryExecutor::new(), r, s)
}

impl JoinBench {
    /// Generate R and S from `seed`, stage them, and build every index the
    /// plans need.
    pub fn setup(spec: JoinSpec, seed: u64, tr: &mut Tracer) -> Result<(Self, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let ((r, s), gen_s) = timed(tr, "workload.gen", || {
            let r = Relation::unique_sorted(spec.r_tuples, KeyDistribution::Dense, seed);
            let s = Relation::foreign_keys_uniform(&r, spec.s_tuples, seed ^ 0x5eed);
            (r, s)
        });
        times.gen_s = gen_s;
        let s_len = s.len();
        let mut gpu = Gpu::new(gpu_spec());
        let session = tr
            .span("core.stage", |_| build_session(&mut gpu, r, s))
            .map_err(|e| format!("staging failed: {e}"))?;
        let mut bench = JoinBench {
            spec,
            s_len,
            gpu,
            session,
            first: vec![None; spec.plans.len()],
        };
        for kind in index_kinds(spec.plans) {
            let (span, slot) = match kind {
                IndexKind::RadixSpline => ("index.build.radix_spline", &mut times.index_rs_s),
                _ => ("index.build.harmonia", &mut times.index_harmonia_s),
            };
            *slot = timed(tr, span, || bench.session.index(&mut bench.gpu, kind)).1;
        }
        Ok((bench, times))
    }

    /// Plans per pass.
    pub fn slots(&self) -> usize {
        self.spec.plans.len()
    }

    /// Run plan `slot` of pass `pass`. Every pass after the first starts
    /// on a fresh device and session, so each run reads the same
    /// simulated statistics as the first.
    pub fn call(&mut self, pass: usize, slot: usize, tr: &mut Tracer) -> Call {
        if pass > 0 && slot == 0 {
            let rebuilt = tr.span("index.rebuild", |_| {
                let mut gpu = Gpu::new(gpu_spec());
                let r = self.session.indexed_relation().clone();
                let s = self.session.probe_relation().clone();
                let mut session = build_session(&mut gpu, r, s)?;
                for kind in index_kinds(self.spec.plans) {
                    session.index(&mut gpu, kind);
                }
                Ok::<_, WindexError>((gpu, session))
            });
            match rebuilt {
                Ok((gpu, session)) => {
                    self.gpu = gpu;
                    self.session = session;
                }
                Err(e) => return Call::error(1, format!("restaging failed: {e}")),
            }
        }
        let plan = PLANS[self.spec.plans[slot]];
        let (out, host_s) = timed(tr, plan.span, || {
            self.session.run(&mut self.gpu, plan.strategy)
        });
        let report = match out {
            Ok(report) => report,
            Err(e) => return Call::error(1, format!("{}: {e}", plan.key)),
        };
        let mut call = Call {
            host_s,
            keys: self.s_len as u64,
            attempted: 1,
            ..Call::default()
        };
        // An FK join matches every probe tuple exactly once.
        tr.span("bench.oracle", |_| {
            if report.result_tuples != self.s_len {
                call.failed = 1;
                call.wrong = 1;
                call.errors.push(format!(
                    "{}: {} result tuples, expected {}",
                    plan.key, report.result_tuples, self.s_len
                ));
            }
        });
        let mut d = Digest::default();
        d.debug(&report.counters);
        d.debug(&report.time);
        d.debug(&report.phases);
        d.u64(report.result_tuples as u64);
        d.u64(report.windows as u64);
        call.digest = d.value();
        if pass == 0 {
            self.first[slot] = Some(report);
        }
        call
    }

    /// The first-run report of the plan with metric key `key`, if this
    /// workload runs it.
    pub fn report(&self, key: &str) -> Option<&QueryReport> {
        self.spec
            .plans
            .iter()
            .position(|&p| PLANS[p].key == key)
            .and_then(|i| self.first[i].as_ref())
    }

    /// Modelled virtual query time of every plan's first run, in seconds.
    pub fn virtual_times_s(&self) -> Vec<f64> {
        self.first
            .iter()
            .flatten()
            .map(|r| r.time.total_s)
            .collect()
    }
}
