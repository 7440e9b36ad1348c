//! End-to-end and per-layer benchmark of the `windex` public API.
//!
//! Four seeded workloads drive the library from outside. An untraced run
//! reports the end-to-end metrics: set-up time, host keys per reference
//! time and peak memory of the simulator and servers, and the modelled
//! throughput and virtual latency of the paper's system. A traced run records spans
//! around every call the benchmark makes into a layer and reports the
//! per-layer metrics. See `README.md` beside this crate for the method.

mod join;
pub mod reference;
pub mod serve;
mod stats;
pub mod trace;

use join::{JoinBench, JoinSpec, PLANS};
use reference::Reference;
use serve::{ServeBench, ServeSpec};
use stats::{median, tail, Digest};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;
use windex::prelude::*;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// R = 64 paper-GiB, past the V100 TLB range.
    Join64g,
    /// R = 8 paper-GiB, inside the TLB range, plus the hash join.
    Join8g,
    /// One `Server` over 16 paper-GiB.
    Serve1Gpu,
    /// A 4-GPU radix-sharded `ClusterServer` over 64 paper-GiB.
    Serve4Gpu,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Join64g,
        Workload::Join8g,
        Workload::Serve1Gpu,
        Workload::Serve4Gpu,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Join64g => "join-64g",
            Workload::Join8g => "join-8g",
            Workload::Serve1Gpu => "serve-1gpu",
            Workload::Serve4Gpu => "serve-4gpu",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's, or a tiny set for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small enough for a unit test; every metric is still produced.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds to keep measuring after the first pass.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

fn paper_tuples(gib: f64) -> usize {
    Scale::PAPER.sim_tuples_for_paper_gib(gib)
}

enum Spec {
    Join(JoinSpec),
    Serve(ServeSpec),
}

fn spec(w: Workload, size: Size) -> Spec {
    let tiny = size == Size::Tiny;
    let serve = |gib: f64, gpus: usize, base_rps: f64, rates: usize| ServeSpec {
        r_tuples: if tiny { 1 << 14 } else { paper_tuples(gib) },
        gpus,
        requests: if tiny { 256 } else { 8192 },
        nominal_requests: if tiny { 512 } else { 4 * 8192 },
        tenants: 16,
        min_keys: 8,
        max_keys: 128,
        base_rps,
        rates: if tiny { 3 } else { rates },
        nominal: if tiny { 1 } else { 4 },
    };
    match w {
        Workload::Join64g => Spec::Join(JoinSpec {
            r_tuples: if tiny { 1 << 14 } else { paper_tuples(64.0) },
            s_tuples: if tiny { 1 << 10 } else { 1 << 16 },
            plans: &[0, 1, 2],
        }),
        Workload::Join8g => Spec::Join(JoinSpec {
            r_tuples: if tiny { 1 << 13 } else { paper_tuples(8.0) },
            s_tuples: if tiny { 1 << 10 } else { 1 << 16 },
            plans: &[0, 1, 2, 3],
        }),
        // 500 .. 2828 rps: the next step (3364) approaches the rate at
        // which the backpressure bound starts shedding.
        Workload::Serve1Gpu => Spec::Serve(serve(16.0, 1, 500.0, 11)),
        // 2000 .. 16000 rps.
        Workload::Serve4Gpu => Spec::Serve(serve(64.0, 4, 2000.0, 13)),
    }
}

/// Host times of one set-up, in seconds. Zero for a part the workload
/// does not have.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Everything before the first timed call.
    pub total_s: f64,
    /// Input generation.
    pub gen_s: f64,
    /// RadixSpline fit and build.
    pub index_rs_s: f64,
    /// Harmonia build.
    pub index_harmonia_s: f64,
    /// First `Server::new` / `ClusterServer::new`.
    pub serve_build_s: f64,
}

impl SetupTimes {
    /// Every time multiplied by `k`.
    fn scaled(&self, k: f64) -> SetupTimes {
        SetupTimes {
            total_s: self.total_s * k,
            gen_s: self.gen_s * k,
            index_rs_s: self.index_rs_s * k,
            index_harmonia_s: self.index_harmonia_s * k,
            serve_build_s: self.serve_build_s * k,
        }
    }

    /// One line of text, for a set-up child process to report.
    pub fn to_line(&self) -> String {
        format!(
            "setup {} {} {} {} {}",
            self.total_s, self.gen_s, self.index_rs_s, self.index_harmonia_s, self.serve_build_s
        )
    }

    /// Parse [`SetupTimes::to_line`].
    pub fn from_line(line: &str) -> Option<SetupTimes> {
        let mut it = line
            .strip_prefix("setup ")?
            .split(' ')
            .map(str::parse::<f64>);
        let mut next = || it.next()?.ok();
        Some(SetupTimes {
            total_s: next()?,
            gen_s: next()?,
            index_rs_s: next()?,
            index_harmonia_s: next()?,
            serve_build_s: next()?,
        })
    }
}

/// The outcome of one timed call: a join plan or a served rate.
#[derive(Debug, Clone, Default)]
pub struct Call {
    /// Host seconds inside `QuerySession::run`, `Server::run` or
    /// `ClusterServer::run`.
    pub host_s: f64,
    /// Probe keys joined or served.
    pub keys: u64,
    /// Operations attempted: one query, or every request of the trace.
    pub attempted: u64,
    /// Operations that failed: errored, wrong, shed or past deadline.
    pub failed: u64,
    /// Operations that errored or answered wrongly.
    pub wrong: u64,
    /// Digest of every simulated statistic the call read.
    pub digest: u64,
    /// What went wrong, if anything.
    pub errors: Vec<String>,
}

impl Call {
    fn error(attempted: u64, msg: String) -> Call {
        Call {
            attempted,
            failed: attempted,
            wrong: attempted,
            errors: vec![msg],
            ..Call::default()
        }
    }
}

/// L1 plus TLB lookups: the simulator's per-access work.
pub(crate) fn accesses(c: &Counters) -> u64 {
    c.l1_hits + c.l1_misses + c.tlb_hits + c.tlb_misses
}

// One value per run; boxing the larger variant would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Bench {
    Join(JoinBench),
    Serve(ServeBench),
}

impl Bench {
    fn setup(opts: &Options, tr: &mut Tracer) -> Result<(Bench, SetupTimes), String> {
        let start = Instant::now();
        let (bench, mut times) =
            tr.span("bench.setup", |tr| match spec(opts.workload, opts.size) {
                Spec::Join(s) => {
                    JoinBench::setup(s, opts.seed, tr).map(|(b, t)| (Bench::Join(b), t))
                }
                Spec::Serve(s) => {
                    ServeBench::setup(s, opts.seed, tr).map(|(b, t)| (Bench::Serve(b), t))
                }
            })?;
        times.total_s = start.elapsed().as_secs_f64();
        Ok((bench, times))
    }

    fn slots(&self) -> usize {
        match self {
            Bench::Join(b) => b.slots(),
            Bench::Serve(b) => b.slots(),
        }
    }

    fn call(&mut self, pass: usize, slot: usize, tr: &mut Tracer) -> Call {
        match self {
            Bench::Join(b) => b.call(pass, slot, tr),
            Bench::Serve(b) => b.call(pass, slot, tr),
        }
    }
}

/// Set up `opts.workload` once and report how long it took. The benchmark
/// runs this in fresh processes, so the library's per-thread memo caches
/// start empty every time.
pub fn setup_sample(opts: &Options) -> Result<SetupTimes, String> {
    Bench::setup(opts, &mut Tracer::new(false)).map(|(_, t)| t)
}

/// One metric of the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// No wrong answer, no error, and every pass read the same simulated
    /// statistics as the first.
    pub correct: bool,
    /// Operations attempted over the whole run.
    pub attempted: u64,
    /// Operations failed over the whole run.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// How the numbers were obtained: seed, machine, sample counts.
    pub method: BTreeMap<&'static str, String>,
    /// Problems found by the oracle or the digest check.
    pub errors: Vec<String>,
    /// The recorded spans (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, each metric with its value and
    /// unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {:?}, \"unit\": {}}}",
                    json_string(&m.name),
                    m.value,
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The method line: `{"method": {...}}` with every entry as a string.
    pub fn method_json(&self) -> String {
        let entries: Vec<String> = self
            .method
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!("{{\"method\": {{{}}}}}", entries.join(", "))
    }
}

fn json_string(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    /// Record a metric. A value that is not finite would not survive JSON;
    /// it is recorded as 0.
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }
}

/// The host time of one call, and the reference kernel's time around it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    host_s: f64,
    /// Geometric mean of the reference timings just before and just after
    /// the call.
    ref_s: f64,
}

impl Sample {
    fn host_s(&self) -> f64 {
        self.host_s
    }

    /// The call's host time in units of the reference kernel's time.
    fn refs(&self) -> f64 {
        self.host_s / self.ref_s
    }
}

/// Samples of one call slot. The first pass is a warm-up: its samples are
/// kept apart and used only when no later pass reached the slot.
#[derive(Debug, Clone, Default)]
struct Samples {
    keys: u64,
    cold: Vec<Sample>,
    plain: Vec<Sample>,
    traced: Vec<Sample>,
}

impl Samples {
    /// The untraced warm calls (the warm-up call when there are none).
    fn untraced(&self) -> &[Sample] {
        if self.plain.is_empty() {
            &self.cold
        } else {
            &self.plain
        }
    }
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn map(xs: &[Sample], f: fn(&Sample) -> f64) -> Vec<f64> {
    xs.iter().map(f).collect()
}

/// Keys over the summed cost of every slot, each slot's cost summarised
/// from its untraced samples by `cost`.
fn keys_per(samples: &[Samples], cost: impl Fn(&[Sample]) -> f64) -> f64 {
    let keys: u64 = samples.iter().map(|s| s.keys).sum();
    let total: f64 = samples.iter().map(|s| cost(s.untraced())).sum();
    if total > 0.0 {
        keys as f64 / total
    } else {
        0.0
    }
}

/// Set up, then call every slot pass after pass until `opts.seconds` have
/// passed since the first timed call, checking every answer and every
/// pass's digest, and timing the reference kernel between calls. The first
/// pass is a warm-up that also supplies the modelled numbers; at least one
/// more pass always runs (two in a traced run, which alternates traced and
/// untraced passes so that the tracing overhead is measured within one
/// process).
pub fn run(opts: &Options, child_setups: &[SetupTimes]) -> Outcome {
    let mut tr = Tracer::new(opts.trace);
    let mut method: BTreeMap<&'static str, String> = BTreeMap::new();
    let mut errors = Vec::new();
    let (mut bench, setup) = match Bench::setup(opts, &mut tr) {
        Ok(x) => x,
        Err(e) => {
            return Outcome {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                method,
                errors: vec![e],
                tracer: tr,
            }
        }
    };
    let mut setups = child_setups.to_vec();
    setups.push(setup);

    let slots = bench.slots();
    let mut samples = vec![Samples::default(); slots];
    let mut first_digest: Vec<Option<u64>> = vec![None; slots];
    let (mut attempted, mut failed, mut wrong, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_passes = if opts.trace { 3 } else { 2 };
    let reference = Reference::default();
    let mut ref_before = reference.time_s();
    let start = Instant::now();
    let mut passes = 0;
    loop {
        let pass = passes;
        let traced = opts.trace && pass % 2 == 1;
        tr.set_enabled(traced);
        tr.set_group(pass);
        let done = tr.span("bench.pass", |tr| {
            for slot in 0..slots {
                if pass >= min_passes && start.elapsed() >= budget {
                    return true;
                }
                let call = bench.call(pass, slot, tr);
                let ref_after = tr.span("bench.reference", |_| reference.time_s());
                let ref_s = (ref_before * ref_after).sqrt();
                ref_before = ref_after;
                attempted += call.attempted;
                failed += call.failed;
                wrong += call.wrong;
                errors.extend(call.errors);
                if call.wrong == 0 {
                    let s = &mut samples[slot];
                    s.keys = call.keys;
                    match (pass, traced) {
                        (0, _) => &mut s.cold,
                        (_, true) => &mut s.traced,
                        (_, false) => &mut s.plain,
                    }
                    .push(Sample {
                        host_s: call.host_s,
                        ref_s,
                    });
                }
                match first_digest[slot] {
                    None => first_digest[slot] = Some(call.digest),
                    Some(d) if d != call.digest && call.wrong == 0 => {
                        mismatches += 1;
                        errors.push(format!(
                            "pass {pass} slot {slot}: simulated statistics differ from the first pass"
                        ));
                    }
                    Some(_) => {}
                }
            }
            false
        });
        passes += 1;
        if done {
            break;
        }
    }
    tr.set_enabled(false);

    let mut digest = Digest::default();
    for d in first_digest.iter().flatten() {
        digest.u64(*d);
    }
    let host_keys_per_ref = keys_per(&samples, |xs| median(&map(xs, Sample::refs)));
    let host_keys_per_s = keys_per(&samples, |xs| median(&map(xs, Sample::host_s)));
    let ref_times: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.untraced().iter().map(|x| x.ref_s))
        .collect();
    let ref_s = median(&ref_times);
    method.insert(
        "setup_s_unscaled",
        setup_median(&setups, |s| s.total_s).to_string(),
    );
    // Set-up times in seconds on a host whose reference kernel takes
    // SCALED_REF_S. Host speed moves set-up times as much as call times
    // (serve-1gpu set-up took 0.13 s in one set of ten runs and 0.20 s in
    // the next on a shared 2-vCPU Xeon VM); the set-ups ran just before the
    // calls, so the calls' median reference time stands for theirs.
    let setups: Vec<SetupTimes> = setups
        .iter()
        .map(|s| s.scaled(SCALED_REF_S / ref_s))
        .collect();

    method.insert("workload", opts.workload.name().to_string());
    method.insert("seed", opts.seed.to_string());
    method.insert("passes", passes.to_string());
    method.insert(
        "untraced_warm_samples_per_slot",
        format!(
            "{:?}",
            samples.iter().map(|s| s.plain.len()).collect::<Vec<_>>()
        ),
    );
    method.insert("host_keys_per_s", format!("{host_keys_per_s:.0}"));
    method.insert(
        "host_keys_per_s_best",
        format!(
            "{:.0}",
            keys_per(&samples, |xs| best(&map(xs, Sample::host_s)))
        ),
    );
    method.insert("reference_us_median", format!("{:.1}", ref_s * 1e6));
    method.insert(
        "host_ms_per_slot_best_median",
        samples
            .iter()
            .map(|s| {
                let host = map(s.untraced(), Sample::host_s);
                format!("{:.3}/{:.3}", best(&host) * 1e3, median(&host) * 1e3)
            })
            .collect::<Vec<_>>()
            .join(" "),
    );
    method.insert("setup_samples", setups.len().to_string());
    method.insert("model_digest", digest.value().to_string());
    if let Bench::Serve(b) = &bench {
        let ladder: Vec<String> = b
            .first
            .iter()
            .flatten()
            .map(|s| format!("{:.0}:{:.3}", s.rate, s.p99_s * 1e3))
            .collect();
        method.insert("ladder_rps_p99_ms", ladder.join(" "));
    }
    fingerprint(&mut method);

    let mut m = Metrics::default();
    if opts.trace {
        let overhead = trace_overhead(&samples);
        per_layer(
            &mut m,
            &bench,
            &setups,
            &tr,
            &samples,
            overhead,
            (host_keys_per_s, ref_s),
            digest.value(),
            &mut method,
        );
    } else {
        end_to_end(&mut m, &bench, &setups, host_keys_per_ref);
    }
    Outcome {
        correct: wrong == 0 && mismatches == 0,
        attempted,
        failed,
        metrics: m.0,
        method,
        errors,
        tracer: tr,
    }
}

/// Traced over untraced host time (median call of each, in reference
/// units), over the slots that have both.
fn trace_overhead(samples: &[Samples]) -> f64 {
    let both = samples
        .iter()
        .filter(|s| !s.plain.is_empty() && !s.traced.is_empty());
    let (t, p) = both.fold((0.0, 0.0), |(t, p), s| {
        (
            t + median(&map(&s.traced, Sample::refs)),
            p + median(&map(&s.plain, Sample::refs)),
        )
    });
    if p > 0.0 {
        t / p
    } else {
        0.0
    }
}

/// The reference kernel's time on the host that set-up times are scaled to.
const SCALED_REF_S: f64 = 1e-3;

fn setup_median(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

/// VmHWM of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn end_to_end(m: &mut Metrics, bench: &Bench, setups: &[SetupTimes], host_keys_per_ref: f64) {
    m.put("setup_s", "s", setup_median(setups, |s| s.total_s));
    m.put("host_keys_per_ref", "keys/ref", host_keys_per_ref);
    m.put("peak_rss_mib", "MiB", peak_rss_mib());
    let (qps, p50_s, tail_s) = match bench {
        // Joins: the paper's plan (windowed INLJ over RadixSpline), and the
        // median and slowest virtual query time over the plans.
        Bench::Join(b) => {
            let times = b.virtual_times_s();
            let qps = b
                .report(PLANS[0].key)
                .map_or(0.0, |r| r.queries_per_second());
            (
                qps,
                median(&times),
                times.iter().copied().fold(0.0, f64::max),
            )
        }
        // Serving: the rate at which p99 reaches the SLO budget, and the
        // median and p99 latency at the nominal rate.
        Bench::Serve(b) => {
            let n = b.nominal().cloned().unwrap_or_default();
            (b.capacity_at_slo().1, n.p50_s, n.p99_s)
        }
    };
    m.put("model_qps", "Q/s", qps);
    m.put("vlat_p50_ms", "ms", p50_s * 1e3);
    m.put("vlat_tail_ms", "ms", tail_s * 1e3);
}

/// Every per-layer metric. Each workload reports the same names; a layer a
/// workload does not exercise reads 0.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    bench: &Bench,
    setups: &[SetupTimes],
    tr: &Tracer,
    samples: &[Samples],
    overhead: f64,
    (host_keys_per_s, ref_s): (f64, f64),
    digest: u64,
    method: &mut BTreeMap<&'static str, String>,
) {
    let spans = tr.self_times();
    let span_median = |name: &str| spans.get(name).map_or(0.0, |v| median(v));

    m.put("workload.gen_s", "s", setup_median(setups, |s| s.gen_s));
    m.put(
        "index.build_s.radix_spline",
        "s",
        setup_median(setups, |s| s.index_rs_s),
    );
    m.put(
        "index.build_s.harmonia",
        "s",
        setup_median(setups, |s| s.index_harmonia_s),
    );
    m.put("index.rebuild_s", "s", span_median("index.rebuild"));
    m.put(
        "serve.build_s",
        "s",
        setup_median(setups, |s| s.serve_build_s),
    );
    m.put("serve.rebuild_s", "s", span_median("serve.rebuild"));

    let join = match bench {
        Bench::Join(b) => Some(b),
        Bench::Serve(_) => None,
    };
    let mut tails = Vec::new();
    for plan in PLANS {
        let k = plan.key;
        let rep = join.and_then(|b| b.report(k));
        let host = spans.get(plan.span).cloned().unwrap_or_default();
        let (tail_p, tail_s) = tail(&host);
        if !host.is_empty() {
            tails.push(format!("{k}: p{tail_p} of {}", host.len()));
        }
        let c = rep.map(|r| r.counters).unwrap_or_default();
        let t = rep.map(|r| r.time).unwrap_or_default();
        let acc = accesses(&c);
        m.put(format!("query.host_ms.{k}.p50"), "ms", median(&host) * 1e3);
        m.put(format!("query.host_ms.{k}.tail"), "ms", tail_s * 1e3);
        m.put(
            format!("model_qps.{k}"),
            "Q/s",
            rep.map_or(0.0, |r| r.queries_per_second()),
        );
        m.put(
            format!("join.windows.{k}"),
            "count",
            rep.map_or(0.0, |r| r.windows as f64),
        );
        m.put(
            format!("model.share_partition.{k}"),
            "ratio",
            rep.map_or(0.0, |r| r.phases.share(phase::PARTITION)),
        );
        m.put(
            format!("model.share_lookup.{k}"),
            "ratio",
            rep.map_or(0.0, |r| r.phases.share(phase::LOOKUP)),
        );
        m.put(format!("sim.accesses.{k}"), "count", acc as f64);
        m.put(
            format!("sim.host_ns_per_access.{k}"),
            "ns",
            if acc > 0 {
                median(&host) * 1e9 / acc as f64
            } else {
                0.0
            },
        );
        m.put(
            format!("tlb.translations_per_lookup.{k}"),
            "ratio",
            rep.map_or(0.0, |r| r.translations_per_lookup()),
        );
        m.put(
            format!("ic.bytes_random.{k}"),
            "bytes",
            c.ic_bytes_random as f64,
        );
        m.put(
            format!("ic.bytes_streamed.{k}"),
            "bytes",
            c.ic_bytes_streamed as f64,
        );
        m.put(format!("l1.hit_ratio.{k}"), "ratio", c.l1_hit_rate());
        m.put(format!("l2.hit_ratio.{k}"), "ratio", c.l2_hit_rate());
        m.put(
            format!("hbm.bytes.{k}"),
            "bytes",
            (c.gpu_bytes_read + c.gpu_bytes_written) as f64,
        );
        for (term, s) in [
            ("streamed", t.streamed_s),
            ("random", t.random_s),
            ("translation", t.translation_s),
            ("gpu_mem", t.gpu_mem_s),
            ("compute", t.compute_s),
            ("launch", t.launch_s),
            ("fault", t.fault_s),
        ] {
            m.put(format!("model.{term}_s.{k}"), "s", s);
        }
    }
    method.insert("query_host_tail_percentile", tails.join(", "));

    let (served, nominal, ladder_rps) = match bench {
        Bench::Serve(b) => (
            b.first.iter().flatten().cloned().collect(),
            b.nominal().cloned(),
            b.capacity_at_slo().0,
        ),
        Bench::Join(_) => (Vec::new(), None, 0.0),
    };
    let n = nominal.unwrap_or_default();
    let dispatches: u64 = served.iter().map(|s| s.windows).sum();
    let serve_host_s: f64 = match bench {
        Bench::Serve(_) => samples
            .iter()
            .map(|s| {
                median(&map(
                    if s.traced.is_empty() {
                        &s.plain
                    } else {
                        &s.traced
                    },
                    Sample::host_s,
                ))
            })
            .sum(),
        Bench::Join(_) => 0.0,
    };
    m.put("serve.host_s", "s", serve_host_s);
    m.put(
        "serve.host_us_per_dispatch",
        "us",
        if dispatches > 0 {
            serve_host_s * 1e6 / dispatches as f64
        } else {
            0.0
        },
    );
    m.put("serve.max_rps_at_slo", "Q/s", ladder_rps);
    m.put("serve.windows", "count", n.windows as f64);
    m.put("serve.window_fill", "ratio", n.window_fill);
    m.put(
        "serve.max_queue_depth_keys",
        "count",
        n.max_queue_depth_keys as f64,
    );
    for (stage, s) in ["queue", "batch", "service", "merge"]
        .iter()
        .zip(n.stage_p99_s)
    {
        m.put(format!("serve.stage_p99_ms.{stage}"), "ms", s * 1e3);
    }
    m.put(
        "serve.shed",
        "count",
        served.iter().map(|s| s.shed as f64).sum(),
    );
    m.put(
        "serve.retries",
        "count",
        served.iter().map(|s| s.retries as f64).sum(),
    );
    m.put(
        "serve.sim_accesses",
        "count",
        served.iter().map(|s| s.sim_accesses as f64).sum(),
    );
    m.put(
        "serve.gen_lag_ms",
        "ms",
        served.iter().map(|s| s.lag_s).fold(0.0, f64::max) * 1e3,
    );
    m.put(
        "cluster.cross_shard_fraction",
        "ratio",
        n.cross_shard_fraction,
    );
    m.put(
        "cluster.cross_shard_bytes",
        "bytes",
        n.cross_shard_bytes as f64,
    );
    m.put("cluster.shard_imbalance", "ratio", n.shard_imbalance);
    m.put(
        "export.openmetrics_ms",
        "ms",
        span_median("export.openmetrics") * 1e3,
    );
    m.put("export.openmetrics_bytes", "bytes", n.export_bytes as f64);

    m.put("bench.trace_overhead", "ratio", overhead);
    m.put("bench.host_keys_per_s", "keys/s", host_keys_per_s);
    m.put("bench.reference_us", "us", ref_s * 1e6);
    m.put("bench.oracle_ms", "ms", span_median("bench.oracle") * 1e3);
    m.put("model.digest", "hash", digest as f64);
}

/// Machine and build fingerprint.
fn fingerprint(method: &mut BTreeMap<&'static str, String>) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    method.insert("nproc", nproc.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    method.insert("cpu_model", cpu);
    method.insert("rustc", env!("PERFBENCH_RUSTC").to_string());
    method.insert("git_commit", git_commit());
}

/// The checked-out commit, when the benchmark runs inside a git work tree
/// (an exported tree has none).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
