//! Serve workloads: an open-loop Poisson trace replayed at every rate of a
//! fixed geometric ladder, each rate on a freshly built server, and every
//! response checked against a host binary search over R.

use crate::stats::{quantile, Digest};
use crate::trace::{timed, Tracer};
use crate::{accesses, Call, SetupTimes};
use windex::prelude::*;
use windex::serve::{render_cluster_openmetrics, render_openmetrics, SloConfig, TimedRequest};

/// Sizes, topology and rate ladder of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Tuples of R (dense keys).
    pub r_tuples: usize,
    /// 1: `Server`; more: `ClusterServer` radix-sharded over NVLink 4 peers.
    pub gpus: usize,
    /// Requests per trace.
    pub requests: usize,
    /// Requests in the nominal rate's trace, which extends the others: more
    /// of them, so its p50 and p99 vary less from seed to seed.
    pub nominal_requests: usize,
    /// Tenants issuing them.
    pub tenants: u32,
    /// Fewest probe keys per request.
    pub min_keys: usize,
    /// Most probe keys per request.
    pub max_keys: usize,
    /// Lowest offered rate of the ladder, requests per virtual second.
    pub base_rps: f64,
    /// Rates on the ladder; each is 2^(1/4) ≈ 1.19× the one below.
    pub rates: usize,
    /// Position of the nominal rate on the ladder.
    pub nominal: usize,
}

impl ServeSpec {
    /// Offered rate of ladder step `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.base_rps * 2f64.powf(i as f64 / 4.0)
    }
}

/// The p99 latency budget: the servers' own default SLO.
pub fn slo_budget_s() -> f64 {
    SloConfig::default().deadline_budget_s
}

fn gpu_spec() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

#[derive(Debug)]
// One value per call; boxing the larger variant would buy nothing.
#[allow(clippy::large_enum_variant)]
enum Host {
    One { gpu: Gpu, server: Server },
    Cluster(ClusterServer),
}

#[allow(clippy::large_enum_variant)]
enum Report {
    One(ServerReport),
    Cluster(ClusterReport),
}

impl Host {
    fn build(spec: &ServeSpec, r: &Relation) -> Result<Host, WindexError> {
        if spec.gpus == 1 {
            let mut gpu = Gpu::new(gpu_spec());
            let server = Server::new(&mut gpu, ServeConfig::default(), r.clone())?;
            Ok(Host::One { gpu, server })
        } else {
            let cfg = ClusterConfig {
                serve: ServeConfig::default(),
                cluster: ClusterSpec::sharded(
                    spec.gpus,
                    gpu_spec(),
                    InterconnectSpec::nvlink4_peer(),
                ),
            };
            Ok(Host::Cluster(ClusterServer::new(cfg, r.clone())?))
        }
    }

    /// Simulated counters summed over every device of the host.
    fn counters(&mut self) -> Counters {
        match self {
            Host::One { gpu, .. } => gpu.snapshot(),
            Host::Cluster(c) => (0..c.gpus())
                .map(|i| c.shard_gpu_mut(i).snapshot())
                .fold(Counters::default(), |acc, x| acc + x),
        }
    }

    fn run(
        &mut self,
        trace: &[TimedRequest],
    ) -> Result<(Vec<LookupResponse>, Report), WindexError> {
        match self {
            Host::One { gpu, server } => {
                let out = server.run(gpu, trace)?;
                Ok((out.responses, Report::One(out.report)))
            }
            Host::Cluster(c) => {
                let out = c.run(trace)?;
                Ok((out.responses, Report::Cluster(out.report)))
            }
        }
    }
}

/// Oracle verdict over one served trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdict {
    /// Requests answered wrongly, twice, late on the generator's schedule,
    /// or not at all.
    pub wrong: u64,
    /// Requests shed or past their deadline (answers still checked).
    pub failed: u64,
    /// The first few problems, for the error report.
    pub errors: Vec<String>,
}

impl Verdict {
    fn wrong(&mut self, msg: String) {
        self.wrong += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// Check every response against a host search over `r`: each request
/// answered once, by its tenant, at its scheduled arrival, with exactly one
/// `(key, position)` match per probe key at the position a binary search
/// over `r` finds. `r` is checked to be strictly increasing, so the search
/// for `key` returns `position` exactly when `r[position] == key`; the
/// oracle reads that one slot instead of repeating the search.
pub fn check_responses(r: &[u64], trace: &[TimedRequest], responses: &[LookupResponse]) -> Verdict {
    let mut v = Verdict::default();
    if !r.windows(2).all(|w| w[0] < w[1]) {
        v.wrong(format!(
            "R is not strictly increasing; {} requests unchecked",
            trace.len()
        ));
        v.wrong += trace.len().saturating_sub(1) as u64;
        v.failed = v.wrong;
        return v;
    }
    let mut seen = vec![false; trace.len()];
    for resp in responses {
        let i = resp.request as usize;
        if i >= trace.len() || seen[i] {
            v.wrong(format!("request {i}: unknown or answered twice"));
            continue;
        }
        seen[i] = true;
        let sent = &trace[i];
        if resp.tenant != sent.request.tenant {
            v.wrong(format!("request {i}: answered to tenant {}", resp.tenant));
            continue;
        }
        // Open loop: the generator never runs late in virtual time.
        if resp.submitted_s != sent.at_s {
            v.wrong(format!(
                "request {i}: submitted at {} not {}",
                resp.submitted_s, sent.at_s
            ));
            continue;
        }
        if resp.outcome == RequestOutcome::Shed {
            v.failed += 1;
            continue;
        }
        let mut want = sent.request.keys.clone();
        let mut got: Vec<u64> = resp.matches.iter().map(|m| m.0).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            v.wrong(format!("request {i}: matched keys differ from probe keys"));
            continue;
        }
        if let Some(&(k, pos)) = resp
            .matches
            .iter()
            .find(|&&(k, pos)| r.get(pos as usize) != Some(&k))
        {
            v.wrong(format!("request {i}: key {k} at position {pos}"));
            continue;
        }
        if resp.outcome == RequestOutcome::DeadlineMissed {
            v.failed += 1;
        }
    }
    let missing = seen.iter().filter(|&&s| !s).count();
    if missing > 0 {
        v.wrong += missing as u64 - 1;
        v.wrong(format!("{missing} requests never answered"));
    }
    v.failed += v.wrong;
    v
}

/// What the benchmark reads from one served rate.
#[derive(Debug, Clone, Default)]
pub struct RateStats {
    /// Offered rate, requests per virtual second.
    pub rate: f64,
    /// Median latency from scheduled arrival, virtual seconds.
    pub p50_s: f64,
    /// p99 latency from scheduled arrival, virtual seconds.
    pub p99_s: f64,
    /// Virtual time from the last arrival to the last completion: the
    /// backlog left when arrivals stop.
    pub drain_s: f64,
    /// Requests shed, past deadline or wrong.
    pub failed: u64,
    /// Largest gap between a request's submission and its schedule.
    pub lag_s: f64,
    /// Windows dispatched (all shards).
    pub windows: u64,
    /// Mean keys per dispatched window over the window capacity.
    pub window_fill: f64,
    /// Largest queued-key backlog (largest shard).
    pub max_queue_depth_keys: u64,
    /// p99 of the queue, batch, service and merge stages, virtual seconds.
    pub stage_p99_s: [f64; 4],
    /// Requests shed.
    pub shed: u64,
    /// Retries counted by the simulated devices.
    pub retries: u64,
    /// L1 plus TLB lookups simulated (all devices).
    pub sim_accesses: u64,
    /// Share of requests that touched more than one shard.
    pub cross_shard_fraction: f64,
    /// Peer-link bytes for cross-shard work.
    pub cross_shard_bytes: u64,
    /// Largest shard's probed keys over the mean shard's.
    pub shard_imbalance: f64,
    /// Size of the OpenMetrics export.
    pub export_bytes: u64,
}

/// A staged serve workload.
#[derive(Debug)]
pub struct ServeBench {
    spec: ServeSpec,
    r: Relation,
    traces: Vec<Vec<TimedRequest>>,
    keys: Vec<u64>,
    setup_host: Option<Host>,
    /// What every rate's first run read, in ladder order.
    pub first: Vec<Option<RateStats>>,
}

impl ServeBench {
    /// Generate R and one trace per ladder rate from `seed`, and build the
    /// first server.
    pub fn setup(
        spec: ServeSpec,
        seed: u64,
        tr: &mut Tracer,
    ) -> Result<(Self, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let ((r, traces), gen_s) = timed(tr, "workload.gen", || {
            let r = Relation::unique_sorted(spec.r_tuples, KeyDistribution::Dense, seed);
            // One seed for every rate: the same requests, arriving on a
            // schedule compressed by the rate.
            let traces: Vec<Vec<TimedRequest>> = (0..spec.rates)
                .map(|i| {
                    let cfg = TraceConfig {
                        seed: seed ^ 0x7ace,
                        tenants: spec.tenants,
                        requests: if i == spec.nominal {
                            spec.nominal_requests
                        } else {
                            spec.requests
                        },
                        min_keys: spec.min_keys,
                        max_keys: spec.max_keys,
                        offered_load_rps: spec.rate(i),
                        deadline_s: None,
                    };
                    generate_trace(&cfg, &r)
                })
                .collect();
            (r, traces)
        });
        times.gen_s = gen_s;
        let (host, build_s) = timed(tr, "serve.build", || Host::build(&spec, &r));
        times.serve_build_s = build_s;
        let host = host.map_err(|e| format!("server build failed: {e}"))?;
        let keys = traces
            .iter()
            .map(|t| t.iter().map(|q| q.request.keys.len() as u64).sum())
            .collect();
        let bench = ServeBench {
            spec,
            r,
            traces,
            keys,
            setup_host: Some(host),
            first: vec![None; spec.rates],
        };
        Ok((bench, times))
    }

    /// Rates per ladder pass.
    pub fn slots(&self) -> usize {
        self.spec.rates
    }

    /// Serve rate `slot` on a fresh server (the one built in set-up for the
    /// very first call).
    pub fn call(&mut self, pass: usize, slot: usize, tr: &mut Tracer) -> Call {
        let keys = self.keys[slot];
        let host = match self.setup_host.take() {
            Some(host) => Ok(host),
            None => tr.span("serve.rebuild", |_| Host::build(&self.spec, &self.r)),
        };
        let mut host = match host {
            Ok(h) => h,
            Err(e) => return Call::error(self.traces[slot].len() as u64, format!("rebuild: {e}")),
        };
        let before = host.counters();
        let (out, host_s) = timed(tr, "serve.run", || host.run(&self.traces[slot]));
        let delta = host.counters() - before;
        let (responses, report) = match out {
            Ok(x) => x,
            Err(e) => return Call::error(self.traces[slot].len() as u64, format!("serve: {e}")),
        };
        let trace = &self.traces[slot];
        let verdict = tr.span("bench.oracle", |_| {
            check_responses(self.r.keys(), trace, &responses)
        });
        let export_bytes = tr.span("export.openmetrics", |_| match &report {
            Report::One(rep) => render_openmetrics(rep).len(),
            Report::Cluster(rep) => render_cluster_openmetrics(rep).len(),
        }) as u64;

        let latencies: Vec<f64> = responses
            .iter()
            .filter(|x| x.outcome != RequestOutcome::Shed)
            .filter_map(|x| {
                trace
                    .get(x.request as usize)
                    .map(|t| x.completed_s - t.at_s)
            })
            .collect();
        let last_done = responses.iter().map(|x| x.completed_s).fold(0.0, f64::max);
        let last_sent = trace.last().map_or(0.0, |t| t.at_s);
        let mut stats = RateStats {
            rate: self.spec.rate(slot),
            p50_s: quantile(&latencies, 0.5),
            p99_s: quantile(&latencies, 0.99),
            drain_s: (last_done - last_sent).max(0.0),
            failed: verdict.failed,
            lag_s: responses
                .iter()
                .filter_map(|x| {
                    trace
                        .get(x.request as usize)
                        .map(|t| x.submitted_s - t.at_s)
                })
                .fold(0.0, f64::max),
            retries: delta.retries,
            sim_accesses: accesses(&delta),
            export_bytes,
            shard_imbalance: 1.0,
            ..RateStats::default()
        };
        let window = ServeConfig::default().window_tuples as f64;
        let mut d = Digest::default();
        match &report {
            Report::One(rep) => {
                stats.windows = rep.window.windows as u64;
                stats.window_fill = rep.mean_batch_keys / rep.configured_window_tuples as f64;
                stats.max_queue_depth_keys = rep.max_queue_depth_keys as u64;
                stats.shed = rep.shed as u64;
                stage_p99(&mut stats, &rep.stages);
                d.debug(&rep.latency);
                d.debug(&rep.stages);
                d.debug(&rep.window);
            }
            Report::Cluster(rep) => {
                let shards = &rep.per_shard;
                let dispatches: usize = shards.iter().map(|s| s.dispatches).sum();
                let probed: Vec<f64> = shards.iter().map(|s| s.keys_probed as f64).collect();
                let mean = probed.iter().sum::<f64>() / probed.len().max(1) as f64;
                stats.windows = dispatches as u64;
                stats.window_fill = probed.iter().sum::<f64>() / dispatches.max(1) as f64 / window;
                stats.max_queue_depth_keys = shards
                    .iter()
                    .map(|s| s.max_queue_depth_keys as u64)
                    .max()
                    .unwrap_or(0);
                stats.shed = rep.shed as u64;
                stats.cross_shard_fraction = rep.cross_shard_fraction;
                stats.cross_shard_bytes = rep.cross_shard_bytes;
                stats.shard_imbalance = if mean > 0.0 {
                    probed.iter().copied().fold(0.0, f64::max) / mean
                } else {
                    0.0
                };
                stage_p99(&mut stats, &rep.stages);
                d.debug(&rep.latency);
                d.debug(&rep.stages);
                d.debug(shards);
            }
        }
        d.debug(&delta);
        for x in &responses {
            d.u64(x.request);
            d.debug(&x.outcome);
            d.f64(x.completed_s);
            d.u64(x.matches.len() as u64);
        }
        let call = Call {
            host_s,
            keys,
            attempted: trace.len() as u64,
            failed: verdict.failed,
            wrong: verdict.wrong,
            digest: d.value(),
            errors: verdict.errors,
        };
        if pass == 0 {
            self.first[slot] = Some(stats);
        }
        call
    }

    /// The nominal rate's first run.
    pub fn nominal(&self) -> Option<&RateStats> {
        self.first[self.spec.nominal].as_ref()
    }

    /// Capacity at the latency limit, as `(ladder rate, crossing)`. The
    /// ladder rate is the highest rate that, with every rate below it,
    /// meets the p99 budget with nothing shed or wrong and a backlog that
    /// drains within the budget once arrivals stop (no growing queue). The
    /// crossing is where p99 reaches the budget, interpolated in log-rate
    /// between that rate and the next one when the next one misses on p99;
    /// otherwise it is the ladder rate. Unlike the ladder rate, it does not
    /// jump by a whole ladder step when a seed moves p99 across the budget.
    /// Both are 0.0 when even the lowest rate misses.
    pub fn capacity_at_slo(&self) -> (f64, f64) {
        let budget = slo_budget_s();
        let stats: Vec<&RateStats> = self.first.iter().flatten().collect();
        let meets = stats
            .iter()
            .take_while(|s| s.p99_s <= budget && s.failed == 0 && s.drain_s <= budget)
            .count();
        let Some(last) = meets.checked_sub(1).map(|i| stats[i]) else {
            return (0.0, 0.0);
        };
        let crossing = match stats.get(meets) {
            Some(next) if next.p99_s > budget => {
                let f = (budget - last.p99_s) / (next.p99_s - last.p99_s);
                last.rate * (next.rate / last.rate).powf(f)
            }
            _ => last.rate,
        };
        (last.rate, crossing)
    }
}

fn stage_p99(stats: &mut RateStats, stages: &StageLatencyStats) {
    stats.stage_p99_s = [
        stages.queue.p99_s,
        stages.batch.p99_s,
        stages.service.p99_s,
        stages.merge.p99_s,
    ];
}
