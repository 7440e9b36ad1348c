//! The deterministic serving event loop.
//!
//! [`Server`] owns one indexed relation, one shared
//! [`StreamingWindowJoin`](windex_core::streams::StreamingWindowJoin), and
//! one result sink, and serves a seeded trace of multi-tenant lookup
//! requests entirely in *virtual time*: the only clock is the cost model's
//! estimate of each dispatched window, so the same trace and configuration
//! always produce byte-identical responses and reports — no threads, no
//! wall clock, no nondeterminism.
//!
//! # The loop
//!
//! 1. **Admit** every trace arrival due at the current virtual instant.
//!    Admission control sheds a request outright when accepting it would
//!    push the queued-key backlog past the backpressure bound.
//! 2. **Schedule**: deficit round-robin releases queued requests into the
//!    micro-batcher until the shared window is covered (or, under
//!    [`BatchPolicy::PerRequest`], exactly one request is staged).
//! 3. **Dispatch** when the window is full, the oldest staged key has
//!    waited `max_delay_s`, or the policy is per-request: the batch flows
//!    through the shared operator, virtual time advances by the cost
//!    model's estimate, and matches demultiplex back to their requests via
//!    the rid map.
//! 4. Otherwise **advance** the clock to the next arrival or flush
//!    deadline.
//!
//! Device-memory pressure mid-dispatch walks the serving analogue of the
//! query engine's degradation ladder — halve the shared window (down to
//! [`MIN_WINDOW_TUPLES`](windex_core::session::MIN_WINDOW_TUPLES)), spill
//! the sink to CPU memory, and finally shed the batch — so an overloaded
//! or faulty server sheds load instead of failing.

use crate::batch::MicroBatcher;
use crate::lane::{DeviceLane, Rung};
use crate::report::{per_second, BatchSpan, OutcomeTally, ServeEvent, ServerReport, TenantLoad};
use crate::request::{Admitted, LookupResponse, RequestOutcome, RequestTable, TenantId};
use crate::resilience::{BreakerReport, CircuitBreaker, ResilienceConfig, RetryBudget};
use crate::sched::DrrScheduler;
use crate::span::{sample_tail, RequestTrace, StageLatencyStats, TailConfig};
use crate::trace::TimedRequest;
use std::collections::BTreeMap;
use std::rc::Rc;
use windex_core::query::QueryError;
use windex_core::session::MAX_DEVICE_LOSS_RECOVERIES;
use windex_core::{WindexError, WindowStats};
use windex_index::IndexKind;
use windex_join::PartitionBits;
use windex_sim::{Gpu, MemLocation, PhaseRecorder};
use windex_workload::Relation;

/// When staged keys are dispatched through the shared operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Cross-query batching (the point of the serving layer): keys from
    /// concurrent tenants share windows. A window dispatches when it fills
    /// or when its oldest key has waited `max_delay_s`, whichever comes
    /// first.
    Shared {
        /// Longest a staged key may wait for the window to fill, in
        /// virtual seconds.
        max_delay_s: f64,
    },
    /// The baseline the experiments compare against: every request is
    /// dispatched alone, immediately, through its own (mostly empty)
    /// window.
    PerRequest,
}

impl BatchPolicy {
    /// Stable label for reports.
    pub fn label(&self) -> String {
        match self {
            BatchPolicy::Shared { max_delay_s } => {
                format!("shared(max_delay={:.0}us)", max_delay_s * 1e6)
            }
            BatchPolicy::PerRequest => "per-request".to_string(),
        }
    }

    /// Whether a batcher holding `pending` keys should stage another
    /// released request: until the window is covered, or (per-request)
    /// while it is empty.
    pub(crate) fn wants_more(&self, pending: usize, window: usize) -> bool {
        match self {
            BatchPolicy::Shared { .. } => pending < window,
            BatchPolicy::PerRequest => pending == 0,
        }
    }

    /// When the oldest staged key's max-delay timer fires, if one runs.
    pub(crate) fn flush_at(&self, batcher: &MicroBatcher) -> Option<f64> {
        match self {
            BatchPolicy::Shared { max_delay_s } => batcher.oldest_since().map(|s| s + max_delay_s),
            BatchPolicy::PerRequest => None,
        }
    }

    /// Whether the staged keys go out now: the window is full or its flush
    /// timer fired (shared), or anything is staged (per-request).
    pub(crate) fn dispatch_due(&self, batcher: &MicroBatcher, window: usize, now_s: f64) -> bool {
        match self {
            BatchPolicy::PerRequest => batcher.pending() > 0,
            BatchPolicy::Shared { .. } => {
                batcher.pending() >= window || self.flush_at(batcher).is_some_and(|f| f <= now_s)
            }
        }
    }

    /// Keys one dispatch takes: one request however many keys it has
    /// (per-request), else at most a window.
    pub(crate) fn take(&self, pending: usize, window: usize) -> usize {
        match self {
            BatchPolicy::PerRequest => pending,
            BatchPolicy::Shared { .. } => window.min(pending),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Index probed by the shared operator.
    pub index: IndexKind,
    /// Shared-window capacity in keys.
    pub window_tuples: usize,
    /// Dispatch policy.
    pub policy: BatchPolicy,
    /// DRR quantum: key-credits granted per tenant visit.
    pub quantum_keys: usize,
    /// Backpressure bound: a request is shed at admission when queued +
    /// staged keys would exceed this.
    pub max_pending_keys: usize,
    /// Where the (per-dispatch) result sink lives. GPU placement falls
    /// back to CPU under memory pressure, recorded as
    /// [`ServeEvent::SinkSpilledToCpu`].
    pub result_location: MemLocation,
    /// Partition bit range; `None` applies the §4.2 selection rule.
    pub partition_bits: Option<PartitionBits>,
    /// Resilience knobs: retry budget, per-tenant circuit breaker, SLO
    /// latency budget.
    pub resilience: ResilienceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            index: IndexKind::RadixSpline,
            window_tuples: 1024,
            policy: BatchPolicy::Shared {
                max_delay_s: 200e-6,
            },
            quantum_keys: 256,
            max_pending_keys: 1 << 16,
            result_location: MemLocation::Gpu,
            partition_bits: None,
            resilience: ResilienceConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Reject knobs no serving loop can run with: an empty window, a zero
    /// DRR quantum, a backpressure bound admitting nothing, or a
    /// non-positive shared-batch delay.
    pub fn validate(&self) -> Result<(), WindexError> {
        if self.window_tuples == 0 {
            return Err(WindexError::InvalidConfig(
                "serving window must hold at least one key",
            ));
        }
        if self.quantum_keys == 0 {
            return Err(WindexError::InvalidConfig("DRR quantum must be positive"));
        }
        if self.max_pending_keys == 0 {
            return Err(WindexError::InvalidConfig(
                "backpressure bound must admit at least one key",
            ));
        }
        if let BatchPolicy::Shared { max_delay_s } = self.policy {
            if !max_delay_s.is_finite() || max_delay_s <= 0.0 {
                return Err(WindexError::InvalidConfig(
                    "shared-batch max delay must be positive",
                ));
            }
        }
        Ok(())
    }
}

/// A served trace: every response plus the aggregate report.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// One response per trace request, ordered by request id (arrival
    /// order).
    pub responses: Vec<LookupResponse>,
    /// Aggregate virtual-time metrics.
    pub report: ServerReport,
}

/// A request admitted but not yet fully answered, with its probe keys.
#[derive(Debug)]
struct InFlight {
    req: Admitted,
    keys: Vec<u64>,
}

/// Mutable state of one `run()` invocation.
#[derive(Default)]
struct RunState {
    clock: f64,
    batcher: MicroBatcher,
    inflight: RequestTable<InFlight>,
    responses: Vec<LookupResponse>,
    traces: Vec<RequestTrace>,
    events: Vec<ServeEvent>,
    /// One timeline entry per dispatch.
    batches: Vec<BatchSpan>,
    max_queue_depth: usize,
    keys_probed: usize,
    windows_closed: usize,
    matches_total: usize,
    device_losses: usize,
}

/// The deterministic multi-tenant query server.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    r: Relation,
    /// The device's index, shared operator, and sink.
    lane: DeviceLane,
    /// Degradation applied during construction (e.g. the sink never fit on
    /// the device), replayed at the head of every report.
    setup_events: Vec<ServeEvent>,
    /// Dispatch-level retry token pool (persists across traces, like the
    /// window degradation).
    retry_budget: RetryBudget,
    /// Per-tenant circuit breakers, keyed by tenant id.
    breakers: BTreeMap<TenantId, CircuitBreaker>,
}

impl Server {
    /// Build a server over the (sorted, duplicate-free) relation `r`:
    /// stages the column, builds the index, and allocates the shared
    /// operator and sink. A sink that cannot fit in device memory falls
    /// back to CPU placement instead of failing.
    pub fn new(gpu: &mut Gpu, cfg: ServeConfig, r: Relation) -> Result<Self, WindexError> {
        cfg.validate()?;
        if !r.is_sorted_unique() {
            return Err(QueryError::IndexedRelationNotSorted.into());
        }
        let col = Rc::new(gpu.alloc_host_shared(r.keys_shared()));
        let bits = cfg.partition_bits.unwrap_or_else(|| {
            let domain = r.max_key().unwrap_or(0) - r.min_key().unwrap_or(0);
            PartitionBits::select(domain, r.len() as u64, gpu.spec(), 11)
        });
        let min_key = r.min_key().unwrap_or(0);
        let (lane, spilled) = DeviceLane::new(gpu, &cfg, col, bits, min_key)?;
        let setup_events = if spilled {
            vec![ServeEvent::SinkSpilledToCpu]
        } else {
            Vec::new()
        };
        Ok(Server {
            retry_budget: RetryBudget::new(&cfg.resilience.retry),
            cfg,
            r,
            lane,
            setup_events,
            breakers: BTreeMap::new(),
        })
    }

    /// The served relation.
    pub fn relation(&self) -> &Relation {
        &self.r
    }

    /// Current shared-window capacity (shrinks under memory pressure).
    pub fn effective_window_tuples(&self) -> usize {
        self.lane.window_tuples()
    }

    /// Serve a trace to completion and return every response plus the
    /// aggregate report. Arrivals must be sorted by time (as
    /// [`generate_trace`](crate::trace::generate_trace) produces them).
    pub fn run(
        &mut self,
        gpu: &mut Gpu,
        trace: &[TimedRequest],
    ) -> Result<ServeOutcome, WindexError> {
        debug_assert!(
            trace.windows(2).all(|w| w[0].at_s <= w[1].at_s),
            "trace must be sorted by arrival time"
        );
        let run_start = gpu.snapshot();
        // A fresh recorder per trace, anchored at the run-start snapshot so
        // the per-phase breakdown decomposes exactly the report's counter
        // delta. The operator owns it (it marks partition/lookup spans in
        // its flushes) and hands it back across degradation recreations.
        self.lane
            .set_phase_recorder(Some(PhaseRecorder::start(gpu)));
        let mut sched = DrrScheduler::new(self.cfg.quantum_keys)?;
        let mut st = RunState {
            responses: Vec::with_capacity(trace.len()),
            traces: Vec::with_capacity(trace.len()),
            events: self.setup_events.clone(),
            ..RunState::default()
        };
        let mut next_arrival = 0usize;
        self.retry_budget.begin_run();
        let breaker_cfg = self.cfg.resilience.breaker;
        // Each run restarts the virtual clock, so breaker timers from a
        // previous trace belong to a stale epoch; close them (counters
        // stay cumulative across the server's lifetime).
        for brk in self.breakers.values_mut() {
            brk.reset_for_epoch();
        }
        self.lane.begin_run();
        // The serving clock IS the chaos clock: every trace starts at
        // virtual t = 0 so fault windows land on serving time.
        gpu.set_virtual_time(0.0);

        loop {
            // 1. Admit every arrival due now.
            while next_arrival < trace.len() && trace[next_arrival].at_s <= st.clock {
                let t = &trace[next_arrival];
                let id = next_arrival as u64;
                next_arrival += 1;
                let n = t.request.keys.len();
                if n == 0 {
                    // Nothing to probe: answer at admission. Parking it in
                    // flight would hang the trace — no batch ever carries
                    // its (nonexistent) last key.
                    st.reply(Admitted::new(id, t).answer(st.clock));
                    continue;
                }
                // Per-tenant circuit breaker: an open breaker fast-rejects
                // the arrival before backpressure is even consulted.
                let brk = self
                    .breakers
                    .entry(t.request.tenant)
                    .or_insert_with(|| CircuitBreaker::new(breaker_cfg));
                if !brk.allow(st.clock) {
                    st.events.push(ServeEvent::CircuitShed {
                        tenant: t.request.tenant,
                        request: id,
                    });
                    let mut req = Admitted::new(id, t);
                    req.ctx.fast_rejected();
                    st.reply(req.shed(st.clock));
                    continue;
                }
                let backlog = sched.queued_keys() + st.batcher.pending();
                if backlog + n > self.cfg.max_pending_keys {
                    // The request passed the breaker but never reached the
                    // device; a half-open probe slot must not stay taken.
                    if let Some(brk) = self.breakers.get_mut(&t.request.tenant) {
                        brk.release_probe();
                    }
                    st.events.push(ServeEvent::LoadShed {
                        tenant: t.request.tenant,
                        request: id,
                        keys: n,
                    });
                    st.reply(Admitted::new(id, t).shed(st.clock));
                    continue;
                }
                st.inflight.insert(
                    id,
                    InFlight {
                        req: Admitted::new(id, t),
                        keys: t.request.keys.clone(),
                    },
                );
                sched.enqueue(t.request.tenant, id, n);
                st.max_queue_depth = st
                    .max_queue_depth
                    .max(sched.queued_keys() + st.batcher.pending());
            }

            // 2. Release queued requests into the batcher under DRR order.
            let window = self.lane.window_tuples();
            while self.cfg.policy.wants_more(st.batcher.pending(), window) {
                match sched.dequeue()? {
                    Some(id) => st.stage(id)?,
                    None => break,
                }
            }

            // 3. Dispatch if the policy says so.
            if self.cfg.policy.dispatch_due(&st.batcher, window, st.clock) {
                let take = self.cfg.policy.take(st.batcher.pending(), window);
                let batch = st.batcher.take(take, st.clock);
                st.keys_probed += batch.len();
                self.dispatch(gpu, &batch, &mut st)?;
                continue;
            }

            // 4. Advance the clock to the next event, or finish.
            let next_at = (next_arrival < trace.len()).then(|| trace[next_arrival].at_s);
            match (next_at, self.cfg.policy.flush_at(&st.batcher)) {
                (Some(a), Some(f)) => st.clock = st.clock.max(a.min(f)),
                (Some(a), None) => st.clock = st.clock.max(a),
                (None, Some(f)) => st.clock = st.clock.max(f),
                (None, None) => {
                    // No arrivals and no flush timer: queued work would
                    // have been staged (and a timer set) in step 2, so the
                    // trace is fully answered.
                    debug_assert!(
                        sched.is_empty() && st.batcher.pending() == 0,
                        "event loop stalled with queued work"
                    );
                    break;
                }
            }
            // Keep the chaos clock in lockstep with the serving clock so
            // fault windows open and close on serving time.
            gpu.set_virtual_time(st.clock);
        }
        debug_assert_eq!(st.inflight.len(), 0, "all admitted requests answered");
        st.responses.sort_by_key(|r| r.request);
        st.traces.sort_by_key(|t| t.request);
        debug_assert_eq!(
            st.traces.len(),
            st.responses.len(),
            "one trace per response"
        );
        let stages = StageLatencyStats::from_traces(&st.traces);
        let tail = sample_tail(&st.traces, &TailConfig::default());
        let counters = gpu.snapshot() - run_start;
        let phases = self
            .lane
            .take_phase_recorder()
            .map(|rec| rec.finish(gpu))
            .unwrap_or_default();
        let tally = OutcomeTally::of(&st.responses);
        // `responses` is sorted by request id (= arrival ordinal), so it
        // zips 1:1 with the trace; keys come from the trace side because a
        // shed response no longer carries them.
        let per_tenant: Vec<TenantLoad> = {
            let mut by_tenant: BTreeMap<TenantId, TenantLoad> = BTreeMap::new();
            for (t, resp) in trace.iter().zip(&st.responses) {
                let e = by_tenant
                    .entry(t.request.tenant)
                    .or_insert_with(|| TenantLoad {
                        tenant: t.request.tenant,
                        ..TenantLoad::default()
                    });
                e.requests += 1;
                e.keys += t.request.keys.len();
                e.matches += resp.matches.len();
                match resp.outcome {
                    RequestOutcome::Completed => e.completed += 1,
                    RequestOutcome::Shed => e.shed += 1,
                    RequestOutcome::DeadlineMissed => e.deadline_missed += 1,
                }
            }
            by_tenant.into_values().collect()
        };
        let (makespan, keys_probed, windows) = (st.clock, st.keys_probed, st.windows_closed);
        let report = ServerReport {
            policy: self.cfg.policy.label(),
            index: self.cfg.index,
            tenants: distinct_tenants(trace),
            requests: trace.len(),
            completed: tally.completed,
            shed: tally.shed,
            deadline_missed: tally.deadline_missed,
            result_tuples: tally.result_tuples,
            keys_probed,
            window: WindowStats {
                windows,
                matches: st.matches_total,
            },
            mean_batch_keys: if windows > 0 {
                keys_probed as f64 / windows as f64
            } else {
                0.0
            },
            configured_window_tuples: self.cfg.window_tuples,
            effective_window_tuples: self.lane.window_tuples(),
            virtual_makespan_s: makespan,
            completed_rps: per_second(tally.completed, makespan),
            keys_per_second: per_second(keys_probed, makespan),
            slo: tally.slo(&self.cfg.resilience.slo, makespan),
            latency: tally.latency,
            latency_hist: tally.latency_hist,
            per_tenant,
            max_queue_depth_keys: st.max_queue_depth,
            events: st.events,
            retries: counters.retries,
            counters,
            phases,
            batches: st.batches,
            breaker: BreakerReport::of(&self.breakers),
            retry: self.retry_budget.run_report(),
            stages,
            traces: st.traces,
            tail,
        };
        Ok(ServeOutcome {
            responses: st.responses,
            report,
        })
    }

    /// Push one batch through the shared operator, advancing virtual time
    /// by the cost model's estimate of the dispatch. Capacity pressure
    /// degrades (shrink window → spill sink → shed the batch); a transient
    /// fault retries under the budget with jittered backoff on the virtual
    /// clock; a device loss rebuilds index, operator, and sink after the
    /// outage clears; any error that survives all of that sheds the
    /// batch's requests rather than failing the server.
    fn dispatch(
        &mut self,
        gpu: &mut Gpu,
        batch: &[(u64, u64)],
        st: &mut RunState,
    ) -> Result<(), WindexError> {
        // One timeline entry per dispatch, accumulating every attempt's
        // counter delta and virtual time (a batch retried after degradation
        // is still one dispatch).
        let mut span = BatchSpan {
            batch: st.batches.len(),
            at_s: st.clock,
            keys: batch.len(),
            ..BatchSpan::default()
        };
        // The distinct requests riding this dispatch, in batch order: their
        // first dispatch milestone is now; retries below delay all of them.
        let members = st.requests_in(batch);
        for req in &members {
            if let Some(inf) = st.inflight.get_mut(*req) {
                inf.req.ctx.dispatched(st.clock);
            }
        }
        let mut attempts = 0u32;
        loop {
            let attempt = self.lane.attempt(gpu, batch);
            // Failed attempts consumed real device time too; virtual time
            // moves forward either way, keeping the clock monotone.
            st.clock += attempt.est_s;
            gpu.set_virtual_time(st.clock);
            span.counters = span.counters + attempt.delta;
            span.est_s += attempt.est_s;
            let e = match attempt.result {
                Ok(()) => {
                    let stats = self.lane.stats();
                    st.windows_closed += stats.windows;
                    st.matches_total += stats.matches;
                    span.windows = stats.windows;
                    span.completed = true;
                    st.batches.push(span);
                    self.retry_budget.on_success();
                    return self.complete(batch, st);
                }
                Err(e) => e,
            };
            if e.is_device_loss() {
                if st.device_losses < MAX_DEVICE_LOSS_RECOVERIES {
                    st.device_losses += 1;
                    let lost_at_s = st.clock;
                    let recovery = self.lane.recover(gpu, lost_at_s)?;
                    st.clock = recovery.cleared_at_s + recovery.rebuild_s;
                    gpu.set_virtual_time(st.clock);
                    st.events.push(ServeEvent::DeviceLossRecovered {
                        mttr_s: recovery.mttr_s(lost_at_s),
                    });
                    continue;
                }
            } else if e.is_capacity() {
                if let Some(rung) = self.lane.degrade(gpu)? {
                    st.events.push(match rung {
                        Rung::WindowShrunk { from, to } => ServeEvent::WindowShrunk { from, to },
                        Rung::SinkSpilled => ServeEvent::SinkSpilledToCpu,
                    });
                    continue;
                }
            } else if e.is_transient() {
                // A transient fault outlasted the operator's own retries
                // (e.g. a link-flap window): back off on the virtual clock
                // and redrive the whole dispatch. The backoff doubles per
                // attempt with deterministic jitter, so sustained flapping
                // walks the clock past the fault window instead of
                // hammering it.
                if let Some(backoff_s) = self.retry_budget.backoff_s(attempts) {
                    attempts += 1;
                    st.clock += backoff_s;
                    gpu.set_virtual_time(st.clock);
                    st.events.push(ServeEvent::DispatchRetried {
                        attempt: attempts,
                        backoff_s,
                    });
                    for req in &members {
                        if let Some(inf) = st.inflight.get_mut(*req) {
                            inf.req.ctx.retried();
                        }
                    }
                    continue;
                }
                st.events
                    .push(ServeEvent::RetriesExhausted { keys: batch.len() });
            }
            // Out of rungs, recoveries, or retry budget (or another terminal
            // operator error): shed the batch, keep serving.
            st.batches.push(span);
            self.abandon(batch, st);
            return Ok(());
        }
    }

    /// Demultiplex the sink's matches back to their requests and answer
    /// every request whose last key was just probed.
    fn complete(&mut self, batch: &[(u64, u64)], st: &mut RunState) -> Result<(), WindexError> {
        let now_s = st.clock;
        for (rid, pos) in self.lane.take_pairs() {
            let (req, key_idx) = st.batcher.resolve(rid);
            if let Some(inf) = st.inflight.get_mut(req) {
                inf.req.matches.push((inf.keys[key_idx as usize], pos));
            }
        }
        for &(_, rid) in batch {
            let (req, _) = st.batcher.resolve(rid);
            if let Some(inf) = st.inflight.get_mut(req) {
                inf.req.remaining -= 1;
            }
        }
        // Answer finished requests in dispatch order (dedup preserves the
        // order their last keys went out).
        for req in st.requests_in(batch) {
            if st.inflight.get(req).is_none_or(|inf| inf.req.remaining > 0) {
                continue;
            }
            let mut inf = st.inflight.remove(req).ok_or(WindexError::InvalidState(
                "completed request vanished from the in-flight table",
            ))?;
            // An answered request is a breaker success for its tenant —
            // even past its deadline, the device did answer (deadline
            // attainment is the SLO tracker's concern, not the breaker's).
            let tenant = inf.req.tenant;
            if self
                .breakers
                .get_mut(&tenant)
                .is_some_and(|brk| brk.on_success())
            {
                st.events.push(ServeEvent::CircuitClosed { tenant });
            }
            inf.req.ctx.first_result(now_s);
            inf.req.ctx.merged(now_s);
            st.reply(inf.req.answer(now_s));
        }
        Ok(())
    }

    /// Shed every request with a key in the failed batch: answer it
    /// [`RequestOutcome::Shed`] and drop its still-pending keys.
    fn abandon(&mut self, batch: &[(u64, u64)], st: &mut RunState) {
        let now_s = st.clock;
        self.lane.clear_sink();
        let victims = st.requests_in(batch);
        st.events.push(ServeEvent::BatchAbandoned {
            keys: batch.len(),
            requests: victims.len(),
        });
        for req in victims {
            if let Some(inf) = st.inflight.remove(req) {
                st.batcher.drop_request(req);
                // An abandoned batch is a hard failure for every tenant it
                // carried; enough of them in a row open the breaker.
                let tenant = inf.req.tenant;
                if let Some(brk) = self.breakers.get_mut(&tenant) {
                    if brk.on_failure(now_s) {
                        st.events.push(ServeEvent::CircuitOpened {
                            tenant,
                            until_s: brk.open_until_s(),
                        });
                    }
                }
                st.reply(inf.req.shed(now_s));
            }
        }
    }
}

impl RunState {
    /// Record a request's response and finished span tree.
    fn reply(&mut self, (resp, span): (LookupResponse, RequestTrace)) {
        self.responses.push(resp);
        self.traces.push(span);
    }

    /// The distinct requests with a key in `batch`, in first-occurrence
    /// order.
    fn requests_in(&self, batch: &[(u64, u64)]) -> Vec<u64> {
        let mut reqs: Vec<u64> = Vec::new();
        for &(_, rid) in batch {
            let (req, _) = self.batcher.resolve(rid);
            if !reqs.contains(&req) {
                reqs.push(req);
            }
        }
        reqs
    }

    /// Stage a released request's keys into the batcher. A scheduler
    /// release for a request not in the in-flight table is an internal
    /// inconsistency; it surfaces as a typed error instead of an index
    /// panic.
    fn stage(&mut self, id: u64) -> Result<(), WindexError> {
        let inf = self.inflight.get_mut(id).ok_or(WindexError::InvalidState(
            "scheduler released a request that is not in flight",
        ))?;
        inf.req.ctx.staged(self.clock);
        self.batcher.stage(id, &inf.keys, self.clock);
        Ok(())
    }
}

/// Distinct tenants in a trace.
pub(crate) fn distinct_tenants(trace: &[TimedRequest]) -> usize {
    let mut t: Vec<TenantId> = trace.iter().map(|t| t.request.tenant).collect();
    t.sort_unstable();
    t.dedup();
    t.len()
}
