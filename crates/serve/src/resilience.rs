//! Serving resilience under chaos: retry budgets with deterministic
//! jittered backoff, per-tenant circuit breakers on the virtual clock, and
//! SLO tracking.
//!
//! Everything here is a pure function of the server's configuration and the
//! virtual clock — no wall time, no entropy — so a served trace stays
//! byte-deterministic even while faults are injected:
//!
//! - [`RetryBudget`] — a token pool bounding how many dispatch-level
//!   retries the server may spend across a trace. Each retry consumes one
//!   token; each completed dispatch refills a configurable fraction, so
//!   sustained failure exhausts the budget instead of retrying forever.
//!   [`RetryBudget::backoff_s`] grants one retry and draws its backoff, so
//!   both serving loops share the cap, the spend, and the jitter sequence.
//! - [`jittered_backoff_s`] — exponential backoff with deterministic
//!   jitter: the delay for retry *n* is `base · 2ⁿ · j` where `j ∈
//!   (0.5, 1.5]` comes from a counter-indexed splitmix64 draw (the same
//!   construction the trace generator uses), so backoff schedules never
//!   synchronize across dispatches yet replay identically per seed.
//! - [`CircuitBreaker`] — per-tenant closed → open → half-open breaker
//!   driven by hard dispatch failures. An open breaker fast-rejects the
//!   tenant's arrivals until a cooldown elapses on the virtual clock, then
//!   admits one half-open probe; the probe's outcome closes or re-opens it.
//! - [`SloTracker`] — folds served responses into the operator-facing
//!   service-level objectives: availability (answered / submitted), goodput
//!   (answered within the latency budget, per virtual second), and tail
//!   latency under chaos.

use crate::request::TenantId;
use serde::Serialize;
use std::collections::BTreeMap;

/// Retry-budget and backoff parameters.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Most dispatch-level retries of one batch before it is abandoned.
    pub max_attempts_per_dispatch: u32,
    /// Token-pool capacity: total retries the budget holds when full.
    pub budget_tokens: f64,
    /// Tokens returned to the pool per completed dispatch (capped at
    /// capacity).
    pub refill_per_success: f64,
    /// Backoff before the first retry, in virtual seconds; doubles per
    /// attempt.
    pub base_backoff_s: f64,
    /// Seed of the deterministic jitter draws.
    pub jitter_seed: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts_per_dispatch: 12,
            budget_tokens: 64.0,
            refill_per_success: 0.25,
            base_backoff_s: 100e-6,
            jitter_seed: 0x0072_6574_7279,
        }
    }
}

/// Circuit-breaker parameters.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive hard failures (abandoned batches) that open a tenant's
    /// breaker.
    pub failure_threshold: u32,
    /// How long an open breaker fast-rejects before admitting a half-open
    /// probe, in virtual seconds.
    pub cooldown_s: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_s: 5e-3,
        }
    }
}

/// Service-level-objective parameters.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Latency budget a response must meet to count as goodput, in virtual
    /// seconds.
    pub deadline_budget_s: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            deadline_budget_s: 5e-3,
        }
    }
}

/// All resilience knobs, grouped so [`ServeConfig`](crate::ServeConfig)
/// stays `Copy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResilienceConfig {
    /// Retry budget and backoff.
    pub retry: RetryConfig,
    /// Per-tenant circuit breaker.
    pub breaker: BreakerConfig,
    /// Service-level objectives.
    pub slo: SloConfig,
}

#[inline]
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

const SALT_BACKOFF: u64 = 0x0062_6163_6b6f_6666; // "backoff"

/// Deterministic jittered exponential backoff for retry `attempt`
/// (0-based): `base · 2^attempt · j` with `j ∈ (0.5, 1.5]` drawn from
/// `(jitter_seed, seq)`. The exponent saturates at 2²⁰ so the delay stays
/// finite for any attempt count.
pub fn jittered_backoff_s(cfg: &RetryConfig, attempt: u32, seq: u64) -> f64 {
    let h = splitmix64(cfg.jitter_seed ^ SALT_BACKOFF.wrapping_mul(0x9e3779b97f4a7c15) ^ seq);
    let unit = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let exp = (1u64 << attempt.min(20)) as f64;
    cfg.base_backoff_s * exp * (0.5 + unit)
}

/// A token pool bounding dispatch-level retries across a served trace,
/// plus the backoff schedule the granted retries follow.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    cfg: RetryConfig,
    capacity: f64,
    tokens: f64,
    refill: f64,
    spent: u64,
    denied: u64,
    /// Ordinal of the next backoff-jitter draw (restarts per trace so runs
    /// replay identically).
    seq: u64,
    /// `spent` / `denied` when the current trace began.
    run_spent0: u64,
    run_denied0: u64,
    /// Backoff granted this trace, in virtual seconds.
    run_backoff_s: f64,
}

impl RetryBudget {
    /// A full budget with the given capacity, per-success refill, and
    /// backoff schedule.
    pub fn new(cfg: &RetryConfig) -> Self {
        RetryBudget {
            cfg: *cfg,
            capacity: cfg.budget_tokens.max(0.0),
            tokens: cfg.budget_tokens.max(0.0),
            refill: cfg.refill_per_success.max(0.0),
            spent: 0,
            denied: 0,
            seq: 0,
            run_spent0: 0,
            run_denied0: 0,
            run_backoff_s: 0.0,
        }
    }

    /// Consume one token if available. A denied spend is counted.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.spent += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Return the per-success refill to the pool (capped at capacity).
    pub fn on_success(&mut self) {
        self.tokens = (self.tokens + self.refill).min(self.capacity);
    }

    /// Start a new trace: the jitter draws restart and the per-trace
    /// [`run_report`](Self::run_report) counts from here. The pool itself
    /// carries over.
    pub fn begin_run(&mut self) {
        self.seq = 0;
        self.run_spent0 = self.spent;
        self.run_denied0 = self.denied;
        self.run_backoff_s = 0.0;
    }

    /// Grant retry `attempt` (0-based) of one dispatch: `Some(backoff)`
    /// when the attempt is under the per-dispatch cap and the pool has a
    /// token, with the backoff drawn by [`jittered_backoff_s`]; `None`
    /// when the dispatch must give up.
    pub fn backoff_s(&mut self, attempt: u32) -> Option<f64> {
        if attempt >= self.cfg.max_attempts_per_dispatch || !self.try_spend() {
            return None;
        }
        let backoff_s = jittered_backoff_s(&self.cfg, attempt, self.seq);
        self.seq += 1;
        self.run_backoff_s += backoff_s;
        Some(backoff_s)
    }

    /// Retry accounting since [`begin_run`](Self::begin_run).
    pub fn run_report(&self) -> RetryReport {
        RetryReport {
            attempts: self.spent - self.run_spent0,
            denied: self.denied - self.run_denied0,
            tokens_remaining: self.tokens,
            backoff_s: self.run_backoff_s,
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Retries granted so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Retries denied because the pool was empty.
    pub fn denied(&self) -> u64 {
        self.denied
    }
}

/// Circuit-breaker state, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests are fast-rejected until the cooldown elapses.
    Open,
    /// One probe request is in flight; its outcome decides the next state.
    HalfOpen,
}

impl BreakerState {
    /// Numeric encoding for gauges: closed 0, half-open 1, open 2.
    pub fn as_gauge(&self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// A per-tenant circuit breaker driven by the virtual clock.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until_s: f64,
    /// Whether the half-open probe slot is taken.
    probe_inflight: bool,
    opens: u64,
    fast_rejects: u64,
    half_open_probes: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until_s: 0.0,
            probe_inflight: false,
            opens: 0,
            fast_rejects: 0,
            half_open_probes: 0,
        }
    }

    /// Whether a request may be admitted at virtual instant `now_s`.
    /// Transitions open → half-open when the cooldown has elapsed; in
    /// half-open, exactly one probe is admitted until it resolves.
    pub fn allow(&mut self, now_s: f64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_s >= self.open_until_s {
                    self.state = BreakerState::HalfOpen;
                    self.probe_inflight = true;
                    self.half_open_probes += 1;
                    true
                } else {
                    self.fast_rejects += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    self.fast_rejects += 1;
                    false
                } else {
                    self.probe_inflight = true;
                    self.half_open_probes += 1;
                    true
                }
            }
        }
    }

    /// Record an answered request. Returns `true` when this closed a
    /// half-open breaker.
    pub fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        self.probe_inflight = false;
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Closed;
            true
        } else {
            false
        }
    }

    /// Record a hard failure (abandoned batch) at `now_s`. Returns `true`
    /// when this opened the breaker (from closed past the threshold, or a
    /// failed half-open probe).
    pub fn on_failure(&mut self, now_s: f64) -> bool {
        self.probe_inflight = false;
        self.consecutive_failures += 1;
        let trip = match self.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.consecutive_failures >= self.cfg.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.open_until_s = now_s + self.cfg.cooldown_s;
            self.consecutive_failures = 0;
            self.opens += 1;
        }
        trip
    }

    /// Release the half-open probe slot without resolving it — for a
    /// request admitted through the breaker but shed before it reached the
    /// device (e.g. by backpressure). The breaker stays half-open and the
    /// next arrival becomes the probe.
    pub fn release_probe(&mut self) {
        self.probe_inflight = false;
    }

    /// Reset temporal state for a fresh virtual-clock epoch. Each served
    /// trace restarts the virtual clock at zero, so an `open_until_s` from
    /// a previous run would be compared against the wrong timeline; close
    /// the breaker and clear timers while keeping cumulative counters.
    pub fn reset_for_epoch(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.open_until_s = 0.0;
        self.probe_inflight = false;
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Virtual instant until which an open breaker fast-rejects.
    pub fn open_until_s(&self) -> f64 {
        self.open_until_s
    }

    /// Times the breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Requests fast-rejected while open (or while a probe was in flight).
    pub fn fast_rejects(&self) -> u64 {
        self.fast_rejects
    }

    /// Half-open probes admitted.
    pub fn half_open_probes(&self) -> u64 {
        self.half_open_probes
    }
}

/// One tenant's breaker state at trace end (report/exposition row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TenantBreaker {
    /// The tenant.
    pub tenant: TenantId,
    /// Breaker state at trace end.
    pub state: BreakerState,
    /// Times this tenant's breaker tripped open during the trace.
    pub opens: u64,
    /// This tenant's fast-rejected requests.
    pub fast_rejects: u64,
}

/// Aggregate circuit-breaker summary over one served trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BreakerReport {
    /// Total breaker trips across tenants.
    pub opens: u64,
    /// Total fast-rejected requests across tenants.
    pub fast_rejects: u64,
    /// Total half-open probes admitted across tenants.
    pub half_open_probes: u64,
    /// Per-tenant end-of-trace state, ascending tenant id.
    pub tenants: Vec<TenantBreaker>,
}

impl BreakerReport {
    /// Summarize per-tenant breakers; map order (ascending tenant id)
    /// fixes the exposition order.
    pub(crate) fn of(breakers: &BTreeMap<TenantId, CircuitBreaker>) -> Self {
        let mut rep = BreakerReport::default();
        for (&tenant, b) in breakers {
            rep.opens += b.opens();
            rep.fast_rejects += b.fast_rejects();
            rep.half_open_probes += b.half_open_probes();
            rep.tenants.push(TenantBreaker {
                tenant,
                state: b.state(),
                opens: b.opens(),
                fast_rejects: b.fast_rejects(),
            });
        }
        rep
    }
}

/// Retry-budget summary over one served trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RetryReport {
    /// Dispatch-level retries granted.
    pub attempts: u64,
    /// Retries denied because the budget was exhausted.
    pub denied: u64,
    /// Tokens left in the pool at trace end.
    pub tokens_remaining: f64,
    /// Total backoff charged to the virtual clock, in seconds.
    pub backoff_s: f64,
}

/// SLO attainment over one served trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SloReport {
    /// Latency budget a response must meet to count as goodput.
    pub deadline_budget_s: f64,
    /// Responses answered (completed or deadline-missed; not shed).
    pub answered: usize,
    /// Answered responses within the latency budget.
    pub within_budget: usize,
    /// Answered / submitted — the availability under chaos.
    pub availability: f64,
    /// Within-budget responses per virtual second of makespan.
    pub goodput_rps: f64,
    /// Within-budget share of all submitted requests.
    pub good_share: f64,
    /// 99th-percentile latency over answered responses, in virtual
    /// seconds.
    pub p99_s: f64,
}

/// Folds response outcomes into the [`SloReport`].
#[derive(Debug, Clone)]
pub struct SloTracker {
    budget_s: f64,
    submitted: usize,
    answered: usize,
    within_budget: usize,
    latencies: Vec<f64>,
}

impl SloTracker {
    /// An empty tracker with the given latency budget.
    pub fn new(cfg: &SloConfig) -> Self {
        SloTracker {
            budget_s: cfg.deadline_budget_s,
            submitted: 0,
            answered: 0,
            within_budget: 0,
            latencies: Vec::new(),
        }
    }

    /// Observe one response: `answered` is false for shed requests;
    /// `latency_s` is ignored for them.
    pub fn observe(&mut self, answered: bool, latency_s: f64) {
        self.submitted += 1;
        if answered {
            self.answered += 1;
            if latency_s.is_finite() {
                self.latencies.push(latency_s);
                if latency_s <= self.budget_s {
                    self.within_budget += 1;
                }
            }
        }
    }

    /// Close the tracker over a trace of `makespan_s` virtual seconds.
    pub fn finish(mut self, makespan_s: f64) -> SloReport {
        let p99_s = if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.sort_by(f64::total_cmp);
            let n = self.latencies.len();
            self.latencies[((0.99 * n as f64).ceil() as usize).clamp(1, n) - 1]
        };
        SloReport {
            deadline_budget_s: self.budget_s,
            answered: self.answered,
            within_budget: self.within_budget,
            availability: if self.submitted > 0 {
                self.answered as f64 / self.submitted as f64
            } else {
                1.0
            },
            goodput_rps: if makespan_s > 0.0 {
                self.within_budget as f64 / makespan_s
            } else {
                0.0
            },
            good_share: if self.submitted > 0 {
                self.within_budget as f64 / self.submitted as f64
            } else {
                1.0
            },
            p99_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_with_bounded_jitter_and_replays() {
        let cfg = RetryConfig::default();
        for attempt in 0..10u32 {
            let base = cfg.base_backoff_s * (1u64 << attempt) as f64;
            let b = jittered_backoff_s(&cfg, attempt, 42);
            assert!(b > 0.5 * base && b <= 1.5 * base, "attempt {attempt}: {b}");
            assert_eq!(b, jittered_backoff_s(&cfg, attempt, 42), "deterministic");
        }
        // Different sequence numbers de-synchronize the jitter.
        assert_ne!(
            jittered_backoff_s(&cfg, 3, 0),
            jittered_backoff_s(&cfg, 3, 1)
        );
        // The exponent saturates instead of overflowing.
        let big = jittered_backoff_s(&cfg, u32::MAX, 0);
        assert!(big.is_finite());
    }

    #[test]
    fn retry_budget_spends_denies_and_refills() {
        let cfg = RetryConfig {
            budget_tokens: 2.0,
            refill_per_success: 0.5,
            ..RetryConfig::default()
        };
        let mut b = RetryBudget::new(&cfg);
        assert!(b.try_spend() && b.try_spend());
        assert!(!b.try_spend(), "empty pool must deny");
        assert_eq!((b.spent(), b.denied()), (2, 1));
        b.on_success();
        b.on_success();
        assert!(b.try_spend(), "two refills add a token");
        // Refill never exceeds capacity.
        let mut full = RetryBudget::new(&cfg);
        full.on_success();
        assert_eq!(full.tokens(), 2.0);
    }

    #[test]
    fn breaker_walks_closed_open_half_open() {
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown_s: 1.0,
        };
        let mut b = CircuitBreaker::new(cfg);
        assert!(b.allow(0.0));
        assert!(!b.on_failure(0.0), "below threshold");
        assert!(b.on_failure(0.1), "threshold trips the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(0.5), "open fast-rejects before cooldown");
        assert_eq!(b.fast_rejects(), 1);
        assert!(b.allow(1.2), "cooldown elapsed: half-open probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(1.3), "one probe at a time");
        assert!(b.on_success(), "probe success closes the breaker");
        assert_eq!(b.state(), BreakerState::Closed);
        // A failed probe re-opens immediately.
        b.on_failure(2.0);
        b.on_failure(2.0);
        assert!(b.allow(3.5));
        assert!(b.on_failure(3.6), "failed probe re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 3);
    }

    #[test]
    fn slo_tracker_computes_availability_goodput_and_p99() {
        let mut t = SloTracker::new(&SloConfig {
            deadline_budget_s: 1e-3,
        });
        for i in 0..98 {
            t.observe(true, if i < 90 { 5e-4 } else { 2e-3 });
        }
        t.observe(false, 0.0);
        t.observe(false, 0.0);
        let r = t.finish(2.0);
        assert_eq!(r.answered, 98);
        assert_eq!(r.within_budget, 90);
        assert!((r.availability - 0.98).abs() < 1e-12);
        assert!((r.goodput_rps - 45.0).abs() < 1e-12);
        assert!((r.good_share - 0.90).abs() < 1e-12);
        assert_eq!(r.p99_s, 2e-3);
        // Empty tracker degrades to perfect availability, zero goodput.
        let r = SloTracker::new(&SloConfig::default()).finish(0.0);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.goodput_rps, 0.0);
    }
}
