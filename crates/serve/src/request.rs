//! The request model: what a tenant submits and what the server returns.
//!
//! A [`LookupRequest`] is one client's batch of probe keys against the
//! served relation — the serving-layer analogue of one tiny probe-side
//! stream in the paper's join (§5.1). Responses carry the per-request match
//! set plus virtual-time latency accounting, so latency–throughput curves
//! come straight out of a served trace.

use crate::span::{RequestContext, RequestTrace};
use crate::trace::TimedRequest;
use serde::Serialize;

/// Identifies one client/tenant of the server.
pub type TenantId = u32;

/// One client lookup: probe the served relation with `keys`.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupRequest {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Probe keys. Keys need not exist in the served relation; misses
    /// simply produce no match.
    pub keys: Vec<u64>,
    /// Optional latency budget in virtual seconds from submission.
    /// Responses completing later are marked
    /// [`RequestOutcome::DeadlineMissed`] (results are still returned).
    pub deadline: Option<f64>,
}

impl LookupRequest {
    /// A request with no deadline.
    pub fn new(tenant: TenantId, keys: Vec<u64>) -> Self {
        LookupRequest {
            tenant,
            keys,
            deadline: None,
        }
    }

    /// Attach a latency budget (virtual seconds from submission).
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline = Some(deadline_s);
        self
    }
}

/// How a request left the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RequestOutcome {
    /// All keys were probed and matches returned within the deadline (or no
    /// deadline was set).
    Completed,
    /// All keys were probed but completion came after the request's
    /// deadline; the match set is still valid.
    DeadlineMissed,
    /// The request was shed — by admission control (queue over the
    /// backpressure bound) or because its dispatch could not complete even
    /// after degradation. No matches are returned.
    Shed,
}

impl RequestOutcome {
    /// Classify a request the device answered after `latency_s`: past its
    /// `deadline` it is [`DeadlineMissed`](Self::DeadlineMissed), otherwise
    /// [`Completed`](Self::Completed).
    pub(crate) fn served(latency_s: f64, deadline: Option<f64>) -> Self {
        match deadline {
            Some(d) if latency_s > d => RequestOutcome::DeadlineMissed,
            _ => RequestOutcome::Completed,
        }
    }
}

/// The server's answer to one [`LookupRequest`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LookupResponse {
    /// Server-assigned request id (arrival order over the whole trace).
    pub request: u64,
    /// The submitting tenant (echoed for demultiplexing checks).
    pub tenant: TenantId,
    /// How the request left the server.
    pub outcome: RequestOutcome,
    /// Matches as `(probe key, index position)` pairs, in probe order per
    /// dispatched window. Empty for shed requests and full misses.
    pub matches: Vec<(u64, u64)>,
    /// Virtual time the request arrived.
    pub submitted_s: f64,
    /// Virtual time the response was produced.
    pub completed_s: f64,
    /// `completed_s - submitted_s`: queueing delay (including deliberate
    /// batching delay) plus service time, in virtual seconds.
    pub latency_s: f64,
}

/// An admitted request awaiting its answer: the per-request accounting
/// both serving loops keep.
#[derive(Debug)]
pub(crate) struct Admitted {
    pub id: u64,
    pub tenant: TenantId,
    pub deadline: Option<f64>,
    pub submitted_s: f64,
    /// Keys not yet probed.
    pub remaining: usize,
    pub matches: Vec<(u64, u64)>,
    /// Span-tree builder following the request through its lifecycle.
    pub ctx: RequestContext,
}

impl Admitted {
    /// Admit trace request `id`.
    pub fn new(id: u64, t: &TimedRequest) -> Self {
        let n = t.request.keys.len();
        Admitted {
            id,
            tenant: t.request.tenant,
            deadline: t.request.deadline,
            submitted_s: t.at_s,
            remaining: n,
            matches: Vec::new(),
            ctx: RequestContext::new(id, t.request.tenant, t.at_s, n),
        }
    }

    /// Answer with the matches gathered so far at `now_s`, classified
    /// against the deadline.
    pub fn answer(self, now_s: f64) -> (LookupResponse, RequestTrace) {
        let latency_s = now_s - self.submitted_s;
        let outcome = RequestOutcome::served(latency_s, self.deadline);
        let span = self.ctx.finish(now_s, outcome, self.matches.len());
        let resp = LookupResponse {
            request: self.id,
            tenant: self.tenant,
            outcome,
            matches: self.matches,
            submitted_s: self.submitted_s,
            completed_s: now_s,
            latency_s,
        };
        (resp, span)
    }

    /// Shed the request at `now_s`: no matches are returned.
    pub fn shed(self, now_s: f64) -> (LookupResponse, RequestTrace) {
        let resp = LookupResponse {
            request: self.id,
            tenant: self.tenant,
            outcome: RequestOutcome::Shed,
            matches: Vec::new(),
            submitted_s: self.submitted_s,
            completed_s: now_s,
            latency_s: now_s - self.submitted_s,
        };
        (resp, self.ctx.finish(now_s, RequestOutcome::Shed, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_builder() {
        let r = LookupRequest::new(3, vec![1, 2]).with_deadline(0.5);
        assert_eq!(r.tenant, 3);
        assert_eq!(r.deadline, Some(0.5));
    }

    #[test]
    fn response_serializes() {
        let resp = LookupResponse {
            request: 1,
            tenant: 2,
            outcome: RequestOutcome::Completed,
            matches: vec![(10, 5)],
            submitted_s: 0.0,
            completed_s: 1.0,
            latency_s: 1.0,
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(json.contains("\"outcome\":\"Completed\""), "{json}");
        assert!(json.contains("[[10,5]]"), "{json}");
    }
}
