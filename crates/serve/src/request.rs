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

/// The in-flight requests of one run, addressed by request id in O(1).
///
/// Request ids are arrival ordinals, so an id → slot vector indexes them
/// directly; the values live in slots reused through a free list, so the
/// table holds only what is in flight, not one entry per trace request.
#[derive(Debug)]
pub(crate) struct RequestTable<T> {
    /// Request id → slot index + 1; 0 when the request is not in flight.
    slot_of: Vec<u32>,
    slots: Vec<Option<T>>,
    /// Empty slots, reused before the table grows.
    free: Vec<usize>,
}

impl<T> Default for RequestTable<T> {
    fn default() -> Self {
        RequestTable {
            slot_of: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> RequestTable<T> {
    fn slot(&self, id: u64) -> Option<usize> {
        let slot = *self.slot_of.get(usize::try_from(id).ok()?)?;
        (slot as usize).checked_sub(1)
    }

    /// Put request `id` in flight. Panics if it already is.
    pub fn insert(&mut self, id: u64, value: T) {
        let i = usize::try_from(id).expect("request id fits the address space");
        if i >= self.slot_of.len() {
            self.slot_of.resize(i + 1, 0);
        }
        assert_eq!(self.slot_of[i], 0, "request {id} already in flight");
        let slot = self.free.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(None);
        }
        self.slots[slot] = Some(value);
        self.slot_of[i] = u32::try_from(slot + 1).expect("in-flight requests fit u32 slots");
    }

    /// The in-flight request `id`, if any.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots[self.slot(id)?].as_ref()
    }

    /// The in-flight request `id`, mutably, if any.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let slot = self.slot(id)?;
        self.slots[slot].as_mut()
    }

    /// Whether request `id` is in flight.
    pub fn contains(&self, id: u64) -> bool {
        self.slot(id).is_some()
    }

    /// Take request `id` out of flight, freeing its slot for reuse.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let slot = self.slot(id)?;
        self.slot_of[id as usize] = 0;
        self.free.push(slot);
        self.slots[slot].take()
    }

    /// Requests in flight.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_addresses_out_of_order_ids_and_reuses_slots() {
        let mut t = RequestTable::default();
        for id in [5u64, 0, 3] {
            t.insert(id, id * 10);
        }
        *t.get_mut(5).unwrap() += 1;
        assert_eq!(
            (t.get(0), t.get(3), t.get(5)),
            (Some(&0), Some(&30), Some(&51))
        );
        assert!(t.contains(0) && !t.contains(1) && !t.contains(4));
        assert_eq!((t.remove(0), t.len()), (Some(0), 2));
        t.insert(1, 11);
        assert_eq!(t.slots.len(), 3, "the freed slot is reused");
        assert_eq!((t.get(1), t.len()), (Some(&11), 3));
        assert_eq!(
            (t.remove(1), t.remove(3), t.remove(5)),
            (Some(11), Some(30), Some(51))
        );
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn table_misses_absent_ids() {
        let mut t: RequestTable<u8> = RequestTable::default();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get_mut(u64::MAX), None);
        assert_eq!(t.remove(7), None);
        t.insert(2, 9);
        assert_eq!(t.remove(2), Some(9));
        assert_eq!(t.remove(2), None, "removed twice");
        assert_eq!(
            (t.get(2), t.get(100), t.contains(2), t.len()),
            (None, None, false, 0)
        );
    }

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
