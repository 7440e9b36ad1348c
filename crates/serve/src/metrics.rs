//! OpenMetrics text exposition for [`ServerReport`].
//!
//! A real serving deployment scrapes its query servers; this module gives
//! the simulated server the same surface. [`render_openmetrics`] renders a
//! [`ServerReport`] as an OpenMetrics text snapshot — per-tenant request
//! counters, a fixed-bucket latency histogram, degradation/shed counters,
//! and capacity gauges — terminated by the mandatory `# EOF` marker.
//!
//! Determinism is part of the contract: families render in a fixed order,
//! tenants in ascending id order, and every number through Rust's default
//! (shortest-round-trip) float formatting, so the same seed produces a
//! byte-identical snapshot. The exporter-determinism tests in windex-bench
//! pin this.

use crate::cluster::ClusterReport;
use crate::report::{LatencyHistogram, ServeEvent, ServerReport};
use crate::span::{RequestTrace, StageLatencyStats};
use std::fmt::{Display, Write as _};

/// The fixed stage order used by every per-stage family.
const STAGE_NAMES: [&str; 5] = ["queue", "batch", "service", "merge", "other"];

/// Write the per-stage latency families shared by all three exporters:
/// a p99 gauge and a summed-seconds counter per stage, labelled
/// `stage="queue|batch|service|merge|other"` under `<prefix>_stage_*`.
fn stage_families(
    o: &mut String,
    prefix: &str,
    stages: &StageLatencyStats,
    traces: &[RequestTrace],
) {
    let p99s = [
        stages.queue.p99_s,
        stages.batch.p99_s,
        stages.service.p99_s,
        stages.merge.p99_s,
        stages.other.p99_s,
    ];
    family(
        o,
        &format!("{prefix}_stage_p99_seconds"),
        "gauge",
        "p99 per-stage latency over all span trees, in virtual seconds.",
    );
    for (name, p99) in STAGE_NAMES.iter().zip(p99s) {
        let _ = writeln!(o, "{prefix}_stage_p99_seconds{{stage=\"{name}\"}} {p99}");
    }
    let mut totals = [0.0f64; 5];
    for t in traces {
        totals[0] += t.stages.queue_s;
        totals[1] += t.stages.batch_s;
        totals[2] += t.stages.service_s;
        totals[3] += t.stages.merge_s;
        totals[4] += t.stages.other_s;
    }
    family(
        o,
        &format!("{prefix}_stage_seconds"),
        "counter",
        "Virtual time attributed to each stage, summed over all span trees.",
    );
    for (name, total) in STAGE_NAMES.iter().zip(totals) {
        let _ = writeln!(
            o,
            "{prefix}_stage_seconds_total{{stage=\"{name}\"}} {total}"
        );
    }
}

/// Render `report` as an OpenMetrics text snapshot (ending in `# EOF`).
pub fn render_openmetrics(report: &ServerReport) -> String {
    let mut o = String::new();

    // Identity: policy and index as an info-style gauge (labels carry the
    // strings; the value is always 1).
    family(&mut o, "windex_server", "gauge", "Server identity.");
    let _ = writeln!(
        o,
        "windex_server{{policy=\"{}\",index=\"{:?}\"}} 1",
        escape(&report.policy),
        report.index,
    );

    // Per-tenant request accounting. `per_tenant` is already in ascending
    // tenant-id order, which fixes the exposition order.
    labelled(
        &mut o,
        "windex_requests",
        "counter",
        "Requests submitted, by tenant.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.requests)),
    );
    labelled(
        &mut o,
        "windex_requests_completed",
        "counter",
        "Requests served within deadline, by tenant.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.completed)),
    );
    labelled(
        &mut o,
        "windex_requests_shed",
        "counter",
        "Requests shed by admission control or abandoned batches, by tenant.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.shed)),
    );
    labelled(
        &mut o,
        "windex_requests_deadline_missed",
        "counter",
        "Requests served past their deadline, by tenant.",
        "tenant",
        report
            .per_tenant
            .iter()
            .map(|t| (t.tenant, t.deadline_missed)),
    );
    labelled(
        &mut o,
        "windex_request_keys",
        "counter",
        "Probe keys submitted, by tenant.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.keys)),
    );
    labelled(
        &mut o,
        "windex_result_tuples",
        "counter",
        "Join matches returned, by tenant.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.matches)),
    );

    // Latency histogram over served (non-shed) requests, virtual seconds.
    histogram(
        &mut o,
        "windex_request_latency_seconds",
        "Request latency over served requests, in virtual seconds.",
        &report.latency_hist,
    );

    // Degradation / shed events over the trace.
    let (mut shrinks, mut spills, mut sheds, mut abandoned) = (0u64, 0u64, 0u64, 0u64);
    let (mut circuit_sheds, mut dispatch_retries, mut retries_exhausted) = (0u64, 0u64, 0u64);
    let mut loss_recoveries = 0u64;
    let mut mttr_sum_s = 0.0f64;
    for e in &report.events {
        match e {
            ServeEvent::WindowShrunk { .. } => shrinks += 1,
            ServeEvent::SinkSpilledToCpu => spills += 1,
            ServeEvent::LoadShed { .. } => sheds += 1,
            ServeEvent::BatchAbandoned { .. } => abandoned += 1,
            ServeEvent::CircuitShed { .. } => circuit_sheds += 1,
            ServeEvent::CircuitOpened { .. } | ServeEvent::CircuitClosed { .. } => {}
            ServeEvent::DispatchRetried { .. } => dispatch_retries += 1,
            ServeEvent::RetriesExhausted { .. } => retries_exhausted += 1,
            ServeEvent::DeviceLossRecovered { mttr_s } => {
                loss_recoveries += 1;
                mttr_sum_s += mttr_s;
            }
        }
    }
    family(
        &mut o,
        "windex_window_shrinks",
        "counter",
        "Shared-window halvings under device-memory pressure.",
    );
    let _ = writeln!(o, "windex_window_shrinks_total {shrinks}");
    family(
        &mut o,
        "windex_sink_spills",
        "counter",
        "Result-sink spills to CPU memory.",
    );
    let _ = writeln!(o, "windex_sink_spills_total {spills}");
    family(
        &mut o,
        "windex_load_sheds",
        "counter",
        "Requests refused at admission by backpressure.",
    );
    let _ = writeln!(o, "windex_load_sheds_total {sheds}");
    family(
        &mut o,
        "windex_batches_abandoned",
        "counter",
        "Dispatched batches shed after exhausting degradation.",
    );
    let _ = writeln!(o, "windex_batches_abandoned_total {abandoned}");
    family(
        &mut o,
        "windex_operator_retries",
        "counter",
        "Operator retries priced into virtual time.",
    );
    let _ = writeln!(o, "windex_operator_retries_total {}", report.retries);
    family(
        &mut o,
        "windex_windows_dispatched",
        "counter",
        "Shared windows pushed through the operator.",
    );
    let _ = writeln!(
        o,
        "windex_windows_dispatched_total {}",
        report.window.windows
    );
    family(
        &mut o,
        "windex_keys_probed",
        "counter",
        "Probe keys dispatched through shared windows.",
    );
    let _ = writeln!(o, "windex_keys_probed_total {}", report.keys_probed);

    // Resilience: circuit breakers, retry budget, device-loss recovery, SLOs.
    labelled(
        &mut o,
        "windex_circuit_state",
        "gauge",
        "Circuit-breaker state at trace end, by tenant (0=closed, 1=half-open, 2=open).",
        "tenant",
        report
            .breaker
            .tenants
            .iter()
            .map(|t| (t.tenant, t.state.as_gauge())),
    );
    family(
        &mut o,
        "windex_circuit_opens",
        "counter",
        "Circuit-breaker trips from closed or half-open to open.",
    );
    let _ = writeln!(o, "windex_circuit_opens_total {}", report.breaker.opens);
    family(
        &mut o,
        "windex_circuit_fast_rejects",
        "counter",
        "Requests rejected at admission by an open circuit breaker.",
    );
    let _ = writeln!(
        o,
        "windex_circuit_fast_rejects_total {}",
        report.breaker.fast_rejects
    );
    family(
        &mut o,
        "windex_circuit_sheds",
        "counter",
        "Requests shed by circuit breakers over this trace.",
    );
    let _ = writeln!(o, "windex_circuit_sheds_total {circuit_sheds}");
    family(
        &mut o,
        "windex_dispatch_retries",
        "counter",
        "Transient dispatch failures retried with jittered backoff.",
    );
    let _ = writeln!(o, "windex_dispatch_retries_total {dispatch_retries}");
    family(
        &mut o,
        "windex_retries_exhausted",
        "counter",
        "Batches abandoned after the retry budget or attempt cap ran out.",
    );
    let _ = writeln!(o, "windex_retries_exhausted_total {retries_exhausted}");
    family(
        &mut o,
        "windex_retry_tokens",
        "gauge",
        "Retry-budget tokens remaining at trace end.",
    );
    let _ = writeln!(o, "windex_retry_tokens {}", report.retry.tokens_remaining);
    family(
        &mut o,
        "windex_retry_backoff_seconds",
        "gauge",
        "Total virtual time spent in retry backoff over this trace.",
    );
    let _ = writeln!(o, "windex_retry_backoff_seconds {}", report.retry.backoff_s);
    family(
        &mut o,
        "windex_device_loss_recoveries",
        "counter",
        "Device-loss events recovered by rebuilding device state.",
    );
    let _ = writeln!(o, "windex_device_loss_recoveries_total {loss_recoveries}");
    family(
        &mut o,
        "windex_device_loss_mttr_seconds",
        "gauge",
        "Total virtual mean-time-to-recovery across device losses.",
    );
    let _ = writeln!(o, "windex_device_loss_mttr_seconds {mttr_sum_s}");
    family(
        &mut o,
        "windex_slo_availability",
        "gauge",
        "Fraction of submitted requests answered (not shed).",
    );
    let _ = writeln!(o, "windex_slo_availability {}", report.slo.availability);
    family(
        &mut o,
        "windex_slo_goodput_rps",
        "gauge",
        "Requests answered within the deadline budget per virtual second.",
    );
    let _ = writeln!(o, "windex_slo_goodput_rps {}", report.slo.goodput_rps);
    family(
        &mut o,
        "windex_slo_p99_seconds",
        "gauge",
        "p99 latency over answered requests, in virtual seconds.",
    );
    let _ = writeln!(o, "windex_slo_p99_seconds {}", report.slo.p99_s);

    // Per-stage latency attribution from the span trees.
    stage_families(&mut o, "windex", &report.stages, &report.traces);

    // Capacity and utilization gauges.
    family(
        &mut o,
        "windex_configured_window_tuples",
        "gauge",
        "Shared-window capacity as configured.",
    );
    let _ = writeln!(
        o,
        "windex_configured_window_tuples {}",
        report.configured_window_tuples
    );
    family(
        &mut o,
        "windex_effective_window_tuples",
        "gauge",
        "Shared-window capacity after degradation, at trace end.",
    );
    let _ = writeln!(
        o,
        "windex_effective_window_tuples {}",
        report.effective_window_tuples
    );
    family(
        &mut o,
        "windex_max_queue_depth_keys",
        "gauge",
        "Largest queued-key backlog observed at any admission.",
    );
    let _ = writeln!(
        o,
        "windex_max_queue_depth_keys {}",
        report.max_queue_depth_keys
    );
    family(
        &mut o,
        "windex_mean_batch_keys",
        "gauge",
        "Mean keys per dispatched window.",
    );
    let _ = writeln!(o, "windex_mean_batch_keys {}", report.mean_batch_keys);
    family(
        &mut o,
        "windex_virtual_makespan_seconds",
        "gauge",
        "Virtual time from first arrival to last response.",
    );
    let _ = writeln!(
        o,
        "windex_virtual_makespan_seconds {}",
        report.virtual_makespan_s
    );

    o.push_str("# EOF\n");
    o
}

/// Render a [`ClusterReport`] as an OpenMetrics text snapshot (ending in
/// `# EOF`). Per-GPU series carry a `gpu` label and render in ascending
/// GPU-id order; like [`render_openmetrics`], the same report always
/// renders byte-identically.
pub fn render_cluster_openmetrics(report: &ClusterReport) -> String {
    let mut o = String::new();

    // Identity: topology, placement, link, and policy as an info gauge.
    family(&mut o, "windex_cluster", "gauge", "Cluster identity.");
    let _ = writeln!(
        o,
        "windex_cluster{{placement=\"{}\",link=\"{}\",policy=\"{}\",index=\"{:?}\"}} 1",
        escape(&report.placement),
        escape(&report.link),
        escape(&report.policy),
        report.index,
    );
    family(
        &mut o,
        "windex_cluster_gpus",
        "gauge",
        "GPU instances the cluster was built with.",
    );
    let _ = writeln!(o, "windex_cluster_gpus {}", report.gpus);
    family(
        &mut o,
        "windex_cluster_alive_gpus",
        "gauge",
        "GPU instances still alive at trace end.",
    );
    let _ = writeln!(o, "windex_cluster_alive_gpus {}", report.alive_gpus);

    // Per-GPU shard load. `per_shard` is in ascending GPU-id order.
    labelled(
        &mut o,
        "windex_shard_alive",
        "gauge",
        "Whether the shard's device was alive at trace end.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, u8::from(s.alive))),
    );
    labelled(
        &mut o,
        "windex_shard_partitions",
        "gauge",
        "Radix partitions owned by the shard at trace end.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.partitions)),
    );
    labelled(
        &mut o,
        "windex_shard_tuples",
        "gauge",
        "Tuples resident in the shard's slice at trace end.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.tuples)),
    );
    labelled(
        &mut o,
        "windex_shard_subrequests",
        "counter",
        "Sub-requests routed to the shard.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.subrequests)),
    );
    labelled(
        &mut o,
        "windex_shard_keys_probed",
        "counter",
        "Probe keys dispatched through the shard's windows.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.keys_probed)),
    );
    labelled(
        &mut o,
        "windex_shard_dispatches",
        "counter",
        "Windows the shard dispatched.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.dispatches)),
    );
    labelled(
        &mut o,
        "windex_shard_matches",
        "counter",
        "Join matches the shard produced.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.matches)),
    );
    labelled(
        &mut o,
        "windex_shard_queue_depth_keys",
        "gauge",
        "Largest queued-key backlog observed on the shard at any admission.",
        "gpu",
        report
            .per_shard
            .iter()
            .map(|s| (s.gpu, s.max_queue_depth_keys)),
    );
    labelled(
        &mut o,
        "windex_shard_busy_seconds",
        "counter",
        "Virtual time the shard spent dispatching or rebuilding.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.busy_s)),
    );
    labelled(
        &mut o,
        "windex_shard_cross_bytes",
        "counter",
        "Peer-link bytes the shard exchanged for remote-coordinator work.",
        "gpu",
        report.per_shard.iter().map(|s| (s.gpu, s.cross_bytes)),
    );

    // Cluster-level routing and traffic.
    family(
        &mut o,
        "windex_cluster_requests",
        "counter",
        "Requests submitted to the cluster.",
    );
    let _ = writeln!(o, "windex_cluster_requests_total {}", report.requests);
    family(
        &mut o,
        "windex_cluster_requests_completed",
        "counter",
        "Requests served within deadline cluster-wide.",
    );
    let _ = writeln!(
        o,
        "windex_cluster_requests_completed_total {}",
        report.completed
    );
    family(
        &mut o,
        "windex_cluster_requests_shed",
        "counter",
        "Requests shed by admission control or abandoned dispatches.",
    );
    let _ = writeln!(o, "windex_cluster_requests_shed_total {}", report.shed);
    family(
        &mut o,
        "windex_single_shard_requests",
        "counter",
        "Routed requests whose keys all landed on one shard.",
    );
    let _ = writeln!(
        o,
        "windex_single_shard_requests_total {}",
        report.single_shard_requests
    );
    family(
        &mut o,
        "windex_cross_shard_requests",
        "counter",
        "Routed requests that fanned out across two or more shards.",
    );
    let _ = writeln!(
        o,
        "windex_cross_shard_requests_total {}",
        report.cross_shard_requests
    );
    family(
        &mut o,
        "windex_cross_shard_fraction",
        "gauge",
        "Fraction of routed requests that fanned out.",
    );
    let _ = writeln!(
        o,
        "windex_cross_shard_fraction {}",
        report.cross_shard_fraction
    );
    family(
        &mut o,
        "windex_cross_shard_bytes",
        "counter",
        "Peer-link bytes moved cluster-wide (fan-out keys plus merges).",
    );
    let _ = writeln!(
        o,
        "windex_cross_shard_bytes_total {}",
        report.cross_shard_bytes
    );

    // Recovery KPIs: the cluster rungs of the degradation ladder.
    family(
        &mut o,
        "windex_cluster_failovers",
        "counter",
        "Device losses absorbed by failing over to a replica.",
    );
    let _ = writeln!(o, "windex_cluster_failovers_total {}", report.failovers);
    family(
        &mut o,
        "windex_cluster_reshards",
        "counter",
        "Device losses absorbed by re-sharding onto a survivor.",
    );
    let _ = writeln!(o, "windex_cluster_reshards_total {}", report.reshards);
    family(
        &mut o,
        "windex_cluster_recoveries",
        "counter",
        "Device losses absorbed by in-place rebuild (single-GPU rung).",
    );
    let _ = writeln!(o, "windex_cluster_recoveries_total {}", report.recoveries);
    family(
        &mut o,
        "windex_cluster_mttr_seconds",
        "gauge",
        "Summed virtual mean-time-to-recovery across recovery events.",
    );
    let _ = writeln!(o, "windex_cluster_mttr_seconds {}", report.mttr_total_s);

    // Aggregate throughput, latency, and SLO attainment.
    family(
        &mut o,
        "windex_cluster_completed_rps",
        "gauge",
        "Completed requests per virtual second, aggregate over the cluster.",
    );
    let _ = writeln!(o, "windex_cluster_completed_rps {}", report.completed_rps);
    family(
        &mut o,
        "windex_cluster_keys_per_second",
        "gauge",
        "Probed keys per virtual second, aggregate over the cluster.",
    );
    let _ = writeln!(
        o,
        "windex_cluster_keys_per_second {}",
        report.keys_per_second
    );
    histogram(
        &mut o,
        "windex_cluster_latency_seconds",
        "Request latency over served requests, in virtual seconds.",
        &report.latency_hist,
    );
    family(
        &mut o,
        "windex_cluster_slo_availability",
        "gauge",
        "Fraction of submitted requests answered (not shed), cluster-wide.",
    );
    let _ = writeln!(
        o,
        "windex_cluster_slo_availability {}",
        report.slo.availability
    );

    // Per-stage latency attribution and critical-path shard counts from
    // the span trees.
    stage_families(&mut o, "windex_cluster", &report.stages, &report.traces);
    family(
        &mut o,
        "windex_critical_leg",
        "counter",
        "Requests whose critical-path (last-delivered) leg ran on this shard.",
    );
    let mut crit = vec![0u64; report.gpus];
    for t in &report.traces {
        if let Some(i) = t.critical_leg {
            let shard = t.legs[i].shard;
            if shard < crit.len() {
                crit[shard] += 1;
            }
        }
    }
    for (g, c) in crit.iter().enumerate() {
        let _ = writeln!(o, "windex_critical_leg_total{{gpu=\"{g}\"}} {c}");
    }

    family(
        &mut o,
        "windex_cluster_virtual_makespan_seconds",
        "gauge",
        "Virtual time from first arrival to last response delivery.",
    );
    let _ = writeln!(
        o,
        "windex_cluster_virtual_makespan_seconds {}",
        report.virtual_makespan_s
    );

    o.push_str("# EOF\n");
    o
}

/// Render a [`TunedReport`] as an OpenMetrics text snapshot (ending in
/// `# EOF`). Per-tenant series render in ascending tenant-id order; like
/// the other exporters, the same report always renders byte-identically.
pub fn render_tuner_openmetrics(report: &crate::tuned::TunedReport) -> String {
    use windex_core::TuneReason;

    let mut o = String::new();

    family(&mut o, "windex_tuned", "gauge", "Tuned-server identity.");
    let _ = writeln!(o, "windex_tuned{{policy=\"{}\"}} 1", escape(&report.policy));

    // Per-tenant plan state at trace end.
    family(
        &mut o,
        "windex_tuner_strategy_info",
        "gauge",
        "Current plan per tenant (labels carry the plan; value is 1).",
    );
    for t in &report.per_tenant {
        let _ = writeln!(
            o,
            "windex_tuner_strategy_info{{tenant=\"{}\",plan=\"{}\"}} 1",
            t.tenant,
            escape(&t.final_plan)
        );
    }
    family(
        &mut o,
        "windex_tuner_window_tuples",
        "gauge",
        "Window capacity of the tenant's current plan (0 for non-windowed plans).",
    );
    for t in &report.per_tenant {
        // The window size is embedded in the plan label as `w=<n>`; parse
        // it back out so dashboards get a numeric gauge.
        let w = t
            .final_plan
            .split("w=")
            .nth(1)
            .and_then(|s| {
                s.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .unwrap_or(0);
        let _ = writeln!(
            o,
            "windex_tuner_window_tuples{{tenant=\"{}\"}} {w}",
            t.tenant
        );
    }
    labelled(
        &mut o,
        "windex_tuner_switches",
        "counter",
        "Argmin strategy switches, by tenant.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.switches)),
    );
    labelled(
        &mut o,
        "windex_tuner_explorations",
        "counter",
        "Epsilon-greedy exploration batches, by tenant.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.explorations)),
    );
    labelled(
        &mut o,
        "windex_tuner_pinned_batches",
        "counter",
        "Batches decided while degradation-pinned, by tenant.",
        "tenant",
        report
            .per_tenant
            .iter()
            .map(|t| (t.tenant, t.pinned_batches)),
    );
    labelled(
        &mut o,
        "windex_tuner_cost_error_ratio",
        "gauge",
        "Mean relative |estimated - realized| per-key cost error, by tenant.",
        "tenant",
        report
            .per_tenant
            .iter()
            .map(|t| (t.tenant, t.est_cost_error)),
    );
    labelled(
        &mut o,
        "windex_tuner_tenant_busy_seconds",
        "counter",
        "Virtual device time spent on the tenant's dispatches.",
        "tenant",
        report.per_tenant.iter().map(|t| (t.tenant, t.busy_s)),
    );

    // Decision-stream counters (pin/unpin are events, not per-tenant state).
    let pins = report
        .tune_events
        .iter()
        .filter(|e| e.event.reason == TuneReason::Pinned)
        .count();
    family(
        &mut o,
        "windex_tuner_pins",
        "counter",
        "Degradation pins applied across all tenants.",
    );
    let _ = writeln!(o, "windex_tuner_pins_total {pins}");

    // Aggregates.
    family(
        &mut o,
        "windex_tuner_requests_completed",
        "counter",
        "Requests completed across all tenants.",
    );
    let _ = writeln!(
        o,
        "windex_tuner_requests_completed_total {}",
        report.completed
    );
    family(
        &mut o,
        "windex_tuner_batches",
        "counter",
        "Batches dispatched across all tenants.",
    );
    let _ = writeln!(o, "windex_tuner_batches_total {}", report.batches);
    family(
        &mut o,
        "windex_tuner_aggregate_qps",
        "gauge",
        "Completed requests per busy virtual second.",
    );
    let _ = writeln!(o, "windex_tuner_aggregate_qps {}", report.aggregate_qps);
    family(
        &mut o,
        "windex_tuner_keys_per_second",
        "gauge",
        "Probed keys per busy virtual second.",
    );
    let _ = writeln!(o, "windex_tuner_keys_per_second {}", report.keys_per_second);
    family(
        &mut o,
        "windex_tuner_busy_seconds",
        "gauge",
        "Virtual device time spent executing dispatches.",
    );
    let _ = writeln!(o, "windex_tuner_busy_seconds {}", report.busy_s);
    family(
        &mut o,
        "windex_tuner_virtual_makespan_seconds",
        "gauge",
        "Virtual time from trace start to the last completion.",
    );
    let _ = writeln!(
        o,
        "windex_tuner_virtual_makespan_seconds {}",
        report.virtual_makespan_s
    );

    // Latency histogram over completed requests.
    histogram(
        &mut o,
        "windex_tuner_latency_seconds",
        "Request latency over completed requests, in virtual seconds.",
        &report.latency_hist,
    );

    // Per-stage latency attribution from the span trees.
    stage_families(&mut o, "windex_tuner", &report.stages, &report.traces);

    o.push_str("# EOF\n");
    o
}

/// Render a tenant-parallel outcome as an OpenMetrics text snapshot
/// (ending in `# EOF`). Lane series carry a `tenant` label and render in
/// ascending tenant-id order — the outcome's fixed merge order — so the
/// snapshot, like the outcome itself, is byte-identical for any
/// worker-thread count.
pub fn render_parallel_openmetrics(outcome: &crate::parallel::ParallelServeOutcome) -> String {
    let mut o = String::new();
    let s = &outcome.summary;

    family(
        &mut o,
        "windex_parallel",
        "gauge",
        "Tenant-parallel identity.",
    );
    let _ = writeln!(
        o,
        "windex_parallel{{mode=\"{}\",lanes=\"{}\"}} 1",
        escape(&s.mode),
        s.lanes,
    );

    // Aggregate request accounting (disjoint outcome buckets).
    family(
        &mut o,
        "windex_parallel_requests",
        "counter",
        "Requests across all tenant lanes, by outcome.",
    );
    for (outcome_label, n) in [
        ("completed", s.completed),
        ("shed", s.shed),
        ("deadline_missed", s.deadline_missed),
    ] {
        let _ = writeln!(
            o,
            "windex_parallel_requests_total{{outcome=\"{outcome_label}\"}} {n}"
        );
    }
    family(
        &mut o,
        "windex_parallel_keys_probed",
        "counter",
        "Probe keys dispatched across all tenant lanes.",
    );
    let _ = writeln!(o, "windex_parallel_keys_probed_total {}", s.keys_probed);
    family(
        &mut o,
        "windex_parallel_result_tuples",
        "counter",
        "Join matches returned across all tenant lanes.",
    );
    let _ = writeln!(o, "windex_parallel_result_tuples_total {}", s.result_tuples);

    // Makespan: lanes run concurrently in virtual time, so the aggregate
    // makespan is the slowest lane's.
    family(
        &mut o,
        "windex_parallel_makespan_seconds",
        "gauge",
        "Slowest lane's virtual makespan, in virtual seconds.",
    );
    let _ = writeln!(
        o,
        "windex_parallel_makespan_seconds {}",
        s.virtual_makespan_s
    );

    // Per-lane accounting, ascending tenant id (the fixed merge order).
    labelled(
        &mut o,
        "windex_parallel_lane_requests",
        "counter",
        "Requests served by each tenant lane.",
        "tenant",
        outcome
            .lanes
            .iter()
            .map(|lane| (lane.tenant, lane.requests)),
    );
    labelled(
        &mut o,
        "windex_parallel_lane_completed",
        "counter",
        "Requests completed by each tenant lane.",
        "tenant",
        outcome
            .lanes
            .iter()
            .map(|lane| (lane.tenant, lane.report.completed)),
    );
    labelled(
        &mut o,
        "windex_parallel_lane_makespan_seconds",
        "gauge",
        "Each tenant lane's virtual makespan.",
        "tenant",
        outcome
            .lanes
            .iter()
            .map(|lane| (lane.tenant, lane.report.virtual_makespan_s)),
    );

    // Merged latency histogram over all non-shed requests, all lanes.
    histogram(
        &mut o,
        "windex_parallel_latency_seconds",
        "Request latency over served requests, all lanes, in virtual seconds.",
        &s.latency_hist,
    );

    o.push_str("# EOF\n");
    o
}

/// Write a family's `# HELP` / `# TYPE` header.
fn family(o: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(o, "# HELP {name} {help}");
    let _ = writeln!(o, "# TYPE {name} {kind}");
}

/// Write a family with one sample per `(label value, value)` row under
/// `label`; counter samples take the `_total` suffix.
fn labelled<L: Display, V: Display>(
    o: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    label: &str,
    rows: impl Iterator<Item = (L, V)>,
) {
    family(o, name, kind, help);
    let suffix = if kind == "counter" { "_total" } else { "" };
    for (l, v) in rows {
        let _ = writeln!(o, "{name}{suffix}{{{label}=\"{l}\"}} {v}");
    }
}

/// Write a latency histogram family: cumulative `le` buckets, then the
/// `+Inf` bucket, count, and sum.
fn histogram(o: &mut String, name: &str, help: &str, h: &LatencyHistogram) {
    family(o, name, "histogram", help);
    for (bound, cum) in h.bounds_s.iter().zip(&h.cumulative()) {
        let _ = writeln!(o, "{name}_bucket{{le=\"{bound}\"}} {cum}");
    }
    let _ = writeln!(o, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(o, "{name}_count {}", h.count);
    let _ = writeln!(o, "{name}_sum {}", h.sum_s);
}

/// Escape a label value per the OpenMetrics text format.
fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{LatencyHistogram, LatencyStats, TenantLoad};
    use crate::resilience::{BreakerReport, BreakerState, RetryReport, SloReport, TenantBreaker};
    use windex_core::WindowStats;
    use windex_index::IndexKind;
    use windex_sim::Counters;

    fn report() -> ServerReport {
        ServerReport {
            policy: "shared(max_delay=200us)".to_string(),
            index: IndexKind::RadixSpline,
            tenants: 2,
            requests: 10,
            completed: 8,
            shed: 1,
            deadline_missed: 1,
            result_tuples: 42,
            keys_probed: 640,
            window: WindowStats {
                windows: 5,
                matches: 42,
            },
            mean_batch_keys: 128.0,
            configured_window_tuples: 1024,
            effective_window_tuples: 512,
            virtual_makespan_s: 0.25,
            completed_rps: 32.0,
            keys_per_second: 2560.0,
            latency: LatencyStats::from_samples(vec![1e-4, 2e-4, 5e-3]),
            latency_hist: LatencyHistogram::from_samples(&[1e-4, 2e-4, 5e-3]),
            per_tenant: vec![
                TenantLoad {
                    tenant: 0,
                    requests: 6,
                    completed: 5,
                    shed: 0,
                    deadline_missed: 1,
                    keys: 400,
                    matches: 30,
                },
                TenantLoad {
                    tenant: 1,
                    requests: 4,
                    completed: 3,
                    shed: 1,
                    deadline_missed: 0,
                    keys: 240,
                    matches: 12,
                },
            ],
            max_queue_depth_keys: 300,
            events: vec![
                ServeEvent::WindowShrunk {
                    from: 1024,
                    to: 512,
                },
                ServeEvent::LoadShed {
                    tenant: 1,
                    request: 7,
                    keys: 64,
                },
            ],
            counters: Counters::default(),
            retries: 3,
            phases: Default::default(),
            batches: Vec::new(),
            slo: SloReport {
                deadline_budget_s: 5e-3,
                answered: 9,
                within_budget: 8,
                availability: 0.9,
                goodput_rps: 32.0,
                good_share: 8.0 / 9.0,
                p99_s: 5e-3,
            },
            breaker: BreakerReport {
                opens: 1,
                fast_rejects: 2,
                half_open_probes: 1,
                tenants: vec![
                    TenantBreaker {
                        tenant: 0,
                        state: BreakerState::Closed,
                        opens: 0,
                        fast_rejects: 0,
                    },
                    TenantBreaker {
                        tenant: 1,
                        state: BreakerState::Open,
                        opens: 1,
                        fast_rejects: 2,
                    },
                ],
            },
            retry: RetryReport {
                attempts: 2,
                denied: 0,
                tokens_remaining: 62.5,
                backoff_s: 4.5e-4,
            },
            stages: crate::span::StageLatencyStats::default(),
            traces: Vec::new(),
            tail: crate::span::TailReport::default(),
        }
    }

    #[test]
    fn snapshot_is_terminated_and_deterministic() {
        let r = report();
        let text = render_openmetrics(&r);
        assert!(text.ends_with("# EOF\n"));
        assert_eq!(text, render_openmetrics(&r));
        // Exactly one EOF marker, at the end.
        assert_eq!(text.matches("# EOF").count(), 1);
    }

    #[test]
    fn tenant_series_are_ascending_and_complete() {
        let text = render_openmetrics(&report());
        let t0 = text.find("windex_requests_total{tenant=\"0\"} 6").unwrap();
        let t1 = text.find("windex_requests_total{tenant=\"1\"} 4").unwrap();
        assert!(t0 < t1);
        assert!(text.contains("windex_requests_shed_total{tenant=\"1\"} 1"));
        assert!(text.contains("windex_result_tuples_total{tenant=\"0\"} 30"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_to_count() {
        let text = render_openmetrics(&report());
        assert!(text.contains("windex_request_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("windex_request_latency_seconds_count 3"));
        // 1e-4 and 2e-4 are both ≤ 1e-3; 5e-3 lands in the 1e-2 bucket.
        assert!(text.contains("windex_request_latency_seconds_bucket{le=\"0.001\"} 2"));
        assert!(text.contains("windex_request_latency_seconds_bucket{le=\"0.01\"} 3"));
    }

    #[test]
    fn degradation_counters_reflect_events() {
        let text = render_openmetrics(&report());
        assert!(text.contains("windex_window_shrinks_total 1"));
        assert!(text.contains("windex_load_sheds_total 1"));
        assert!(text.contains("windex_sink_spills_total 0"));
        assert!(text.contains("windex_operator_retries_total 3"));
    }

    #[test]
    fn resilience_families_render_from_report_and_events() {
        let mut r = report();
        r.events.push(ServeEvent::DispatchRetried {
            attempt: 1,
            backoff_s: 1.5e-4,
        });
        r.events.push(ServeEvent::DispatchRetried {
            attempt: 2,
            backoff_s: 3e-4,
        });
        r.events.push(ServeEvent::CircuitShed {
            tenant: 1,
            request: 9,
        });
        r.events
            .push(ServeEvent::DeviceLossRecovered { mttr_s: 0.015 });
        let text = render_openmetrics(&r);
        assert!(text.contains("windex_circuit_state{tenant=\"0\"} 0"));
        assert!(text.contains("windex_circuit_state{tenant=\"1\"} 2"));
        assert!(text.contains("windex_circuit_opens_total 1"));
        assert!(text.contains("windex_circuit_fast_rejects_total 2"));
        assert!(text.contains("windex_circuit_sheds_total 1"));
        assert!(text.contains("windex_dispatch_retries_total 2"));
        assert!(text.contains("windex_retries_exhausted_total 0"));
        assert!(text.contains("windex_retry_tokens 62.5"));
        assert!(text.contains("windex_device_loss_recoveries_total 1"));
        assert!(text.contains("windex_device_loss_mttr_seconds 0.015"));
        assert!(text.contains("windex_slo_availability 0.9"));
        assert!(text.contains("windex_slo_p99_seconds 0.005"));
        // Still deterministic and well-terminated with the new families.
        assert_eq!(text, render_openmetrics(&r));
        assert!(text.ends_with("# EOF\n"));
    }

    fn cluster_report() -> ClusterReport {
        use crate::cluster::{ClusterEvent, ShardLoad};
        ClusterReport {
            gpus: 2,
            alive_gpus: 1,
            placement: "sharded".to_string(),
            link: "NVLink 4 peer".to_string(),
            policy: "shared(max_delay=200us)".to_string(),
            index: IndexKind::RadixSpline,
            tenants: 2,
            requests: 10,
            completed: 9,
            shed: 1,
            deadline_missed: 0,
            result_tuples: 40,
            keys_probed: 600,
            single_shard_requests: 6,
            cross_shard_requests: 3,
            cross_shard_fraction: 3.0 / 9.0,
            cross_shard_bytes: 1024,
            virtual_makespan_s: 0.125,
            completed_rps: 72.0,
            keys_per_second: 4800.0,
            latency: LatencyStats::from_samples(vec![1e-4, 2e-4]),
            latency_hist: LatencyHistogram::from_samples(&[1e-4, 2e-4]),
            per_shard: vec![
                ShardLoad {
                    gpu: 0,
                    alive: true,
                    partitions: 32,
                    tuples: 4096,
                    subrequests: 8,
                    keys_probed: 500,
                    dispatches: 4,
                    matches: 30,
                    max_queue_depth_keys: 200,
                    busy_s: 0.01,
                    cross_bytes: 768,
                },
                ShardLoad {
                    gpu: 1,
                    alive: false,
                    partitions: 0,
                    tuples: 0,
                    subrequests: 3,
                    keys_probed: 100,
                    dispatches: 1,
                    matches: 10,
                    max_queue_depth_keys: 64,
                    busy_s: 0.002,
                    cross_bytes: 256,
                },
            ],
            events: vec![ClusterEvent::ReSharded {
                gpu: 1,
                to: 0,
                partitions: 16,
                tuples: 2048,
                mttr_s: 0.004,
            }],
            failovers: 0,
            reshards: 1,
            recoveries: 0,
            mttr_total_s: 0.004,
            slo: SloReport {
                deadline_budget_s: 5e-3,
                answered: 9,
                within_budget: 9,
                availability: 0.9,
                goodput_rps: 72.0,
                good_share: 1.0,
                p99_s: 2e-4,
            },
            stages: crate::span::StageLatencyStats::default(),
            traces: Vec::new(),
            tail: crate::span::TailReport::default(),
        }
    }

    #[test]
    fn cluster_snapshot_is_terminated_and_deterministic() {
        let r = cluster_report();
        let text = render_cluster_openmetrics(&r);
        assert!(text.ends_with("# EOF\n"));
        assert_eq!(text.matches("# EOF").count(), 1);
        assert_eq!(text, render_cluster_openmetrics(&r));
    }

    #[test]
    fn cluster_per_gpu_series_render_in_gpu_order() {
        let text = render_cluster_openmetrics(&cluster_report());
        let q0 = text
            .find("windex_shard_queue_depth_keys{gpu=\"0\"} 200")
            .unwrap();
        let q1 = text
            .find("windex_shard_queue_depth_keys{gpu=\"1\"} 64")
            .unwrap();
        assert!(q0 < q1);
        assert!(text.contains("windex_shard_alive{gpu=\"1\"} 0"));
        assert!(text.contains("windex_shard_cross_bytes_total{gpu=\"0\"} 768"));
        assert!(text.contains("windex_cross_shard_bytes_total 1024"));
        assert!(text.contains("windex_cluster_failovers_total 0"));
        assert!(text.contains("windex_cluster_reshards_total 1"));
        assert!(text.contains("windex_cluster_mttr_seconds 0.004"));
    }

    #[test]
    fn cluster_sample_lines_all_have_type_headers() {
        let text = render_cluster_openmetrics(&cluster_report());
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let fam = name
                .strip_suffix("_total")
                .or_else(|| name.strip_suffix("_bucket"))
                .or_else(|| name.strip_suffix("_count"))
                .or_else(|| name.strip_suffix("_sum"))
                .unwrap_or(name);
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "no TYPE header for {name}"
            );
        }
    }

    #[test]
    fn tuner_snapshot_renders_families_deterministically() {
        use crate::trace::{generate_tenant_trace, TraceConfig};
        use crate::tuned::{TunedConfig, TunedServer};
        use windex_sim::{GpuSpec, Scale};
        use windex_workload::{KeyDistribution, Relation};

        let r = Relation::unique_sorted(1 << 13, KeyDistribution::SparseUniform, 5);
        let trace = generate_tenant_trace(
            &TraceConfig {
                requests: 8,
                min_keys: 32,
                max_keys: 128,
                offered_load_rps: 400.0,
                ..TraceConfig::default()
            },
            0,
            &r,
        );
        let mut srv = TunedServer::new(
            GpuSpec::v100_nvlink2(Scale::PAPER),
            TunedConfig::default(),
            vec![(0, r)],
            None,
        )
        .unwrap();
        let rep = srv.run(&trace).unwrap();
        let text = render_tuner_openmetrics(&rep);
        assert!(text.ends_with("# EOF\n"));
        assert_eq!(text.matches("# EOF").count(), 1);
        assert_eq!(text, render_tuner_openmetrics(&rep));
        assert!(text.contains("windex_tuner_strategy_info{tenant=\"0\",plan="));
        assert!(text.contains("windex_tuner_window_tuples{tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_switches_total{tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_cost_error_ratio{tenant=\"0\"}"));
        assert!(text.contains("windex_tuner_aggregate_qps "));
        // Every sample line has a TYPE header, like the other exporters.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let fam = name
                .strip_suffix("_total")
                .or_else(|| name.strip_suffix("_bucket"))
                .or_else(|| name.strip_suffix("_count"))
                .or_else(|| name.strip_suffix("_sum"))
                .unwrap_or(name);
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "no TYPE header for {name}"
            );
        }
    }

    #[test]
    fn every_sample_line_has_a_type_header() {
        let text = render_openmetrics(&report());
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            // A sample `x_total`/`x_bucket`/`x_count`/`x_sum` belongs to
            // family `x`; plain gauges are their own family.
            let fam = name
                .strip_suffix("_total")
                .or_else(|| name.strip_suffix("_bucket"))
                .or_else(|| name.strip_suffix("_count"))
                .or_else(|| name.strip_suffix("_sum"))
                .unwrap_or(name);
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "no TYPE header for {name}"
            );
        }
    }
}
