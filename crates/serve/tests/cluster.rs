//! Cluster acceptance tests: routing correctness (property-tested),
//! fan-out/merge equivalence with the single-GPU server, device-loss
//! survival with availability 1.0 and finite MTTR, and byte-determinism of
//! the serialized cluster report.

use proptest::prelude::*;
use windex_join::PartitionBits;
use windex_serve::prelude::*;
use windex_sim::{ChaosKind, ChaosScenario};

fn v100() -> GpuSpec {
    GpuSpec::v100_nvlink2(Scale::PAPER)
}

fn relation(seed: u64) -> Relation {
    Relation::unique_sorted(1 << 14, KeyDistribution::SparseUniform, seed)
}

fn cluster_cfg(gpus: usize, placement_sharded: bool) -> ClusterConfig {
    let link = InterconnectSpec::nvlink4_peer();
    let cluster = if placement_sharded {
        ClusterSpec::sharded(gpus, v100(), link)
    } else {
        ClusterSpec::replicated(gpus, v100(), link)
    };
    ClusterConfig {
        serve: ServeConfig::default(),
        cluster,
    }
}

fn trace_for(r: &Relation, requests: usize, seed: u64) -> Vec<TimedRequest> {
    generate_trace(
        &TraceConfig {
            seed,
            requests,
            deadline_s: None,
            ..TraceConfig::default()
        },
        r,
    )
}

/// Canonical form of a response's matches: sorted `(key, position)` pairs.
/// Cluster merges arrive per shard, so only the set is defined — but it
/// must be exactly the single-GPU set, positions included.
fn canonical(matches: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut m = matches.to_vec();
    m.sort_unstable();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every key routes to the shard that owns its radix partition, and
    /// contiguous ownership is monotone in the key — the invariant that
    /// makes shard slices contiguous runs of sorted R.
    #[test]
    fn every_key_routes_to_its_partition_owner(
        bits in 2u32..10,
        shift in 0u32..40,
        shards in 1usize..8,
        min_key in 0u64..1_000_000,
        keys in prop_vec(any::<u64>(), 1..64),
    ) {
        let pb = PartitionBits { shift, bits };
        let shards = shards.min(pb.partitions());
        let router = ShardRouter::contiguous(pb, min_key, shards).unwrap();
        for k in keys {
            let key = min_key.saturating_add(k % (1u64 << (shift + bits).min(63)));
            let p = router.partition_of(key);
            prop_assert_eq!(router.shard_of(key), router.owner_of(p));
            prop_assert!(router.shard_of(key) < shards);
        }
        // Ownership is monotone over the partition index (contiguous runs).
        let owners: Vec<usize> = (0..pb.partitions()).map(|p| router.owner_of(p)).collect();
        prop_assert!(owners.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*owners.first().unwrap(), 0);
        prop_assert_eq!(*owners.last().unwrap(), shards - 1);
    }
}

/// Sharded keys land on the shard whose resident slice contains them: the
/// router and the constructor's slice boundaries agree on every key of R.
#[test]
fn router_agrees_with_resident_slices() {
    let r = relation(11);
    let cluster = ClusterServer::new(cluster_cfg(4, true), r.clone()).unwrap();
    let router = cluster.router();
    let keys = r.keys();
    let mut boundaries = vec![0usize];
    for shard in 0..4 {
        boundaries.push(keys.partition_point(|&k| router.shard_of(k) <= shard));
    }
    assert_eq!(boundaries[4], keys.len(), "every key owned by some shard");
    for (i, &k) in keys.iter().enumerate() {
        let s = router.shard_of(k);
        assert!(boundaries[s] <= i && i < boundaries[s + 1]);
    }
}

/// Fan-out/merge over the cluster returns exactly the single-GPU results:
/// same outcomes, same match sets, same global positions — for both a
/// sharded and a replicated 4-GPU cluster.
#[test]
fn cluster_matches_single_gpu_server() {
    let r = relation(3);
    let trace = trace_for(&r, 192, 17);

    // Force identical partition bits so probe semantics match exactly.
    let cfg4 = cluster_cfg(4, true);
    let bits = cfg4.cluster.shard_bits(&r).unwrap();
    let serve = ServeConfig {
        partition_bits: Some(bits),
        ..ServeConfig::default()
    };

    let mut gpu = Gpu::new(v100());
    let mut single = Server::new(&mut gpu, serve, r.clone()).unwrap();
    let baseline = single.run(&mut gpu, &trace).unwrap();
    assert_eq!(baseline.report.shed, 0, "baseline must shed nothing");

    for sharded in [true, false] {
        let mut cfg = cluster_cfg(4, sharded);
        cfg.serve = serve;
        let mut cluster = ClusterServer::new(cfg, r.clone()).unwrap();
        let outcome = cluster.run(&trace).unwrap();
        assert_eq!(outcome.responses.len(), baseline.responses.len());
        for (c, b) in outcome.responses.iter().zip(&baseline.responses) {
            assert_eq!(c.request, b.request);
            assert_eq!(c.outcome, b.outcome, "request {} outcome", c.request);
            assert_eq!(
                canonical(&c.matches),
                canonical(&b.matches),
                "request {} match set (sharded={sharded})",
                c.request
            );
        }
        assert_eq!(
            outcome.report.result_tuples, baseline.report.result_tuples,
            "total matches preserved (sharded={sharded})"
        );
        if sharded {
            assert!(
                outcome.report.cross_shard_requests > 0,
                "multi-key requests over 4 shards must fan out"
            );
        } else {
            assert_eq!(outcome.report.cross_shard_requests, 0);
        }
    }
}

/// Losing one specific GPU mid-trace under sharded placement: the cluster
/// re-shards the lost partitions onto an adjacent survivor, answers every
/// request (availability 1.0), and reports a finite positive MTTR.
#[test]
fn sharded_cluster_survives_targeted_device_loss() {
    let r = relation(5);
    // Enough offered load that dispatches are in flight inside the
    // DeviceLoss window [0.020 s, 0.035 s).
    let trace = generate_trace(
        &TraceConfig {
            seed: 23,
            requests: 512,
            offered_load_rps: 8_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut cluster = ClusterServer::new(cluster_cfg(4, true), r).unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 4, 1))
        .unwrap();
    let outcome = cluster.run(&trace).unwrap();
    let rep = &outcome.report;
    assert_eq!(rep.alive_gpus, 3, "exactly GPU 1 lost");
    assert!(!rep.per_shard[1].alive);
    assert!(rep.reshards >= 1, "device loss absorbed by re-sharding");
    assert_eq!(rep.failovers, 0, "sharded placement never fails over");
    assert!(
        rep.mttr_total_s.is_finite() && rep.mttr_total_s > 0.0,
        "finite positive MTTR, got {}",
        rep.mttr_total_s
    );
    assert_eq!(rep.shed, 0, "no request shed");
    assert_eq!(
        rep.slo.availability, 1.0,
        "availability 1.0 through the loss"
    );
    assert_eq!(rep.completed + rep.deadline_missed, rep.requests);
    // The survivor that absorbed the partitions now owns the lost slice.
    let absorbed: usize = rep
        .per_shard
        .iter()
        .filter(|s| s.alive)
        .map(|s| s.tuples)
        .sum();
    assert_eq!(absorbed, cluster.relation().len(), "R fully servable");
}

/// Losing GPU 0 is the hard re-shard direction: the absorbing survivor's
/// slice grows *downward* (its base offset `lo` drops to 0), and a dispatch
/// already in flight on that survivor was computed against the old slice.
/// Delivered global match positions must still be exactly the single-GPU
/// server's — the base must be the dispatch-time offset, not the post-
/// re-shard one.
#[test]
fn losing_gpu_zero_keeps_global_match_positions() {
    let r = relation(5);
    let trace = generate_trace(
        &TraceConfig {
            seed: 23,
            requests: 512,
            offered_load_rps: 8_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let cfg = cluster_cfg(4, true);
    let bits = cfg.cluster.shard_bits(&r).unwrap();
    let serve = ServeConfig {
        partition_bits: Some(bits),
        ..ServeConfig::default()
    };

    let mut gpu = Gpu::new(v100());
    let mut single = Server::new(&mut gpu, serve, r.clone()).unwrap();
    let baseline = single.run(&mut gpu, &trace).unwrap();
    assert_eq!(baseline.report.shed, 0, "baseline must shed nothing");

    let mut cfg = cluster_cfg(4, true);
    cfg.serve = serve;
    let mut cluster = ClusterServer::new(cfg, r).unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 4, 0))
        .unwrap();
    let outcome = cluster.run(&trace).unwrap();
    let rep = &outcome.report;
    assert!(!rep.per_shard[0].alive, "GPU 0 lost");
    assert!(rep.reshards >= 1, "loss absorbed by re-sharding");
    assert_eq!(rep.shed, 0);
    assert_eq!(rep.slo.availability, 1.0);
    for (c, b) in outcome.responses.iter().zip(&baseline.responses) {
        assert_eq!(c.request, b.request);
        assert_eq!(
            canonical(&c.matches),
            canonical(&b.matches),
            "request {} global match positions after losing GPU 0",
            c.request
        );
    }
}

/// Replication never shards, so a replicated cluster must construct and
/// serve relations whose key domain is too small to give every GPU a
/// partition — down to a single key — while sharded placement keeps
/// rejecting them.
#[test]
fn replicated_cluster_serves_tiny_domains() {
    for keys in [vec![42u64], vec![7, 8, 9]] {
        let r = Relation::from_keys(keys.clone(), true);
        if keys.len() == 1 {
            // A single-key domain cannot give every GPU a partition.
            assert!(
                ClusterServer::new(cluster_cfg(4, true), r.clone()).is_err(),
                "sharding still rejects a single-key domain"
            );
        }
        let mut cluster = ClusterServer::new(cluster_cfg(4, false), r).unwrap();
        let trace: Vec<TimedRequest> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| TimedRequest {
                at_s: i as f64 * 1e-3,
                request: LookupRequest {
                    tenant: 0,
                    // One hit and one miss per request.
                    keys: vec![k, k + 1_000],
                    deadline: None,
                },
            })
            .collect();
        let outcome = cluster.run(&trace).unwrap();
        assert_eq!(outcome.report.shed, 0);
        assert_eq!(outcome.report.completed, keys.len());
        for (resp, &k) in outcome.responses.iter().zip(&keys) {
            let hits: Vec<u64> = resp.matches.iter().map(|&(key, _)| key).collect();
            assert_eq!(hits, vec![k], "exactly the resident key matches");
        }
    }
}

/// The same targeted loss under replicated placement fails over to a
/// surviving replica instead of re-sharding. The failover re-stages the
/// undispatched rest of partly dispatched sub-requests on the replica, so
/// every response is also checked against the single-GPU server's match
/// set: each key must still pair with its own global position.
#[test]
fn replicated_cluster_fails_over_on_device_loss() {
    let r = relation(5);
    let trace = generate_trace(
        &TraceConfig {
            seed: 29,
            requests: 512,
            offered_load_rps: 16_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut cfg = cluster_cfg(4, false);
    cfg.serve.partition_bits = Some(cfg.cluster.replica_bits(&r).unwrap());
    // Windows smaller than most requests split sub-requests across
    // batches, so the lost replica's queue holds partly dispatched legs.
    cfg.serve.window_tuples = 32;
    let mut gpu = Gpu::new(v100());
    let baseline = Server::new(&mut gpu, cfg.serve, r.clone())
        .unwrap()
        .run(&mut gpu, &trace)
        .unwrap();
    assert_eq!(baseline.report.shed, 0, "baseline must shed nothing");
    let mut cluster = ClusterServer::new(cfg, r).unwrap();
    cluster
        .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(41, 4, 2))
        .unwrap();
    let outcome = cluster.run(&trace).unwrap();
    let rep = &outcome.report;
    assert_eq!(rep.alive_gpus, 3);
    assert!(rep.failovers >= 1, "replica absorbed the lost GPU's queue");
    assert_eq!(rep.reshards, 0, "replication never re-shards");
    assert!(rep.mttr_total_s.is_finite() && rep.mttr_total_s > 0.0);
    assert_eq!(rep.shed, 0);
    assert_eq!(rep.slo.availability, 1.0);
    assert!(rep
        .events
        .iter()
        .any(|e| matches!(e, ClusterEvent::FailedOver { gpu: 2, .. })));
    assert_eq!(outcome.responses.len(), baseline.responses.len());
    for (c, b) in outcome.responses.iter().zip(&baseline.responses) {
        assert_eq!(c.request, b.request);
        assert_eq!(
            canonical(&c.matches),
            canonical(&b.matches),
            "request {} match set after failover",
            c.request
        );
    }
}

/// The keys of `r` that `cluster` routes to `shard`.
fn keys_on(cluster: &ClusterServer, r: &Relation, shard: usize) -> Vec<u64> {
    let router = cluster.router();
    r.keys()
        .iter()
        .copied()
        .filter(|&k| router.shard_of(k) == shard)
        .collect()
}

/// `n` requests 2 ms apart, request `i` probing four keys on each shard of
/// `shards(i)`. The spacing leaves every shard idle at each arrival, so a
/// dispatch carries one request's leg and fires on its flush timer,
/// `max_delay_s` after the arrival.
fn spaced_trace(
    cluster: &ClusterServer,
    r: &Relation,
    n: usize,
    shards: impl Fn(usize) -> Vec<usize>,
) -> Vec<TimedRequest> {
    let owned: Vec<Vec<u64>> = (0..cluster.gpus())
        .map(|s| keys_on(cluster, r, s))
        .collect();
    (0..n)
        .map(|i| TimedRequest {
            at_s: 1e-3 + i as f64 * 2e-3,
            request: LookupRequest::new(
                (i % 3) as TenantId,
                shards(i)
                    .into_iter()
                    .flat_map(|s| (0..4).map(move |j| (s, i * 4 + j)))
                    .map(|(s, j)| owned[s][(j * 37) % owned[s].len()])
                    .collect(),
            ),
        })
        .collect()
}

/// Every request is answered exactly once, in id order; a shed request
/// carries no matches and every other one exactly the offline join's,
/// global positions included. (In debug builds `run` also asserts that no
/// admitted request is left in its in-flight table.)
fn assert_answered_once(r: &Relation, trace: &[TimedRequest], out: &ClusterOutcome) {
    assert_eq!(out.responses.len(), trace.len());
    for (i, (resp, t)) in out.responses.iter().zip(trace).enumerate() {
        assert_eq!(resp.request, i as u64, "one response per request");
        if resp.outcome == RequestOutcome::Shed {
            assert!(resp.matches.is_empty());
            continue;
        }
        let want: Vec<(u64, u64)> = t
            .request
            .keys
            .iter()
            .filter_map(|&k| r.keys().binary_search(&k).ok().map(|pos| (k, pos as u64)))
            .collect();
        assert_eq!(canonical(&resp.matches), canonical(&want), "request {i}");
    }
}

/// An abandoned batch holds its shard for its failed attempts and backoff,
/// and its requests are shed when they end. Each request in `shed` was
/// dispatched alone on its flush timer onto `gpu`, whose every dispatch
/// was abandoned: each must be shed strictly after that dispatch, and the
/// charges must add up to the shard's busy time. Returns the charges.
fn assert_abandon_charged(
    trace: &[TimedRequest],
    out: &ClusterOutcome,
    gpu: usize,
    shed: &[usize],
) -> Vec<f64> {
    let BatchPolicy::Shared { max_delay_s } = ServeConfig::default().policy else {
        unreachable!("the default policy batches")
    };
    let charges: Vec<f64> = shed
        .iter()
        .map(|&i| {
            let resp = &out.responses[i];
            assert_eq!(resp.outcome, RequestOutcome::Shed, "request {i}");
            let dispatched_s = trace[i].at_s + max_delay_s;
            assert!(
                resp.completed_s > dispatched_s,
                "request {i} shed at {} before its failed attempts ended (dispatch {dispatched_s})",
                resp.completed_s
            );
            resp.completed_s - dispatched_s
        })
        .collect();
    let busy_s = out.report.per_shard[gpu].busy_s;
    let charged_s: f64 = charges.iter().sum();
    assert!(
        (busy_s - charged_s).abs() <= 1e-12 * charged_s,
        "GPU {gpu} busy {busy_s} s, abandoned batches charged {charged_s} s"
    );
    charges
}

/// A link flap on GPU 1 for the whole trace under a one-retry budget:
/// every dispatch there retries once, exhausts its retries, and abandons
/// its batch. Requests with a leg on GPU 1 are shed; the others are served
/// exactly. The shed instant includes the failed attempts and the backoff.
#[test]
fn exhausted_retries_abandon_batches_and_charge_their_time() {
    let r = relation(5);
    let mut cfg = cluster_cfg(4, true);
    cfg.serve.resilience.retry = RetryConfig {
        max_attempts_per_dispatch: 1,
        ..RetryConfig::default()
    };
    let mut cluster = ClusterServer::new(cfg, r.clone()).unwrap();
    // Odd requests touch GPUs 0 and 1, even ones GPUs 0 and 2.
    let trace = spaced_trace(&cluster, &r, 24, |i| {
        vec![0, if i % 2 == 1 { 1 } else { 2 }]
    });
    let schedules = (0..4u64)
        .map(|g| match g {
            1 => ChaosSchedule::seeded(g).with_window(ChaosKind::LinkFlap, 0.0, 1.0),
            _ => ChaosSchedule::seeded(g),
        })
        .collect();
    cluster.set_chaos_schedules(schedules).unwrap();
    let out = cluster.run(&trace).unwrap();
    assert_answered_once(&r, &trace, &out);
    let odd: Vec<usize> = (1..trace.len()).step_by(2).collect();
    assert_eq!(
        out.report.shed,
        odd.len(),
        "exactly the GPU-1 requests shed"
    );
    let (mut exhausted, mut abandoned, mut backoffs) = (Vec::new(), Vec::new(), Vec::new());
    for e in &out.report.events {
        match *e {
            ClusterEvent::RetriesExhausted { gpu, .. } => exhausted.push(gpu),
            ClusterEvent::BatchAbandoned { gpu, requests, .. } => abandoned.push((gpu, requests)),
            ClusterEvent::DispatchRetried { gpu, backoff_s, .. } => backoffs.push((gpu, backoff_s)),
            _ => {}
        }
    }
    assert_eq!(exhausted, vec![1; odd.len()]);
    assert_eq!(abandoned, vec![(1, 1); odd.len()], "one request per batch");
    assert_eq!(backoffs.len(), odd.len(), "one retry per abandoned batch");
    let charges = assert_abandon_charged(&trace, &out, 1, &odd);
    for (charge, &(gpu, backoff)) in charges.iter().zip(&backoffs) {
        assert_eq!(gpu, 1);
        assert!(
            *charge > backoff,
            "charge {charge} s covers backoff {backoff} s and attempts"
        );
    }
}

/// A one-page HBM budget: the first dispatch on each GPU walks the window
/// down to its floor and still fails, and from then on every batch is
/// abandoned with the capacity ladder exhausted. Every request is shed,
/// exactly once, at the end of its batch's failed attempts.
#[test]
fn exhausted_capacity_ladder_abandons_batches_and_charges_their_time() {
    let r = relation(5);
    let mut spec = v100();
    spec.page_bytes = 4096;
    spec.hbm_bytes = 4096;
    let cfg = ClusterConfig {
        serve: ServeConfig::default(),
        cluster: ClusterSpec::sharded(2, spec, InterconnectSpec::nvlink4_peer()),
    };
    let mut cluster = ClusterServer::new(cfg, r.clone()).unwrap();
    // Single-shard requests, alternating between the two GPUs.
    let trace = spaced_trace(&cluster, &r, 16, |i| vec![i % 2]);
    let out = cluster.run(&trace).unwrap();
    assert_answered_once(&r, &trace, &out);
    assert_eq!(out.report.shed, trace.len());
    let abandoned: Vec<(usize, usize)> = out
        .report
        .events
        .iter()
        .filter_map(|e| match *e {
            ClusterEvent::BatchAbandoned { gpu, requests, .. } => Some((gpu, requests)),
            _ => None,
        })
        .collect();
    for gpu in 0..2 {
        let per_batch: Vec<usize> = abandoned
            .iter()
            .filter(|&&(g, _)| g == gpu)
            .map(|&(_, requests)| requests)
            .collect();
        assert_eq!(
            per_batch,
            vec![1; trace.len() / 2],
            "GPU {gpu} abandons every batch"
        );
        assert!(out
            .report
            .events
            .iter()
            .any(|e| matches!(e, ClusterEvent::ShardWindowShrunk { gpu: g, .. } if *g == gpu)));
        let mine: Vec<usize> = (gpu..trace.len()).step_by(2).collect();
        assert_abandon_charged(&trace, &out, gpu, &mine);
    }
    assert!(!out
        .report
        .events
        .iter()
        .any(|e| matches!(e, ClusterEvent::RetriesExhausted { .. })));
}

/// Same seed ⇒ byte-identical serialized report and identical responses,
/// across freshly built clusters — including under chaos.
#[test]
fn cluster_reports_are_byte_deterministic() {
    let r = relation(7);
    let trace = trace_for(&r, 256, 31);
    let run = |chaos: bool| {
        let mut cluster = ClusterServer::new(cluster_cfg(4, true), r.clone()).unwrap();
        if chaos {
            cluster
                .set_chaos_schedules(ChaosScenario::DeviceLoss.cluster_schedules(40, 4, 1))
                .unwrap();
        }
        let outcome = cluster.run(&trace).unwrap();
        (
            serde_json::to_string(&outcome.report).unwrap(),
            render_cluster_openmetrics(&outcome.report),
            outcome.responses,
        )
    };
    for chaos in [false, true] {
        let (a_json, a_text, a_resp) = run(chaos);
        let (b_json, b_text, b_resp) = run(chaos);
        assert_eq!(a_json, b_json, "report bytes (chaos={chaos})");
        assert_eq!(a_text, b_text, "metrics bytes (chaos={chaos})");
        assert_eq!(a_resp.len(), b_resp.len());
        for (x, y) in a_resp.iter().zip(&b_resp) {
            assert_eq!(x.matches, y.matches);
            assert_eq!(x.completed_s, y.completed_s);
        }
    }
}

/// Aggregate throughput scales: more GPUs never slow the cluster down, and
/// 8 GPUs beat 1 by a real margin under saturating load.
#[test]
fn aggregate_throughput_scales_with_gpus() {
    let r = relation(13);
    let trace = generate_trace(
        &TraceConfig {
            seed: 37,
            requests: 384,
            offered_load_rps: 50_000.0,
            deadline_s: None,
            ..TraceConfig::default()
        },
        &r,
    );
    let mut rps = Vec::new();
    for gpus in [1usize, 2, 4, 8] {
        let mut cluster = ClusterServer::new(cluster_cfg(gpus, true), r.clone()).unwrap();
        let outcome = cluster.run(&trace).unwrap();
        assert_eq!(outcome.report.shed, 0);
        rps.push(outcome.report.completed_rps);
    }
    for w in rps.windows(2) {
        assert!(
            w[1] >= w[0] * 0.99,
            "throughput must not regress with more GPUs: {rps:?}"
        );
    }
    assert!(
        rps[3] > rps[0] * 1.5,
        "8 GPUs should clearly beat 1 under saturating load: {rps:?}"
    );
}
