//! Self-test of the benchmark: at tiny sizes every workload emits every
//! metric `BENCHMARK.json` declares, with its unit, in the result-line
//! format; the traced and untraced runs read the same simulated statistics;
//! and the serve oracle catches corrupted responses.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;
use windex::prelude::*;
use windex_perfbench::serve::check_responses;
use windex_perfbench::{run, Options, Outcome, Size, Workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric declared in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    };
    let out = run(&opts, &[]);
    assert!(out.correct, "{}: {:?}", workload.name(), out.errors);
    assert_eq!(out.failed, 0, "{}", workload.name());
    assert!(out.attempted >= 1);
    out
}

/// The metrics of a result line, checked for its exact top-level keys.
fn result_metrics(out: &Outcome) -> BTreeMap<String, (f64, String)> {
    let line: Value = serde_json::from_str(&out.result_json()).expect("result line parses");
    let keys: Vec<&str> = line
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    line.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

fn assert_emits(
    out: &Outcome,
    section: &str,
    workload: Workload,
) -> BTreeMap<String, (f64, String)> {
    let want = declared(section);
    let got = result_metrics(out);
    assert_eq!(got.len(), want.len(), "{}: {section}", workload.name());
    for (name, unit) in &want {
        assert!(valid_name(name), "{name}");
        let (_, got_unit) = got
            .get(name)
            .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
        assert_eq!(got_unit, unit, "{name}");
    }
    got
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let got = assert_emits(&tiny(w, false), "end_to_end", w);
        for (name, (value, _)) in got {
            assert!(value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_and_the_same_digest() {
    for w in Workload::ALL {
        let traced = tiny(w, true);
        let got = assert_emits(&traced, "per_layer", w);
        let untraced = tiny(w, false);
        assert_eq!(
            traced.method["model_digest"],
            untraced.method["model_digest"],
            "{}: tracing changed a simulated statistic",
            w.name()
        );
        assert_eq!(
            got["model.digest"].0,
            traced.method["model_digest"].parse::<f64>().unwrap()
        );
        assert!(got["bench.trace_overhead"].0 > 0.0);
        assert!(!traced.tracer.spans().is_empty());
    }
}

#[test]
fn oracle_catches_corrupted_responses() {
    let r = Relation::unique_sorted(1 << 12, KeyDistribution::Dense, 1);
    let trace = generate_trace(
        &TraceConfig {
            seed: 5,
            tenants: 4,
            requests: 64,
            min_keys: 2,
            max_keys: 8,
            offered_load_rps: 1000.0,
            deadline_s: None,
        },
        &r,
    );
    let mut gpu = Gpu::new(GpuSpec::v100_nvlink2(Scale::PAPER));
    let mut server = Server::new(&mut gpu, ServeConfig::default(), r.clone()).unwrap();
    let good = server.run(&mut gpu, &trace).unwrap().responses;
    assert_eq!(check_responses(r.keys(), &trace, &good).wrong, 0);

    type Corrupt = fn(&mut Vec<LookupResponse>);
    let corruptions: [(&str, Corrupt); 5] = [
        ("position", |x| x[3].matches[0].1 += 1),
        ("key", |x| x[3].matches[0].0 += 1),
        ("tenant", |x| x[3].tenant += 1),
        ("schedule", |x| x[3].submitted_s += 1e-6),
        ("missing", |x| {
            x.remove(3);
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = good.clone();
        corrupt(&mut bad);
        let v = check_responses(r.keys(), &trace, &bad);
        assert_eq!(v.wrong, 1, "{what}");
        assert_eq!(v.failed, 1, "{what}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "join-8g", "--seed", "x"][..],
        &["--workload", "join-8g", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_windex-perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
