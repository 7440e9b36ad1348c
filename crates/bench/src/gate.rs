//! One declarative gate for every committed `BENCH_<target>.json` file.
//!
//! A gated target computes its bench and hands it to [`run`], which
//!
//! 1. checks the target's named invariants (these hold with or without a
//!    committed file);
//! 2. diffs the fresh JSON tree against the committed copy at the repo
//!    root under the target's [`Spec`] — or, on a `--record` run,
//!    overwrites the committed copy with the fresh one instead;
//! 3. writes the fresh copy into the output directory.
//!
//! A spec lists only the exceptions. Every leaf it does not name, and
//! every field or array element present on one side only, must match the
//! committed file exactly; a named path gets a [`Band`]. Paths are dotted
//! object keys with `[]` for array elements, e.g. `scenarios[].p99_s`. A
//! missing committed file is an error: record one with `--record`.

use crate::config::ExpConfig;
use serde::Serialize;
use serde_json::Value;

/// How far a fresh value may sit from its committed counterpart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Band {
    /// `|fresh − committed| ≤ tol · |committed|`; a committed 0 must stay 0.
    Rel(f64),
    /// `|fresh − committed| ≤ tol`.
    Abs(f64),
    /// `fresh ≥ r · committed`: a floor with no ceiling.
    MinRatio(f64),
    /// Not compared: machine-dependent, or covered by an invariant.
    Ignore,
}

/// An array whose elements are identified by key fields. The keys fix the
/// array's order: element `i` must carry the same key on both sides.
pub(crate) struct Keyed {
    /// The array's field name in the report's top-level object.
    pub(crate) path: &'static str,
    /// Fields that identify an element.
    pub(crate) key: &'static [&'static str],
    /// What the success note counts the elements as, e.g. `"scenarios"`.
    pub(crate) noun: &'static str,
}

/// A named predicate every fresh bench must satisfy.
pub(crate) type Invariant<T> = (&'static str, fn(&T) -> Result<(), String>);

/// Everything that differs between gated targets.
pub(crate) struct Spec<T: 'static> {
    /// Target name; the committed file is `BENCH_<target>.json`.
    pub(crate) target: &'static str,
    /// The schema version the committed file must declare.
    pub(crate) schema: u32,
    /// Arrays matched element-by-element on key fields.
    pub(crate) keyed: &'static [Keyed],
    /// Per-path tolerance bands; every other path is exact.
    pub(crate) bands: &'static [(&'static str, Band)],
    /// Checks that hold regardless of the committed file.
    pub(crate) invariants: &'static [Invariant<T>],
}

impl<T> Spec<T> {
    fn file(&self) -> String {
        format!("BENCH_{}.json", self.target)
    }

    fn band(&self, path: &str) -> Option<Band> {
        self.bands
            .iter()
            .find(|(p, _)| *p == path)
            .map(|&(_, band)| band)
    }
}

/// Round to 6 decimals: the canonical on-disk float form of every gated
/// report, which keeps the gate from chasing last-bit jitter from benign
/// refactors.
pub(crate) fn r6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// The canonical serialization of a report: what `BENCH_<target>.json`
/// holds, byte for byte.
pub(crate) fn to_text<T: Serialize>(report: &T) -> String {
    let mut text = serde_json::to_string_pretty(report).expect("report serializes");
    text.push('\n');
    text
}

/// The committed reference for `spec`: `None` on a `--record` run,
/// otherwise the parsed committed file, whose absence is an error.
pub(crate) fn committed<T>(spec: &Spec<T>, cfg: &ExpConfig) -> Result<Option<Value>, String> {
    if cfg.record {
        return Ok(None);
    }
    let file = spec.file();
    let text = std::fs::read_to_string(&file).map_err(|e| {
        format!(
            "cannot read committed '{file}': {e}; record it with `experiments {} --record`",
            spec.target
        )
    })?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("'{file}' is not JSON: {e}"))
}

/// Check, gate (or record) and write `fresh`. Returns the note for the
/// target's report; `Err` (→ nonzero exit) lists every violation.
pub(crate) fn run<T: Serialize>(
    spec: &Spec<T>,
    cfg: &ExpConfig,
    fresh: &T,
) -> Result<String, String> {
    let committed = committed(spec, cfg)?;
    run_against(spec, cfg, fresh, committed.as_ref())
}

/// [`run`] against an already loaded [`committed`] reference.
pub(crate) fn run_against<T: Serialize>(
    spec: &Spec<T>,
    cfg: &ExpConfig,
    fresh: &T,
    committed: Option<&Value>,
) -> Result<String, String> {
    for (name, holds) in spec.invariants {
        holds(fresh).map_err(|e| format!("{} invariant '{name}' violated: {e}", spec.target))?;
    }
    let text = to_text(fresh);
    let file = spec.file();
    let note = match committed {
        None => {
            std::fs::write(&file, &text).map_err(|e| format!("cannot record '{file}': {e}"))?;
            format!("recorded '{file}'; gate skipped")
        }
        Some(committed) => {
            // Diff the text as written, so both sides went through the
            // same float formatting and parsing.
            let fresh = serde_json::from_str(&text).expect("serialized bench parses");
            diff(spec, &fresh, committed).map_err(|v| {
                format!(
                    "{} drift vs '{file}' ({} violation(s)):\n  {}",
                    spec.target,
                    v.len(),
                    v.join("\n  ")
                )
            })?;
            format!(
                "gate: {} within tolerance of '{file}' — ok",
                summary(spec, &fresh)
            )
        }
    };
    let out = cfg.out_dir.join(&file);
    let write = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&out, text));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", out.display());
    }
    Ok(note)
}

/// What the success note says was gated, e.g. `8 scaling + 4 recovery
/// points`.
fn summary<T>(spec: &Spec<T>, fresh: &Value) -> String {
    if spec.keyed.is_empty() {
        return "all gated fields".into();
    }
    spec.keyed
        .iter()
        .map(|k| {
            let len = fresh
                .get(k.path)
                .and_then(Value::as_array)
                .map_or(0, Vec::len);
            format!("{len} {}", k.noun)
        })
        .collect::<Vec<_>>()
        .join(" + ")
}

/// Diff a fresh tree against the committed one; `Err` lists every
/// violation.
pub(crate) fn diff<T>(spec: &Spec<T>, fresh: &Value, committed: &Value) -> Result<(), Vec<String>> {
    let schema = committed.get("schema").and_then(Value::as_u64);
    if schema != Some(u64::from(spec.schema)) {
        return Err(vec![format!(
            "committed schema {} != expected v{}; re-record with `experiments {} --record`",
            committed.get("schema").unwrap_or(&Value::Null),
            spec.schema,
            spec.target
        )]);
    }
    let mut violations = Vec::new();
    walk(spec, "", "", fresh, committed, &mut violations);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

fn child(parent: &str, key: &str) -> String {
    if parent.is_empty() {
        key.to_string()
    } else {
        format!("{parent}.{key}")
    }
}

/// An element's key values joined by `/`, e.g. `nvlink4_peer/8`.
fn key_of(v: &Value, fields: &[&str]) -> String {
    fields
        .iter()
        .map(|f| match v.get(f) {
            Some(Value::String(s)) => s.clone(),
            Some(other) => other.to_string(),
            None => "?".into(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

/// Compare `fresh` with `committed` at spec path `path`; `at` names the
/// location in messages (array elements by key or index).
fn walk<T>(
    spec: &Spec<T>,
    path: &str,
    at: &str,
    fresh: &Value,
    committed: &Value,
    out: &mut Vec<String>,
) {
    if let Some(band) = spec.band(path) {
        if !within(band, fresh, committed) {
            out.push(format!(
                "{at}: committed {committed}, fresh {fresh} (outside {band:?})"
            ));
        }
        return;
    }
    match (fresh, committed) {
        (Value::Object(f), Value::Object(c)) => {
            let extra = f.iter().filter(|(k, _)| committed.get(k).is_none());
            for (key, _) in c.iter().chain(extra) {
                let (p, a) = (child(path, key), child(at, key));
                match (fresh.get(key), committed.get(key)) {
                    (Some(fv), Some(cv)) => walk(spec, &p, &a, fv, cv, out),
                    _ if spec.band(&p) == Some(Band::Ignore) => {}
                    (None, _) => out.push(format!("{a}: missing from the fresh run")),
                    (_, None) => out.push(format!("{a}: not in the committed file")),
                }
            }
        }
        (Value::Array(f), Value::Array(c)) => {
            if f.len() != c.len() {
                out.push(format!(
                    "{at}: committed {} elements, fresh {}",
                    c.len(),
                    f.len()
                ));
            }
            let keyed = spec.keyed.iter().find(|k| k.path == path);
            let elem = format!("{path}[]");
            for (i, (fv, cv)) in f.iter().zip(c).enumerate() {
                let label = match keyed {
                    None => i.to_string(),
                    Some(k) => {
                        let (fk, ck) = (key_of(fv, k.key), key_of(cv, k.key));
                        if fk != ck {
                            out.push(format!(
                                "{at}[{i}]: committed key {ck}, fresh key {fk} (order changed)"
                            ));
                            continue;
                        }
                        ck
                    }
                };
                walk(spec, &elem, &format!("{at}[{label}]"), fv, cv, out);
            }
        }
        _ => {
            if fresh != committed {
                out.push(format!(
                    "{at}: committed {committed}, fresh {fresh} (exact)"
                ));
            }
        }
    }
}

/// Whether `fresh` is inside `band` around `committed`.
fn within(band: Band, fresh: &Value, committed: &Value) -> bool {
    let (Some(f), Some(c)) = (fresh.as_f64(), committed.as_f64()) else {
        return band == Band::Ignore;
    };
    match band {
        Band::Rel(_) if c == 0.0 => f == 0.0,
        Band::Rel(tol) => ((f - c) / c).abs() <= tol,
        Band::Abs(tol) => (f - c).abs() <= tol,
        Band::MinRatio(r) => f >= r * c,
        Band::Ignore => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{baseline, chaos, cluster, requests, simperf, tuner};

    /// Call `f` on every node the gate compares as a unit — scalars, and
    /// subtrees the spec bands — with its spec path.
    fn visit<T>(spec: &Spec<T>, v: &mut Value, path: &str, f: &mut dyn FnMut(&str, &mut Value)) {
        match v {
            _ if spec.band(path).is_some() => f(path, v),
            Value::Object(fields) => {
                for (k, field) in fields {
                    visit(spec, field, &child(path, k), f);
                }
            }
            Value::Array(items) => {
                for item in items {
                    visit(spec, item, &format!("{path}[]"), f);
                }
            }
            _ => f(path, v),
        }
    }

    fn field_mut<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
        let Value::Object(fields) = v else {
            panic!("not an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1
    }

    fn fields_mut(v: &mut Value) -> &mut Vec<(String, Value)> {
        let Value::Object(fields) = v else {
            panic!("not an object")
        };
        fields
    }

    /// Carry a committed file over its spec: the band table is the one
    /// the hand-written gates used, the file accepts itself, each band
    /// accepts a value just inside it and rejects one just outside, every
    /// other leaf is exact, and structural drift is rejected.
    fn carry_over<T>(spec: &Spec<T>, text: &str, bands: &[(&str, Band)]) {
        assert_eq!(spec.bands, bands, "{}: the band table moved", spec.target);
        let committed: Value = serde_json::from_str(text).expect("committed file parses");
        let accepts = |fresh: &Value| diff(spec, fresh, &committed).is_ok();
        assert!(accepts(&committed), "{}: rejects itself", spec.target);
        // `edited(f)` is the committed tree after `f` edits a clone.
        let edited = |f: &mut dyn FnMut(&mut Value)| {
            let mut v = committed.clone();
            f(&mut v);
            v
        };

        let mut nodes = Vec::new();
        visit(spec, &mut committed.clone(), "", &mut |p, v| {
            nodes.push((p.to_string(), v.clone()))
        });
        for (path, _) in spec.bands {
            let named = nodes.iter().any(|(p, _)| p == path);
            assert!(named, "{}: band path '{path}' names no field", spec.target);
        }
        for (n, (path, c)) in nodes.iter().enumerate() {
            // The committed tree with node `n` replaced by `new(node)`.
            let with = |new: &dyn Fn(&Value) -> Value| {
                let mut i = 0;
                edited(&mut |v| {
                    visit(spec, v, "", &mut |_, node| {
                        if i == n {
                            *node = new(node);
                        }
                        i += 1;
                    })
                })
            };
            let x = c.as_f64().unwrap_or(f64::NAN);
            let to = |y: f64| with(&|_| Value::from(y));
            let who = format!("{}: {path}", spec.target);
            match spec.band(path) {
                Some(Band::Rel(tol)) if x == 0.0 => {
                    assert!(!accepts(&to(tol * 1e-3)), "{who}: 0 must stay 0");
                }
                Some(Band::Rel(tol)) => {
                    for k in [0.95, -0.95] {
                        assert!(accepts(&to(x * (1.0 + k * tol))), "{who}: just inside");
                        assert!(!accepts(&to(x * (1.0 + 1.1 * k * tol))), "{who}: outside");
                    }
                }
                Some(Band::Abs(tol)) => {
                    for k in [0.95, -0.95] {
                        assert!(accepts(&to(x + k * tol)), "{who}: just inside");
                        assert!(!accepts(&to(x + 1.1 * k * tol)), "{who}: outside");
                    }
                }
                Some(Band::MinRatio(r)) => {
                    // For simperf's 0.80 floor: 0.81× passes, 0.79× fails.
                    assert!(accepts(&to(x * (r + 0.01))), "{who}: above the floor");
                    assert!(accepts(&to(x * 10.0)), "{who}: no ceiling");
                    assert!(!accepts(&to(x * (r - 0.01))), "{who}: below the floor");
                }
                Some(Band::Ignore) => {
                    assert!(accepts(&with(&|_| "changed".into())), "{who}: ignored");
                }
                None => {
                    let perturbed: Vec<Value> = match c {
                        Value::Bool(b) => vec![Value::Bool(!b)],
                        Value::String(s) => vec![format!("{s}x").into()],
                        Value::Number(n) if n.is_f64() => vec![(x + 1.0).into(), (x - 1.0).into()],
                        Value::Number(n) => {
                            let i = n.as_i64().expect("integer");
                            vec![(i + 1).into(), (i - 1).into()]
                        }
                        other => panic!("{who}: unexpected leaf {other}"),
                    };
                    for p in perturbed {
                        assert!(!accepts(&with(&|_| p.clone())), "{who}: exact");
                    }
                }
            }
        }

        // A missing gated field, an extra field, and a bumped schema.
        let gated = nodes
            .iter()
            .map(|(p, _)| p)
            .find(|p| !p.contains('[') && *p != "schema" && spec.band(p) != Some(Band::Ignore))
            .expect("a gated root field");
        let missing = edited(&mut |v| fields_mut(v).retain(|(k, _)| k != gated));
        assert!(!accepts(&missing), "{}: missing {gated}", spec.target);
        let extra = edited(&mut |v| fields_mut(v).push(("extra".into(), 1u64.into())));
        assert!(!accepts(&extra), "{}: extra field", spec.target);
        let bumped = edited(&mut |v| {
            let schema = field_mut(v, "schema");
            *schema = (schema.as_u64().expect("schema") + 1).into();
        });
        assert!(!accepts(&bumped), "{}: bumped fresh schema", spec.target);
        let err = diff(spec, &committed, &bumped).unwrap_err();
        assert!(err[0].contains("schema"), "{}: {err:?}", spec.target);

        // Reordered and shortened keyed arrays; a missing or extra field
        // in one element.
        for k in spec.keyed {
            let who = format!("{}: {}", spec.target, k.path);
            let rejects = |what: &str, edit: fn(&mut Vec<Value>)| {
                let drifted = edited(&mut |v| match field_mut(v, k.path) {
                    Value::Array(items) => edit(items),
                    _ => panic!("{who}: not an array"),
                });
                assert!(!accepts(&drifted), "{who}: {what}");
            };
            rejects("reordered", |items| items.swap(0, 1));
            rejects("shortened", |items| {
                items.pop();
            });
            rejects("element field missing", |items| {
                fields_mut(&mut items[0]).pop();
            });
            rejects("element field extra", |items| {
                fields_mut(&mut items[0]).push(("extra".into(), 1u64.into()))
            });
        }
    }

    const REL: Band = Band::Rel(0.02);
    const ABS: Band = Band::Abs(0.02);

    #[test]
    fn committed_files_carry_over_every_band() {
        carry_over(
            &baseline::GATE,
            include_str!("../../../BENCH_baseline.json"),
            &[
                ("entries[].queries_per_second", REL),
                ("entries[].translations_per_lookup", REL),
                ("entries[].tlb_misses", REL),
                ("entries[].ic_bytes_total", REL),
                ("entries[].share_partition", ABS),
                ("entries[].share_lookup", ABS),
                ("entries[].share_other", ABS),
            ],
        );
        carry_over(
            &chaos::GATE,
            include_str!("../../../BENCH_chaos.json"),
            &[
                ("scenarios[].mttr_total_s", REL),
                ("scenarios[].goodput_rps", REL),
                ("scenarios[].p99_s", REL),
                ("scenarios[].goodput_retained", REL),
            ],
        );
        carry_over(
            &cluster::GATE,
            include_str!("../../../BENCH_cluster.json"),
            &[
                ("scaling[].completed_rps", REL),
                ("scaling[].keys_per_second", REL),
                ("scaling[].speedup_vs_1gpu", REL),
                ("scaling[].virtual_makespan_s", REL),
                ("recovery[].mttr_total_s", REL),
            ],
        );
        carry_over(
            &tuner::GATE,
            include_str!("../../../BENCH_tuner.json"),
            &[
                ("tuned_speedup_vs_best_static", Band::Ignore),
                ("policies[].busy_s", REL),
                ("policies[].aggregate_qps", REL),
                ("policies[].keys_per_second", REL),
                ("policies[].p99_s", REL),
                ("policies[].est_cost_error", REL),
            ],
        );
        carry_over(
            &requests::GATE,
            include_str!("../../../BENCH_requests.json"),
            &[
                ("points[].p99_s", REL),
                ("points[].queue_p99_s", REL),
                ("points[].batch_p99_s", REL),
                ("points[].service_p99_s", REL),
                ("points[].merge_p99_s", REL),
                ("points[].other_p99_s", REL),
                ("points[].merge_share", REL),
            ],
        );
        carry_over(
            &simperf::GATE,
            include_str!("../../../BENCH_simperf.json"),
            &[
                ("accesses_per_second", Band::MinRatio(0.80)),
                ("jobs", Band::Ignore),
                ("reps", Band::Ignore),
                ("accesses", Band::Ignore),
                ("best_wall_seconds", Band::Ignore),
                ("committed_accesses_per_second", Band::Ignore),
                ("speedup_vs_committed", Band::Ignore),
                ("historical_pre_rework_matrix_seconds", Band::Ignore),
                ("serve", Band::Ignore),
            ],
        );
    }

    #[test]
    fn missing_committed_file_is_an_error() {
        // Tests run in the crate directory, which holds no BENCH_*.json.
        let err = committed(&chaos::GATE, &ExpConfig::quick()).unwrap_err();
        assert!(err.contains("--record"), "{err}");
        let record = ExpConfig {
            record: true,
            ..ExpConfig::quick()
        };
        assert_eq!(committed(&chaos::GATE, &record), Ok(None));
    }
}
