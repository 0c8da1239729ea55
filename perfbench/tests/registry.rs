//! `BENCHMARK.json` names exactly the workloads and metrics the binary
//! emits, within the benchmark file's limits.

use scc_perf::{MetricDef, Workload, END_TO_END, PER_LAYER};
use scc_serve::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(text.trim_end()).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {obj:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn check_metrics(listed: &[Json], defs: &[MetricDef], with_bound: bool) {
    let mut want = vec!["name", "unit", "better"];
    if with_bound {
        want.push("bound");
    }
    assert_eq!(
        listed.len(),
        defs.len(),
        "metric count differs from the binary's"
    );
    for (m, d) in listed.iter().zip(defs) {
        assert_eq!(keys(m), want);
        assert_eq!(str_of(m, "name"), d.name);
        assert_eq!(str_of(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(str_of(m, "better"), d.better.as_str(), "{}", d.name);
        assert!(valid_name(d.name), "{}", d.name);
        assert!(valid_unit(d.unit), "{}", d.unit);
        if with_bound {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
    }
}

#[test]
fn benchmark_json_matches_what_the_binary_emits() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = array(&doc, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(command, ["bash", "perfbench/run.sh"]);
    let paths: Vec<&str> = array(&doc, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perfbench"]);
    let secs = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&secs));

    let workloads = array(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (w, want) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(w), ["name", "why"]);
        assert_eq!(str_of(w, "name"), want.name());
        let why = str_of(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    let e2e = array(&doc, "end_to_end");
    assert!(!e2e.is_empty() && e2e.len() <= 16);
    check_metrics(e2e, END_TO_END, true);
    let per_layer = array(&doc, "per_layer");
    assert!(!per_layer.is_empty() && per_layer.len() <= 128);
    check_metrics(per_layer, PER_LAYER, false);

    // setup_s is required, and carries the largest bound.
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    let setup = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s listed");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));

    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before, "every name is used once");
}
