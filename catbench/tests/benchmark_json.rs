//! `BENCHMARK.json` at the repository root must declare exactly the
//! workloads and metrics the runner reports.

use fx_catbench::{Workload, END_TO_END, PER_LAYER};
use fx_json::Json;

fn manifest() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside catbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_runner() {
    let doc = manifest();
    assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|m| {
            m.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s declared");
    let largest = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end")
        .iter()
        .filter_map(|e| e.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));
}

#[test]
fn declared_workloads_match_the_runner() {
    let doc = manifest();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
}
