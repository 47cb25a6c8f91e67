//! Toy-size smoke test: tiny sequences on 4 ranks, every workload in both
//! modes. Every metric `BENCHMARK.json` declares must be emitted, finite,
//! with the declared unit and a stated scope; and one corrupted output
//! element must show up as a failure.

use burstbench::workload::{Scale, Workload};
use burstbench::{run, Opts};
use serde_json::Value;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("section {section} missing"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn toy(workload: Workload, trace: bool, corrupt: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Toy,
        corrupt,
    }
}

#[test]
fn every_declared_metric_is_emitted_finite_with_unit_and_scope() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&toy(w, trace, false));
            assert!(
                report.correct(),
                "{} {section}: {:?}",
                w.name(),
                report.tally.errors
            );
            let line: Value = serde_json::from_str(&report.json()).expect("result line parses");
            let metrics = line.get("metrics").expect("metrics object");
            let declared = declared(section);
            assert_eq!(
                report.metrics.len(),
                declared.len(),
                "{} {section}: emits exactly the declared metrics",
                w.name()
            );
            for (name, unit) in &declared {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} {section}: `{name}` missing", w.name()));
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{} {section}: `{name}` = {value:?}",
                    w.name()
                );
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let scope = report
                    .metrics
                    .iter()
                    .find(|x| &x.name == name)
                    .map(|x| x.scope);
                assert!(
                    scope.is_some_and(|s| !s.is_empty()),
                    "`{name}` has no scope"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_output_element_is_counted_as_failed() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&toy(w, trace, true));
            assert!(
                report.failed_frac() > 0.0 && !report.correct(),
                "{} trace={trace}: corruption went unnoticed",
                w.name()
            );
        }
    }
}
