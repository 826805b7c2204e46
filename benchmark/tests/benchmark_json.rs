//! `BENCHMARK.json` at the repository root names exactly the metrics and
//! workloads this package reports.

use iconv_api::json::{self, Json};
use iconv_benchmark::child::repo_root;
use iconv_benchmark::metrics::{Better, Bound, END_TO_END, PER_LAYER};

fn names(v: &Json, key: &str) -> Vec<String> {
    v.as_obj().unwrap()[key]
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| m.as_obj().unwrap()["name"].as_str().unwrap().to_owned())
        .collect()
}

fn word(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let root = json::parse(&text).unwrap();
    let obj = root.as_obj().unwrap();

    assert_eq!(
        names(&root, "workloads"),
        ["hot", "explore", "routed", "offline"]
    );
    let e2e = obj["end_to_end"].as_arr().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, def) in e2e.iter().zip(END_TO_END) {
        let m = m.as_obj().unwrap();
        assert_eq!(m["name"].as_str(), Some(def.name));
        assert_eq!(m["unit"].as_str(), Some(def.unit));
        assert_eq!(m["better"].as_str(), Some(word(def.better)));
        let Bound::Rel(b) = def.bound else {
            panic!("{} needs a relative bound", def.name)
        };
        assert_eq!(m["bound"].as_f64(), Some(b));
    }
    let layers = obj["per_layer"].as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        let m = m.as_obj().unwrap();
        assert_eq!(m["name"].as_str(), Some(name));
        assert_eq!(m["unit"].as_str(), Some(unit));
        assert_eq!(m["better"].as_str(), Some(word(better)));
    }
}

#[test]
fn every_experiment_has_a_per_layer_metric() {
    let exp: Vec<String> = PER_LAYER
        .iter()
        .filter_map(|(n, ..)| n.strip_prefix("exp.")?.strip_suffix("_s"))
        .filter(|n| *n != "traces" && *n != "summary")
        .map(str::to_owned)
        .collect();
    let want: Vec<String> = iconv_bench::par::EXPERIMENTS
        .iter()
        .map(|(n, _)| (*n).to_owned())
        .collect();
    assert_eq!(exp, want);
}
