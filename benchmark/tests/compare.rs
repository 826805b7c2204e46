//! `compare` verdicts on synthetic parent/change pairs.

use iconv_benchmark::compare::{compare, gain, verdict, ResultFile, Verdict};
use iconv_benchmark::metrics::end_to_end_def;

const HOST: &str = r#"{"nproc":2,"cpu":"test cpu","rustc":"rustc 1.0","profile":"release"}"#;

fn file(host: &str, p50: f64, rss: f64) -> ResultFile {
    ResultFile::parse(&format!(
        r#"{{"host":{host},"git_rev":"x","kind":"run","seed":1,"seconds":20,"workloads":{{
        "hot":{{"correct":true,"attempted":10,"failed":0,"metrics":{{
            "p50_ms":{{"value":{p50},"unit":"ms"}},"rss_mb":{{"value":{rss},"unit":"MB"}}}},
            "steps":[],"notes":{{}},"problems":[]}}}}}}"#
    ))
    .expect("synthetic result file parses")
}

fn runs(base: f64, step: f64) -> Vec<f64> {
    (0..10).map(|i| base + step * f64::from(i)).collect()
}

#[test]
fn a_consistent_win_beyond_the_parent_spread_is_a_gain() {
    let def = end_to_end_def("p50_ms").unwrap();
    let parent = runs(1.00, 0.01);
    let change = runs(0.80, 0.01);
    let pairs: Vec<_> = parent.iter().copied().zip(change.iter().copied()).collect();
    assert_eq!(gain(def, &pairs), (true, 10));
    // Eight wins in ten are not enough.
    let mut mixed = pairs.clone();
    mixed[0].1 = 2.0;
    mixed[1].1 = 2.0;
    assert_eq!(gain(def, &mixed), (false, 8));
    // Ten wins by less than the parent's quartile spread are not a gain.
    let close: Vec<_> = parent.iter().map(|&p| (p, p - 0.005)).collect();
    assert_eq!(gain(def, &close), (false, 10));
}

#[test]
fn regressions_unresolved_pairs_and_clear_wins_are_told_apart() {
    let p50 = end_to_end_def("p50_ms").unwrap();
    let rss = end_to_end_def("rss_mb").unwrap();
    let mae = end_to_end_def("model_mae_pct").unwrap();
    let rps = end_to_end_def("max_rps_slo").unwrap();
    // p50 and rss may each worsen by 25%.
    assert_eq!(
        verdict(p50, &runs(1.0, 0.001), &runs(1.2, 0.001)),
        Verdict::Ok
    );
    assert_eq!(
        verdict(p50, &runs(1.0, 0.001), &runs(1.3, 0.001)),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(rss, &runs(20.0, 0.01), &runs(26.0, 0.01)),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(rss, &runs(20.0, 0.01), &runs(10.0, 0.01)),
        Verdict::Better
    );
    // A parent spread wider than the bound resolves nothing.
    assert_eq!(
        verdict(rss, &runs(20.0, 2.0), &runs(21.0, 2.0)),
        Verdict::Unresolved
    );
    // Exact metrics may not move at all.
    assert_eq!(verdict(mae, &[4.6; 10], &[4.6; 10]), Verdict::Ok);
    assert_eq!(verdict(mae, &[4.6; 10], &[4.7; 10]), Verdict::Regressed);
    // One ladder step down is within the bound; two are not.
    assert_eq!(verdict(rps, &[1500.0; 10], &[1000.0; 10]), Verdict::Ok);
    assert_eq!(
        verdict(rps, &[1500.0; 10], &[666.0; 10]),
        Verdict::Regressed
    );
}

#[test]
fn compare_reports_one_row_per_workload_and_refuses_mixed_hosts() {
    let parent: Vec<_> = (0..10)
        .map(|i| file(HOST, 1.0 + 0.01 * f64::from(i), 20.0))
        .collect();
    let change: Vec<_> = (0..10)
        .map(|i| file(HOST, 0.8 + 0.01 * f64::from(i), 20.0))
        .collect();
    let lines = compare(&parent, &change, Some(("p50_ms", "hot"))).unwrap();
    assert_eq!(lines[0], "claim p50_ms on hot: gain (10/10 pairs won)");
    assert_eq!(lines.len(), 2);
    assert!(lines[1].starts_with("hot: rss_mb Ok"), "{}", lines[1]);

    let other = HOST.replace("test cpu", "other cpu");
    let mut mixed = change.clone();
    mixed[3] = file(&other, 0.8, 20.0);
    let err = compare(&parent, &mixed, None).unwrap_err();
    assert!(err.contains("refusing to mix hosts"), "{err}");
    assert!(
        compare(&parent[..9], &change[..9], None).is_err(),
        "nine pairs"
    );
}
