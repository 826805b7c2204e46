//! Step verdicts, knee and backlog selection on synthetic stamps.

use iconv_benchmark::gen::{
    intended_ns, ladder_continues, late_limit_ns, max_rps_slo, Stamp, StepSummary,
};

/// `n` requests at `rate`, request `i` taking `latency(i)` ns and sent
/// `late` ns after it was due.
fn stamps(n: u64, rate: u64, late: u64, latency: impl Fn(u64) -> Option<u64>) -> Vec<Stamp> {
    (0..n)
        .map(|i| {
            let intended = intended_ns(i, rate);
            let lat = latency(i);
            Stamp {
                intended,
                sent: intended + late,
                first: 0,
                done: intended + lat.unwrap_or(1_000_000),
                ok: lat.is_some(),
            }
        })
        .collect()
}

const MS: u64 = 1_000_000;

#[test]
fn a_fast_step_passes() {
    let s = StepSummary::new(1000, &stamps(2000, 1000, 10_000, |_| Some(MS)), 50.0);
    assert!(s.valid && s.pass, "{s:?}");
    assert_eq!((s.sent, s.ok, s.failed), (2000, 2000, 0));
    assert_eq!(s.p50_ms, 1.0);
    assert_eq!(s.p99_ms, Some(1.0));
    // Only the last request, due 1 ms before the window closes and taking
    // 1 ms, finishes on the edge; nothing is left over.
    assert_eq!(s.backlog, 0);
    assert_eq!(s.completed, 2000);
    assert_eq!(s.late_p99_us, 10.0);
}

#[test]
fn a_tail_beyond_the_slo_fails_the_step() {
    // 2% of requests take 100 ms against a 50 ms SLO.
    let slow = |i: u64| Some(if i.is_multiple_of(50) { 100 * MS } else { MS });
    let s = StepSummary::new(1000, &stamps(2000, 1000, 0, slow), 50.0);
    assert_eq!(s.p99_ms, Some(100.0));
    assert!(s.valid && !s.pass);
    // Half a percent stays under p99: the step passes.
    let rare = |i: u64| Some(if i.is_multiple_of(200) { 100 * MS } else { MS });
    assert!(StepSummary::new(1000, &stamps(2000, 1000, 0, rare), 50.0).pass);
}

#[test]
fn failures_count_as_missing_the_slo() {
    let s = StepSummary::new(
        1000,
        &stamps(2000, 1000, 0, |i| (i % 40 != 0).then_some(MS)),
        50.0,
    );
    assert_eq!(s.failed, 50);
    assert_eq!(s.p99_ms, Some(f64::INFINITY));
    assert!(!s.pass);
}

#[test]
fn backlog_and_completions_are_counted_at_the_window_edge() {
    // The last 30 of 1,000 requests at 1,000/s take 2 s: the window closes
    // at 1 s with them unfinished.
    let tail = |i: u64| Some(if i >= 970 { 2000 * MS } else { MS });
    let s = StepSummary::new(1000, &stamps(1000, 1000, 0, tail), 500.0);
    assert_eq!(s.backlog, 30);
    assert_eq!(s.completed, 970);
    // 3% short of completion: the 98% rule fails the step.
    assert!(!s.pass);
    // A backlog larger than rate × SLO fails a step whose p99 alone passes.
    let tight = |i: u64| Some(if i >= 1990 { 2 * MS } else { MS / 10 });
    let s = StepSummary::new(10_000, &stamps(2000, 10_000, 0, tight), 0.5);
    assert_eq!(s.backlog, 10);
    assert!(s.p99_ms.is_some_and(|p| p <= 0.5));
    assert!(!s.pass, "{s:?}");
}

#[test]
fn a_late_generator_invalidates_the_step() {
    let s = StepSummary::new(1000, &stamps(2000, 1000, 2 * MS, |_| Some(MS)), 50.0);
    assert!(!s.valid && !s.pass);
    // A 500 ms SLO tolerates 5 ms of lateness.
    assert_eq!(late_limit_ns(50.0), MS);
    assert_eq!(late_limit_ns(500.0), 5 * MS);
    assert!(StepSummary::new(1000, &stamps(2000, 1000, 2 * MS, |_| Some(MS)), 500.0).valid);
}

#[test]
fn the_knee_is_the_highest_passing_step_and_the_ladder_stops_after_a_failure() {
    let step = |rate: u64, pass: bool| {
        let slow = move |_| Some(if pass { MS } else { 900 * MS });
        StepSummary::new(rate, &stamps(rate * 2, rate, 0, slow), 50.0)
    };
    let ladder = [step(500, true), step(750, true), step(1125, false)];
    assert_eq!(max_rps_slo(&ladder), 750);
    assert!(ladder_continues(&ladder[..2]));
    assert!(!ladder_continues(&ladder));
    // The first two steps always run, so the nominal rate is measured
    // even when the lowest step fails.
    assert!(ladder_continues(&[step(500, false)]));
    assert!(!ladder_continues(&[step(500, false), step(750, true)]));
    assert_eq!(max_rps_slo(&[step(500, false)]), 0);
}
