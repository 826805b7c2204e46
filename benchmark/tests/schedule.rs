//! The seeded schedules: reproducible, seed-dependent, and well formed.

use iconv_api::proto::{encode_batch, parse_request, Request};
use iconv_api::{canonical_key, Work};
use iconv_benchmark::schedule::{Entry, Frame, Population, Schedule, BATCH_ITEMS, HOT_TUNE_SHAPES};

fn lines(pop: &mut Population, seed: u64, start: u64, n: usize) -> Vec<String> {
    let sched = Schedule::new(pop, seed);
    let entries = sched.entries(pop, start, n);
    entries.iter().map(|e| e.line(pop)).collect()
}

#[test]
fn a_schedule_is_byte_identical_for_one_seed_and_differs_across_seeds() {
    for make in [Population::hot, Population::explore] {
        let mut pop = make();
        let a = lines(&mut pop, 42, 0, 3000);
        assert_eq!(a, lines(&mut pop, 42, 0, 3000));
        // A fresh population interns sweep items in the same order.
        assert_eq!(a, lines(&mut make(), 42, 0, 3000));
        let b = lines(&mut pop, 7, 0, 3000);
        assert_ne!(a, b, "seeds 42 and 7 sent the same step");
        // The seed orders one fixed sample of requests.
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
        // The next step is a different sample.
        assert_ne!(a, lines(&mut pop, 42, 3000, 3000));
    }
}

fn works_of(entry: &Entry, pop: &Population) -> Vec<Work> {
    entry
        .items
        .iter()
        .map(|&id| pop.works[id as usize])
        .collect()
}

#[test]
fn every_line_parses_to_the_work_its_items_name() {
    for make in [Population::hot, Population::explore] {
        let mut pop = make();
        let entries = Schedule::new(&pop, 3).entries(&mut pop, 0, 2000);
        for e in &entries {
            let line = e.line(&pop);
            let works = match parse_request(&line).expect("schedule lines parse") {
                Request::Estimate(r) => vec![r.work],
                Request::Batch { items, .. } => items,
                other => panic!("unexpected request {other:?}"),
            };
            assert_eq!(works.len(), e.items.len(), "{line}");
            for (w, &id) in works.iter().zip(&e.items) {
                assert_eq!(canonical_key(w), pop.keys[id as usize]);
            }
            if e.frame == Frame::Batch {
                assert_eq!(line, encode_batch(None, &works_of(e, &pop), None));
                assert_eq!(e.items.len(), BATCH_ITEMS);
            }
            assert_eq!(
                e.n_lines(),
                if works.len() > 1 { works.len() + 1 } else { 1 }
            );
        }
    }
}

#[test]
fn populations_and_mixes_have_their_specified_shape() {
    let mut hot = Population::hot();
    assert_eq!(
        hot.ranked_keys(),
        1104,
        "the paper table under four estimators"
    );
    assert_eq!(hot.keys.len(), 636 + HOT_TUNE_SHAPES * 3);
    assert_eq!(hot.warm_set().len(), hot.keys.len());
    let mut explore = Population::explore();
    assert!(
        explore.keys.len() >= 3 * 16 * 1024,
        "{}",
        explore.keys.len()
    );
    assert_eq!(explore.warm_set().len(), 4096);

    let count = |pop: &mut Population, frame: Frame| {
        let entries = Schedule::new(pop, 1).entries(pop, 0, 10_000);
        entries.iter().filter(|e| e.frame == frame).count() as f64 / 100.0
    };
    let near = |got: f64, want: f64| (got - want).abs() < 1.5;
    assert!(near(count(&mut hot, Frame::Single), 80.0));
    assert!(near(count(&mut hot, Frame::Batch), 15.0));
    assert!(near(count(&mut hot, Frame::Tune), 5.0));
    assert!(near(count(&mut explore, Frame::Single), 75.0));
    assert!(near(count(&mut explore, Frame::Batch), 20.0));
    assert!(near(count(&mut explore, Frame::Sweep), 5.0));
    assert_eq!(count(&mut explore, Frame::Tune), 0.0);
}
