//! Every pass-matrix leg (forward, wgrad, dgrad, transpose, indirect)
//! estimates through a live serve instance bit-identically to the
//! in-process source, and the server's cache counters conserve
//! (`hits + misses == requests`) across the whole multi-pass run.

use iconv_api::table::{pass_leg_works, PASS_LEGS};
use iconv_bench::serve_source::ServeSource;
use iconv_serve::{spawn, ServerConfig};
use iconv_tune::{CycleSource, InProcessSource};

#[test]
fn every_pass_leg_serves_bit_identically_and_conserves() {
    let local = InProcessSource;
    let handle = spawn(ServerConfig::default()).expect("spawn serve");
    let addr = handle.local_addr().to_string();
    let src = ServeSource::connect(&addr).expect("connect");

    for leg in PASS_LEGS {
        let works = pass_leg_works(true, leg).expect(leg);
        let expected = local.estimate_many(2, &works);
        let served = src.estimate_many(4, &works);
        assert_eq!(served.len(), expected.len(), "{leg}");
        // Whole estimates: every field, each `f64` by its bits (the
        // body renders them as IEEE-754 bit strings).
        for (i, (g, w)) in served.iter().zip(&expected).enumerate() {
            assert_eq!(g, w, "{leg}: item {i}");
            assert_eq!(g.body(), w.body(), "{leg}: item {i}");
        }
    }

    // Issue the dgrad leg a second time: everything must now be a hit.
    let dgrad = pass_leg_works(true, "dgrad").unwrap();
    let before = src.stats();
    let _ = src.estimate_many(4, &dgrad);
    let stats = src.stats();
    assert!(
        stats.hits - before.hits >= dgrad.len() as u64,
        "replayed dgrad leg must be all cache hits ({} -> {})",
        before.hits,
        stats.hits
    );
    assert_eq!(
        stats.hits + stats.misses,
        stats.requests,
        "hits + misses must equal requests after the pass sweep"
    );
    drop(src);
    handle.shutdown();
}
