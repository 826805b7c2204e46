//! A one-second step of each serve workload against in-process servers:
//! the generator, the output checks and the ledgers end to end.

use iconv_benchmark::check::{ledger_problems, Checker};
use iconv_benchmark::gen::Conn;
use iconv_benchmark::serve::{
    oracle_keys, send_all, step, Ladder, ServeSpec, EXPLORE, HOT, ROUTED,
};
use iconv_serve::{spawn, spawn_router, RouterConfig, ServerConfig};

const RATE: u64 = 200;
const SEED: u64 = 7;

fn smoke(spec: &ServeSpec) {
    let servers: Vec<_> = (0..if spec.routed { 2 } else { 1 })
        .map(|_| {
            spawn(ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            })
            .expect("spawn served")
        })
        .collect();
    let router = spec.routed.then(|| {
        spawn_router(RouterConfig {
            backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouterConfig::default()
        })
        .expect("spawn routed")
    });
    let front = match &router {
        Some(r) => r.local_addr(),
        None => servers[0].local_addr(),
    };
    let mut conn = Conn::connect(&front.to_string()).expect("connect");
    let mut pop = spec.population();
    let mut checker = Checker::default();
    let warm = pop.warm_entries(&pop.warm_set(), 64);
    send_all(&mut conn, &pop, &warm, &mut checker).expect("warm-up");

    let mut ladder = Ladder::new(&pop, SEED);
    let entries = ladder.entries(&mut pop, RATE, 1.0);
    let (s, stamps) =
        step(&mut conn, &pop, spec, RATE, &entries, &mut checker, true).expect("one-second step");
    assert_eq!(
        (s.sent, s.ok, s.failed),
        (RATE, RATE, 0),
        "{}: {s:?}",
        spec.name
    );
    assert!(stamps
        .iter()
        .all(|t| t.intended <= t.sent && t.sent <= t.first && t.first <= t.done));
    let stats = conn.stats().expect("stats");
    assert_eq!(ledger_problems(&stats), Vec::<String>::new());
    let answered = checker.answered();
    checker.verify(&pop, &oracle_keys(spec, &answered, SEED));
    assert_eq!(checker.problems, Vec::<String>::new(), "{}", spec.name);

    drop(conn);
    if let Some(r) = router {
        r.shutdown();
    }
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn hot_smoke() {
    smoke(&HOT);
}

#[test]
fn explore_smoke() {
    smoke(&EXPLORE);
}

#[test]
fn routed_smoke() {
    smoke(&ROUTED);
}
