//! The serve workloads (`hot`, `explore`, `routed`): a fleet of release
//! children, a timed set-up, and an open-loop ladder of fixed rates.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use iconv_api::zipf::{mix64, GOLDEN_GAMMA};
use iconv_serve::StripedCache;

use crate::check::{ledger_problems, Checker};
use crate::child::{Bins, Child};
use crate::gen::{ladder_continues, max_rps_slo, run_step, Conn, Stamp, StepSummary};
use crate::metrics::Measured;
use crate::report::RunResult;
use crate::schedule::{sim_class, Entry, Population, Schedule, SimClass};
use crate::stats::median;

/// Steps per ladder.
pub const STEPS: usize = 5;
/// Each ladder step offers this many times the rate of the one below.
pub const STEP_RATIO: f64 = 1.5;
/// The ladder step whose latency is reported as `p50_ms` / `p99_ms`.
pub const NOMINAL_STEP: usize = 1;
/// Fleets set up per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Extra attempts at a nominal step the generator fell behind on.
pub const NOMINAL_RETRIES: u32 = 2;
/// Items per warm-up batch.
const WARM_CHUNK: usize = 64;
/// A rate at which every warm-up line is due at once.
const WARM_RATE: u64 = 1_000_000_000;
/// Cache capacity and shards `served` runs with by default.
pub(crate) const SERVED_CACHE: (usize, usize) = (16 * 1024, 16);
/// Salt of the seeded 1-in-16 `explore` oracle sample.
const ORACLE_SALT: u64 = 0x6F72_6163_6C65_7331;

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// The frozen rate ladder, requests per second, ascending.
    pub rates: [u64; STEPS],
    /// p99 latency limit, milliseconds.
    pub slo_ms: f64,
    /// Traffic goes through `routed` over two `served` backends.
    pub routed: bool,
    /// Draws from the `explore` population (else the `hot` one).
    pub explore: bool,
    /// Check one key in this many against the in-process engine.
    pub oracle_one_in: u64,
}

/// Warm hits over the paper table.
pub const HOT: ServeSpec = ServeSpec {
    name: "hot",
    rates: [10_000, 15_000, 22_500, 33_750, 50_625],
    slo_ms: 50.0,
    routed: false,
    explore: false,
    oracle_one_in: 1,
};

/// Misses, evictions and simulation over a large design space.
pub const EXPLORE: ServeSpec = ServeSpec {
    name: "explore",
    rates: [400, 600, 900, 1_350, 2_025],
    slo_ms: 500.0,
    routed: false,
    explore: true,
    oracle_one_in: 16,
};

/// The `hot` schedule through the router.
pub const ROUTED: ServeSpec = ServeSpec {
    name: "routed",
    rates: [2_700, 4_050, 6_075, 9_112, 13_669],
    slo_ms: 50.0,
    routed: true,
    explore: false,
    oracle_one_in: 1,
};

impl ServeSpec {
    /// The workload's population.
    pub fn population(&self) -> Population {
        if self.explore {
            Population::explore()
        } else {
            Population::hot()
        }
    }

    /// Entries in one step at `rate` lasting `step_s` seconds.
    pub fn step_entries(rate: u64, step_s: f64) -> usize {
        (rate as f64 * step_s).round().max(1.0) as usize
    }
}

/// Running children plus the benchmark's one connection to the front.
pub struct Fleet {
    children: Vec<Child>,
    /// The connection every request of the workload rides.
    pub conn: Conn,
}

impl Fleet {
    /// Start `served` (or two `served` behind `routed`) on ephemeral ports.
    pub fn start(bins: &Bins, routed: bool) -> Result<Self, String> {
        let local = || vec!["--addr".to_owned(), "127.0.0.1:0".to_owned()];
        let mut children = Vec::new();
        let front = if routed {
            let mut args = local();
            for i in 0..2 {
                let (child, addr) =
                    Child::spawn_server(&format!("served#{i}"), &bins.served, &local())?;
                children.push(child);
                args.extend(["--backend".to_owned(), addr]);
            }
            let (child, addr) = Child::spawn_server("routed", &bins.routed, &args)?;
            children.push(child);
            addr
        } else {
            let (child, addr) = Child::spawn_server("served", &bins.served, &local())?;
            children.push(child);
            addr
        };
        let conn = Conn::connect(&front).map_err(|e| format!("connect {front}: {e}"))?;
        Ok(Self { children, conn })
    }

    /// Peak RSS summed over the children, megabytes.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = self.children.iter().filter_map(Child::peak_rss_kb).sum();
        kb as f64 / 1024.0
    }

    /// Drain and stop every child (a router forwards the shutdown to its
    /// backends).
    pub fn stop(mut self) -> Result<(), String> {
        self.conn.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        for child in &mut self.children {
            let (status, _) = child.wait(Duration::from_secs(20))?;
            if !status.success() {
                return Err(format!("a server exited with {status}"));
            }
        }
        Ok(())
    }
}

/// Send every entry at once and wait for all answers (set-up traffic).
pub fn send_all(
    conn: &mut Conn,
    pop: &Population,
    entries: &[Entry],
    checker: &mut Checker,
) -> Result<(), String> {
    let stamps = run_step(conn, pop, WARM_RATE, entries, checker, false)
        .map_err(|e| format!("warm-up: {e}"))?;
    if stamps.iter().all(|s| s.ok) {
        Ok(())
    } else {
        Err(format!(
            "warm-up answered with errors: {:?}",
            checker.errors
        ))
    }
}

/// Start a fleet and warm it; returns the fleet and the set-up seconds
/// (spawn → listening → warm-up done).
pub fn set_up(
    bins: &Bins,
    spec: &ServeSpec,
    pop: &mut Population,
    checker: &mut Checker,
) -> Result<(Fleet, f64), String> {
    let warm = pop.warm_entries(&pop.warm_set(), WARM_CHUNK);
    let t0 = Instant::now();
    let mut fleet = Fleet::start(bins, spec.routed)?;
    send_all(&mut fleet.conn, pop, &warm, checker)?;
    Ok((fleet, t0.elapsed().as_secs_f64()))
}

/// A ladder in progress: the schedule, the next entry index, and the
/// client-side mirror of the server's cache that attributes misses.
pub struct Ladder {
    sched: Schedule,
    next: u64,
    mirror: StripedCache,
    /// Misses the mirror attributes to each estimator class.
    pub mirror_misses: BTreeMap<SimClass, u64>,
}

impl Ladder {
    /// A ladder over `pop` under `seed`, the mirror warmed like the server.
    pub fn new(pop: &Population, seed: u64) -> Self {
        let mirror = StripedCache::new(SERVED_CACHE.0, SERVED_CACHE.1);
        for id in pop.warm_set() {
            mirror.insert(pop.keys[id as usize].clone(), "".into());
        }
        Self {
            sched: Schedule::new(pop, seed),
            next: 0,
            mirror,
            mirror_misses: BTreeMap::new(),
        }
    }

    /// The next step's entries at `rate` for `step_s` seconds.
    pub fn entries(&mut self, pop: &mut Population, rate: u64, step_s: f64) -> Vec<Entry> {
        let n = ServeSpec::step_entries(rate, step_s);
        let entries = self.sched.entries(pop, self.next, n);
        self.next += n as u64;
        entries
    }

    /// Replay sent entries through the mirror cache.
    pub fn mirror(&mut self, pop: &Population, entries: &[Entry]) {
        for e in entries {
            for &id in &e.items {
                let key = &pop.keys[id as usize];
                if self.mirror.get(key).is_none() {
                    self.mirror.insert(key.clone(), "".into());
                    *self
                        .mirror_misses
                        .entry(sim_class(&pop.works[id as usize]))
                        .or_default() += 1;
                }
            }
        }
    }
}

/// Run one step and summarize it.
pub fn step(
    conn: &mut Conn,
    pop: &Population,
    spec: &ServeSpec,
    rate: u64,
    entries: &[Entry],
    checker: &mut Checker,
    traced: bool,
) -> Result<(StepSummary, Vec<Stamp>), String> {
    let stamps = run_step(conn, pop, rate, entries, checker, traced)
        .map_err(|e| format!("{} step at {rate}/s: {e}", spec.name))?;
    Ok((StepSummary::new(rate, &stamps, spec.slo_ms), stamps))
}

/// Keys the output check evaluates in-process: all of them, or a seeded
/// one in `oracle_one_in`.
pub fn oracle_keys(spec: &ServeSpec, keys: &[u32], seed: u64) -> Vec<u32> {
    keys.iter()
        .copied()
        .filter(|&k| {
            mix64((seed ^ ORACLE_SALT) ^ u64::from(k).wrapping_mul(GOLDEN_GAMMA))
                .is_multiple_of(spec.oracle_one_in)
        })
        .collect()
}

/// The untraced run: [`SETUPS`] timed set-ups, then the ladder on the
/// last fleet, then the output checks.
pub fn run(spec: &ServeSpec, bins: &Bins, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut pop = spec.population();
    let mut checker = Checker::default();
    let mut setups = Vec::new();
    let mut fleet = None;
    for i in 0..SETUPS {
        let (f, secs) = set_up(bins, spec, &mut pop, &mut checker)?;
        setups.push(secs);
        if i + 1 < SETUPS {
            f.stop()?;
        } else {
            fleet = Some(f);
        }
    }
    let mut fleet = fleet.expect("at least one set-up");
    let step_s = seconds / STEPS as f64;
    let mut ladder = Ladder::new(&pop, seed);
    let mut steps = Vec::new();
    let (mut attempted, mut failed, mut nominal_attempts, mut rss_mb) = (0, 0, 0, 0.0);
    for (k, &rate) in spec.rates.iter().enumerate() {
        let summary = loop {
            let entries = ladder.entries(&mut pop, rate, step_s);
            let (summary, _) = step(
                &mut fleet.conn,
                &pop,
                spec,
                rate,
                &entries,
                &mut checker,
                false,
            )?;
            ladder.mirror(&pop, &entries);
            attempted += summary.sent;
            failed += summary.failed;
            if k != NOMINAL_STEP {
                break summary;
            }
            // A nominal step the generator could not keep to measured the
            // host, not the server: repeat it on a fresh sample.
            nominal_attempts += 1;
            if summary.valid || nominal_attempts > NOMINAL_RETRIES {
                // Read here, so memory does not depend on how far the
                // ladder climbs.
                rss_mb = fleet.peak_rss_mb();
                break summary;
            }
        };
        steps.push(summary);
        if !ladder_continues(&steps) {
            break;
        }
    }
    let stats = fleet.conn.stats()?;
    fleet.stop()?;
    let mut problems = ledger_problems(&stats);
    let answered = checker.answered();
    checker.verify(&pop, &oracle_keys(spec, &answered, seed));
    problems.append(&mut checker.problems);

    let nominal = &steps[NOMINAL_STEP];
    let mut notes = vec![
        ("nominal_attempts".to_owned(), nominal_attempts.to_string()),
        ("realised_keys".to_owned(), answered.len().to_string()),
    ];
    let total_misses: u64 = ladder.mirror_misses.values().sum();
    for (class, n) in &ladder.mirror_misses {
        notes.push((
            format!("miss_share.{class:?}"),
            format!("{:.4}", *n as f64 / total_misses.max(1) as f64),
        ));
    }
    Ok(RunResult {
        workload: spec.name,
        metrics: vec![
            Measured::e2e("p50_ms", nominal.p50_ms),
            Measured::e2e("p99_ms", nominal.p99_ms.unwrap_or(f64::INFINITY)),
            Measured::e2e("setup_s", median(&setups)),
            Measured::e2e("rss_mb", rss_mb),
            Measured::e2e("max_rps_slo", max_rps_slo(&steps) as f64),
            Measured::e2e("err_share", failed as f64 / attempted.max(1) as f64),
        ],
        steps,
        attempted,
        failed,
        problems,
        notes,
    })
}
