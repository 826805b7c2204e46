//! The traced run: the per-layer split of each workload.
//!
//! Spans are recorded from the benchmark's own code: one span per request
//! of a repeated nominal step (intended → sent → first byte → done), and,
//! after the children exit, one span per call of an in-process replay of
//! the step's distinct requests through the public functions of each
//! layer. Spans stay in memory and are written once, as a Chrome trace
//! under `benchmark/out/`. `run` never traces.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use iconv_api::hist::bucket_bounds;
use iconv_api::proto::{finish_response, parse_request, Request, StatsSnapshot};
use iconv_api::{canonical_key, HashRing, Work};
use iconv_serve::cache::{Admission, FlightOutcome};
use iconv_serve::router::DEFAULT_VNODES;
use iconv_serve::{Body, StripedCache};

use crate::check::{ledger_problems, Checker};
use crate::child::{out_dir, Bins};
use crate::gen::{Stamp, StepSummary};
use crate::metrics::{Measured, PER_LAYER};
use crate::offline;
use crate::report::RunResult;
use crate::schedule::{sim_class, Entry, Population, SimClass};
use crate::serve::{self, oracle_keys, set_up, Fleet, Ladder, ServeSpec, HOT, NOMINAL_STEP, STEPS};
use crate::stats::nearest_rank_or_max;

/// One completed span, nanoseconds from the tracer's epoch.
struct Span {
    name: &'static str,
    start: u64,
    dur: u64,
    pid: u32,
    tid: u32,
    args: String,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer started.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span(&mut self, name: &'static str, start: u64, end: u64, pid: u32, tid: u32, args: String) {
        self.spans.push(Span {
            name,
            start,
            dur: end.saturating_sub(start),
            pid,
            tid,
            args,
        });
    }

    /// Time `f` as one span on the replay track; returns its result and
    /// the nanoseconds it took.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.span(name, t0, t1, REPLAY_PID, 1, String::new());
        (out, t1 - t0)
    }

    /// Record one request span and its three phases per stamp of a step
    /// that began `offset` ns after the tracer's epoch.
    fn requests(&mut self, offset: u64, entries: &[Entry], stamps: &[Stamp]) {
        for (i, (e, s)) in entries.iter().zip(stamps).enumerate() {
            // Eight lanes keep concurrent requests from overlapping.
            let tid = 1 + (i % 8) as u32;
            let at = |t: u64| offset + t;
            let args = format!("\"id\":{i},\"frame\":\"{:?}\",\"ok\":{}", e.frame, s.ok);
            self.span("request", at(s.intended), at(s.done), WIRE_PID, tid, args);
            self.span(
                "gen.send_delay",
                at(s.intended),
                at(s.sent),
                WIRE_PID,
                tid,
                String::new(),
            );
            self.span(
                "wait.first_byte",
                at(s.sent),
                at(s.first),
                WIRE_PID,
                tid,
                String::new(),
            );
            self.span(
                "read.rest",
                at(s.first),
                at(s.done),
                WIRE_PID,
                tid,
                String::new(),
            );
        }
    }

    /// Write the spans as Chrome-trace JSON under `benchmark/out/`.
    fn write(&self, name: &str) -> std::io::Result<PathBuf> {
        let mut s = String::with_capacity(self.spans.len() * 96 + 64);
        s.push_str("{\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                sp.name,
                sp.start as f64 / 1e3,
                sp.dur as f64 / 1e3,
                sp.pid,
                sp.tid,
                sp.args
            );
        }
        s.push_str("\n]}\n");
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Track of the per-request spans.
const WIRE_PID: u32 = 1;
/// Track of the in-process replay spans.
const REPLAY_PID: u32 = 2;

/// Per-layer metrics, all zero; a workload fills what it exercises.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|(n, ..)| (*n, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            self.0.contains_key(name),
            "undefined per-layer metric {name}"
        );
        self.0.insert(name, v);
    }

    fn into_measured(self) -> Vec<Measured> {
        PER_LAYER
            .iter()
            .map(|(n, ..)| Measured::layer(n, self.0[n]))
            .collect()
    }
}

fn p50_of(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    nearest_rank_or_max(&v, 0.5) as f64
}

fn max_of(v: &[u64]) -> f64 {
    v.iter().copied().max().unwrap_or(0) as f64
}

/// Replay the distinct requests of `entries` in-process, one call at a
/// time, through the public function of each layer, and fill the `api`,
/// `cache`, `sim`, `tune` and `router` metrics.
fn replay(pop: &Population, entries: &[Entry], tracer: &mut Tracer, layers: &mut Layers) {
    let mut seen_lines = HashSet::new();
    let mut works: BTreeMap<u32, Work> = BTreeMap::new();
    let (mut parse, mut key) = (Vec::new(), Vec::new());
    for e in entries {
        let line = e.line(pop);
        if !seen_lines.insert(line.clone()) {
            continue;
        }
        let (req, ns) = tracer.call("api.parse_request", || parse_request(&line));
        parse.push(ns);
        let parsed: Vec<Work> = match req {
            Ok(Request::Estimate(r)) => vec![r.work],
            Ok(Request::Batch { items, .. }) => items,
            other => panic!("replayed line did not parse as work: {other:?}"),
        };
        for (&id, w) in e.items.iter().zip(parsed) {
            if works.contains_key(&id) {
                continue;
            }
            let (k, ns) = tracer.call("api.canonical_key", || canonical_key(&w));
            key.push(ns);
            assert_eq!(k, pop.keys[id as usize], "replayed key differs");
            works.insert(id, w);
        }
    }
    layers.set("api.parse_ns", p50_of(&parse));
    layers.set("api.key_ns", p50_of(&key));
    let bodies = replay_sim(&works, tracer, layers);

    let encode: Vec<u64> = bodies
        .iter()
        .map(|(_, b)| {
            tracer
                .call("api.finish_response", || finish_response(None, b))
                .1
        })
        .collect();
    layers.set("api.encode_ns", p50_of(&encode));
    let key_of = |id: &u32| pop.keys[*id as usize].as_str();
    let (capacity, shards) = serve::SERVED_CACHE;
    let warm = StripedCache::new(capacity, shards);
    for (id, b) in &bodies {
        warm.insert(key_of(id).to_owned(), b.clone());
    }
    let get: Vec<u64> = bodies
        .iter()
        .map(|(id, _)| tracer.call("cache.get", || warm.get(key_of(id))).1)
        .collect();
    layers.set("cache.get_hit_ns", p50_of(&get));
    // A full cache, so every completed miss also evicts.
    let full = StripedCache::new(capacity, shards);
    for i in 0..capacity * 2 {
        full.insert(format!("filler;{i}"), Body::from(""));
    }
    let admit: Vec<u64> = bodies
        .iter()
        .map(|(id, b)| {
            tracer
                .call("cache.admit_complete", || {
                    if let Admission::Lead = full.admit(key_of(id), |_| {}) {
                        full.complete(key_of(id), &FlightOutcome::Ready(b.clone()));
                    }
                })
                .1
        })
        .collect();
    layers.set("cache.admit_complete_ns", p50_of(&admit));
    let ring = HashRing::new(2, DEFAULT_VNODES);
    let route: Vec<u64> = bodies
        .iter()
        .map(|(id, _)| tracer.call("router.route", || ring.route(key_of(id))).1)
        .collect();
    layers.set("router.route_ns", p50_of(&route));
}

/// Evaluate every work once through `engine::evaluate` and fill the `sim`
/// and `tune` metrics; returns the bodies.
fn replay_sim(
    works: &BTreeMap<u32, Work>,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Vec<(u32, Body)> {
    let mut by_class: BTreeMap<SimClass, Vec<u64>> = BTreeMap::new();
    let mut bodies = Vec::with_capacity(works.len());
    for (&id, w) in works {
        let (body, ns) = tracer.call("sim.evaluate", || iconv_serve::engine::evaluate(w));
        by_class.entry(sim_class(w)).or_default().push(ns);
        bodies.push((id, Body::from(body)));
    }
    let class = |c| by_class.get(&c).map_or(&[][..], Vec::as_slice);
    let us = |ns: f64| ns / 1e3;
    layers.set("sim.tpu_us", us(p50_of(class(SimClass::Tpu))));
    layers.set("sim.tpu_max_us", us(max_of(class(SimClass::Tpu))));
    layers.set("sim.gpu_cudnn_us", us(p50_of(class(SimClass::GpuCudnn))));
    layers.set(
        "sim.gpu_cudnn_max_us",
        us(max_of(class(SimClass::GpuCudnn))),
    );
    layers.set(
        "sim.gpu_cf_reuse_us",
        us(p50_of(class(SimClass::GpuCfReuse))),
    );
    layers.set(
        "sim.gpu_cf_reuse_max_us",
        us(max_of(class(SimClass::GpuCfReuse))),
    );
    layers.set("sim.pass_us", us(p50_of(class(SimClass::Pass))));
    layers.set("tune.search_ms", p50_of(class(SimClass::Tune)) / 1e6);
    let miss_ns: u64 = by_class
        .iter()
        .filter(|(c, _)| **c != SimClass::Tune)
        .flat_map(|(_, v)| v)
        .sum();
    layers.set("sim.miss_cost_s", miss_ns as f64 / 1e9);
    bodies
}

/// Quantile `q` of the service-time samples recorded between two `stats`
/// snapshots (bucket upper bounds, as `LatencyHist` reports them).
fn delta_quantile(before: &StatsSnapshot, after: &StatsSnapshot, q: f64) -> f64 {
    let old: BTreeMap<usize, u64> = before.service_hist.nonzero_buckets().into_iter().collect();
    let delta: Vec<(usize, u64)> = after
        .service_hist
        .nonzero_buckets()
        .into_iter()
        .map(|(i, c)| (i, c - old.get(&i).copied().unwrap_or(0)))
        .filter(|&(_, c)| c > 0)
        .collect();
    let total: u64 = delta.iter().map(|(_, c)| c).sum();
    let target = ((q * total as f64).ceil() as u64).clamp(1, total.max(1));
    let mut cum = 0;
    for (i, c) in delta {
        cum += c;
        if cum >= target {
            return bucket_bounds(i).1 as f64;
        }
    }
    0.0
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Steps 1 and 2 of the ladder on `fleet`, untraced; returns the nominal
/// step's summary.
fn ramp_to_nominal(
    fleet: &mut Fleet,
    spec: &ServeSpec,
    pop: &mut Population,
    ladder: &mut Ladder,
    rates: &[u64],
    step_s: f64,
    checker: &mut Checker,
) -> Result<StepSummary, String> {
    let mut last = None;
    for &rate in &rates[..=NOMINAL_STEP] {
        let entries = ladder.entries(pop, rate, step_s);
        let (summary, _) = serve::step(&mut fleet.conn, pop, spec, rate, &entries, checker, false)?;
        last = Some(summary);
    }
    Ok(last.expect("the ladder has a nominal step"))
}

/// The traced run of a serve workload.
pub fn serve_trace(
    spec: &ServeSpec,
    bins: &Bins,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let step_s = seconds / STEPS as f64;
    let mut pop = spec.population();
    let mut checker = Checker::default();
    let mut tracer = Tracer::default();
    let mut layers = Layers::new();
    let (mut fleet, _) = set_up(bins, spec, &mut pop, &mut checker)?;
    let mut ladder = Ladder::new(&pop, seed);
    let untraced = ramp_to_nominal(
        &mut fleet,
        spec,
        &mut pop,
        &mut ladder,
        &spec.rates,
        step_s,
        &mut checker,
    )?;
    let rate = spec.rates[NOMINAL_STEP];
    let entries = ladder.entries(&mut pop, rate, step_s);
    let before = fleet.conn.stats()?;
    let offset = tracer.now();
    let (traced, stamps) = serve::step(
        &mut fleet.conn,
        &pop,
        spec,
        rate,
        &entries,
        &mut checker,
        true,
    )?;
    let after = fleet.conn.stats()?;
    fleet.stop()?;
    tracer.requests(offset, &entries, &stamps);

    layers.set("gen.late_p99_us", traced.late_p99_us);
    layers.set("gen.sent", traced.sent as f64);
    layers.set("gen.ok", traced.ok as f64);
    layers.set("gen.failed", traced.failed as f64);
    let svc_p50 = delta_quantile(&before, &after, 0.5);
    let svc_p99 = delta_quantile(&before, &after, 0.99);
    layers.set("serve.service_p50_us", svc_p50);
    layers.set("serve.service_p99_us", svc_p99);
    let mut lat: Vec<u64> = stamps
        .iter()
        .map(|s| s.done.saturating_sub(s.intended))
        .collect();
    lat.sort_unstable();
    layers.set(
        "serve.outside_p99_us",
        nearest_rank_or_max(&lat, 0.99) as f64 / 1e3 - svc_p99,
    );
    let d = |f: fn(&StatsSnapshot) -> u64| f(&after) - f(&before);
    layers.set("serve.hit_ratio", ratio(d(|s| s.hits), d(|s| s.requests)));
    layers.set(
        "serve.evictions_per_miss",
        ratio(d(|s| s.evictions), d(|s| s.misses)),
    );
    layers.set(
        "serve.busy_share",
        ratio(
            d(|s| s.busy_rejections),
            d(|s| s.requests) + d(|s| s.busy_rejections),
        ),
    );
    layers.set(
        "serve.tune_search_share",
        ratio(d(|s| s.tune_searches), d(|s| s.tunes)),
    );
    layers.set(
        "trace.overhead_pct",
        (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms * 100.0,
    );

    let mut problems = ledger_problems(&after);
    if spec.routed {
        // The hop: the same schedule at the same rates straight into one
        // `served`, minus nothing but the router.
        let mut hot_pop = HOT.population();
        let (mut direct, _) = set_up(bins, &HOT, &mut hot_pop, &mut checker)?;
        let mut hot_ladder = Ladder::new(&hot_pop, seed);
        let hot = ramp_to_nominal(
            &mut direct,
            &HOT,
            &mut hot_pop,
            &mut hot_ladder,
            &spec.rates,
            step_s,
            &mut checker,
        )?;
        problems.extend(ledger_problems(&direct.conn.stats()?));
        direct.stop()?;
        layers.set("router.hop_p50_us", (untraced.p50_ms - hot.p50_ms) * 1e3);
    }

    replay(&pop, &entries, &mut tracer, &mut layers);
    let answered = checker.answered();
    checker.verify(&pop, &oracle_keys(spec, &answered, seed));
    problems.append(&mut checker.problems);
    let path = tracer
        .write(&format!("{}-seed{seed}", spec.name))
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(RunResult {
        workload: spec.name,
        metrics: layers.into_measured(),
        steps: Vec::new(),
        attempted: traced.sent,
        failed: traced.failed,
        problems,
        notes: vec![
            ("untraced_p50_ms".to_owned(), untraced.p50_ms.to_string()),
            ("traced_p50_ms".to_owned(), traced.p50_ms.to_string()),
            ("chrome_trace".to_owned(), path.display().to_string()),
        ],
    })
}

/// The traced run of `offline`: one timed `expall` child, then every
/// experiment in-process on one thread (also the oracle for the child's
/// stdout), the traces and summary steps, and the simulator calls behind
/// the paper table.
pub fn offline_trace(bins: &Bins) -> Result<RunResult, String> {
    let mut tracer = Tracer::default();
    let mut layers = Layers::new();
    let dir = offline::scratch_dir("offline-trace")?;
    let t0 = tracer.now();
    let child = offline::expall(bins, &dir)?;
    tracer.span("expall", t0, tracer.now(), WIRE_PID, 1, String::new());
    let _ = std::fs::remove_dir_all(&dir);
    layers.set("gen.sent", 1.0);
    layers.set("gen.ok", 1.0);

    let mut at = tracer.now();
    let runs = iconv_bench::par::run_experiments(1);
    for r in &runs {
        let dur = (r.seconds * 1e9) as u64;
        tracer.span(
            "exp",
            at,
            at + dur,
            REPLAY_PID,
            1,
            format!("\"id\":\"{}\"", r.name),
        );
        at += dur;
        let name = PER_LAYER
            .iter()
            .map(|(n, ..)| *n)
            .find(|n| *n == format!("exp.{}_s", r.name))
            .ok_or_else(|| format!("experiment {} has no per-layer metric", r.name))?;
        layers.set(name, r.seconds);
    }
    let mut problems = Vec::new();
    if offline::oracle_stdout(&runs) != child.stdout {
        problems.push("expall stdout differs from in-process run_experiments(1)".to_owned());
    }
    let (_, ns) = tracer.call("exp.traces", || iconv_bench::traces::build_traces(1));
    layers.set("exp.traces_s", ns as f64 / 1e9);
    let (_, ns) = tracer.call("exp.summary", || iconv_bench::summary::compute_jobs(1));
    layers.set("exp.summary_s", ns as f64 / 1e9);

    // The estimates `expall`'s summary and tune table make: the paper
    // table under the four estimators, plus tunes of its busiest layers.
    let pop = HOT.population();
    let works = pop
        .works
        .iter()
        .copied()
        .enumerate()
        .map(|(i, w)| (i as u32, w))
        .collect();
    replay_sim(&works, &mut tracer, &mut layers);
    let path = tracer
        .write("offline")
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(RunResult {
        workload: "offline",
        metrics: layers.into_measured(),
        steps: Vec::new(),
        attempted: 1,
        failed: 0,
        problems,
        notes: vec![
            ("chrome_trace".to_owned(), path.display().to_string()),
            ("wall_s".to_owned(), format!("{}", child.wall_s)),
        ],
    })
}
