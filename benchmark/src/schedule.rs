//! Request populations and the seeded open-loop schedule.
//!
//! A population is the set of distinct simulations a workload may ask
//! for, each interned once under its canonical cache key. A schedule entry
//! is one request; entry `i`'s framing and key choices are a pure function
//! of `i` (the stateless indexed-draw discipline of `iconv_api::zipf`),
//! and the seed permutes the entries of each step. So every seed sends the
//! same requests in a step, in its own order, and a step's lines are
//! byte-identical for one seed.
//!
//! Fixing the sample is deliberate. `explore`'s simulation costs are
//! heavy-tailed (a few keys cost 100 ms, most a microsecond), so a sample
//! drawn afresh per seed would let the seed, not the code under test,
//! decide how much work a step holds and where its tail lies.

use std::collections::HashMap;
use std::io::{self, Write};

use iconv_api::proto::{encode_estimate, encode_sweep, EstimateRequest};
use iconv_api::zipf::{mix64, GOLDEN_GAMMA};
use iconv_api::{
    canonical_key, stable_hash64, table, GpuHwSpec, SweepSpec, SweepTarget, TpuChip, TpuHwSpec,
    Work, ZipfSampler,
};
use iconv_core::{ConvPass, PipelineSchedule};
use iconv_gpusim::GpuAlgo;
use iconv_tensor::ConvShape;
use iconv_tpusim::SimMode;

const FRAME_SALT: u64 = 0x6265_6E63_6866_726D;
const KEY_SALT: u64 = 0x6265_6E63_686B_6579;
const PICK_SALT: u64 = 0x6265_6E63_6870_6B63;
const ORDER_SALT: u64 = 0x6265_6E63_686F_7264;
/// The seed of the request sample every run draws (see the module docs).
const SAMPLE_SEED: u64 = 42;
/// Key draws reserved per entry; a batch uses one per item.
const DRAWS_PER_ENTRY: u64 = 16;
/// Items per `batch` request.
pub const BATCH_ITEMS: usize = 8;
/// Distinct shapes whose tunes the `hot` mix asks for (× 3 targets).
pub const HOT_TUNE_SHAPES: usize = 16;
/// Keys the `explore` set-up warms, most popular first.
pub const EXPLORE_WARM_KEYS: usize = 4096;
/// Input-channel axis of every `explore` sweep.
const SWEEP_CIS: [usize; 8] = [8, 16, 32, 64, 96, 128, 192, 256];

/// How one entry is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// One `conv` estimate.
    Single,
    /// A `batch` of [`BATCH_ITEMS`] explicit items.
    Batch,
    /// A `batch` in compact sweep form.
    Sweep,
    /// One `tune` search.
    Tune,
}

/// One scheduled request. Its line is rendered from the population's
/// per-key request lines when sent, so a long step holds key ids rather
/// than hundreds of thousands of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// How the request is framed.
    pub frame: Frame,
    /// Key ids the response lines answer, in item order.
    pub items: Vec<u32>,
    /// The compact sweep line (sweeps only).
    sweep: Option<Box<str>>,
}

impl Entry {
    /// Response lines the request elicits (a batch adds its summary line).
    pub fn n_lines(&self) -> usize {
        match self.frame {
            Frame::Batch | Frame::Sweep => self.items.len() + 1,
            Frame::Single | Frame::Tune => 1,
        }
    }

    /// Write the request line, without its newline. A batch is exactly
    /// what `encode_batch` renders: the id-less item objects are the
    /// id-less single-request lines.
    pub fn write_line(&self, pop: &Population, out: &mut impl Write) -> io::Result<()> {
        match (&self.sweep, self.frame) {
            (Some(line), _) => out.write_all(line.as_bytes()),
            (None, Frame::Batch) => {
                out.write_all(b"{\"op\":\"batch\",\"items\":[")?;
                for (i, &id) in self.items.iter().enumerate() {
                    if i > 0 {
                        out.write_all(b",")?;
                    }
                    out.write_all(pop.line(id).as_bytes())?;
                }
                out.write_all(b"]}")
            }
            (None, _) => out.write_all(pop.line(self.items[0]).as_bytes()),
        }
    }

    /// The request line as a string.
    pub fn line(&self, pop: &Population) -> String {
        let mut out = Vec::new();
        self.write_line(pop, &mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("request lines are UTF-8")
    }
}

/// Framing shares, in percent, of single / batch / sweep / tune entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Single estimates.
    pub single: u64,
    /// Batches of [`BATCH_ITEMS`].
    pub batch: u64,
    /// Sweeps.
    pub sweep: u64,
    /// Tunes.
    pub tune: u64,
}

/// The distinct simulations a workload draws from, interned by canonical
/// key, plus the Zipf popularity order over them.
pub struct Population {
    /// Work per key id.
    pub works: Vec<Work>,
    /// Canonical key per key id.
    pub keys: Vec<String>,
    index: HashMap<String, u32>,
    /// Id-less single-request line per key id, rendered on first use.
    lines: Vec<Option<Box<str>>>,
    /// Zipf rank → key id (rank 0 is the most popular).
    ranks: Vec<u32>,
    /// Key ids of the tune searches the mix draws from.
    tunes: Vec<u32>,
    zipf_s: f64,
    mix: Mix,
}

impl Population {
    fn empty(zipf_s: f64, mix: Mix) -> Self {
        Self {
            works: Vec::new(),
            keys: Vec::new(),
            index: HashMap::new(),
            lines: Vec::new(),
            ranks: Vec::new(),
            tunes: Vec::new(),
            zipf_s,
            mix,
        }
    }

    /// Key id of `work`, interning it on first sight.
    fn intern(&mut self, work: Work) -> u32 {
        let key = canonical_key(&work);
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = u32::try_from(self.works.len()).expect("population fits u32 ids");
        self.index.insert(key.clone(), id);
        self.works.push(work);
        self.keys.push(key);
        self.lines.push(None);
        id
    }

    /// Render the single-request line of key `id` if it is not yet.
    fn ensure_line(&mut self, id: u32) {
        let slot = &mut self.lines[id as usize];
        if slot.is_none() {
            *slot = Some(
                encode_estimate(&EstimateRequest {
                    id: None,
                    work: self.works[id as usize],
                    deadline_ms: None,
                })
                .into(),
            );
        }
    }

    /// The id-less single-request line of key `id`.
    ///
    /// # Panics
    ///
    /// Panics if no entry holding `id` has been built.
    pub fn line(&self, id: u32) -> &str {
        self.lines[id as usize]
            .as_deref()
            .expect("entries render their keys' lines when built")
    }

    /// The `hot` population: the paper table (1,104 works over 636 keys)
    /// in table order under Zipf s = 1.1, plus tunes of its 16 most popular
    /// shapes on all three targets.
    pub fn hot() -> Self {
        let mut pop = Self::empty(
            1.1,
            Mix {
                single: 80,
                batch: 15,
                sweep: 0,
                tune: 5,
            },
        );
        let table = table::workload_works(false);
        pop.ranks = table.iter().map(|w| pop.intern(*w)).collect();
        let shapes: Vec<ConvShape> = distinct_shapes(&table)
            .into_iter()
            .take(HOT_TUNE_SHAPES)
            .collect();
        for shape in shapes {
            for target in iconv_tune::ALL_TARGETS {
                let id = pop.intern(Work::Tune { shape, target });
                pop.tunes.push(id);
            }
        }
        pop
    }

    /// The `explore` population: the paper's distinct shapes × batch 1–8 ×
    /// {forward, wgrad, dgrad} × the four standard estimators × four
    /// hardware variants per engine, under Zipf s = 0.9. The popularity
    /// order is a fixed hash order, the same for every seed.
    pub fn explore() -> Self {
        let mut pop = Self::empty(
            0.9,
            Mix {
                single: 75,
                batch: 20,
                sweep: 5,
                tune: 0,
            },
        );
        let tpu_hws = [
            TpuHwSpec::default(),
            TpuHwSpec {
                chip: TpuChip::V3,
                ..TpuHwSpec::default()
            },
            TpuHwSpec {
                array: Some(256),
                ..TpuHwSpec::default()
            },
            TpuHwSpec {
                schedule: Some(PipelineSchedule::DoubleBuffered),
                ..TpuHwSpec::default()
            },
        ];
        let gpu_hws = [
            GpuHwSpec::default(),
            GpuHwSpec {
                sms: Some(40),
                ..GpuHwSpec::default()
            },
            GpuHwSpec {
                block: Some((64, 64, 32)),
                ..GpuHwSpec::default()
            },
            GpuHwSpec {
                schedule: Some(PipelineSchedule::SingleBuffered),
                ..GpuHwSpec::default()
            },
        ];
        let passes = [ConvPass::Forward, ConvPass::Wgrad, ConvPass::Dgrad];
        for base in distinct_shapes(&table::workload_works(false)) {
            for n in 1..=8 {
                let shape = ConvShape { n, ..base };
                for pass in passes {
                    for hw in tpu_hws {
                        for mode in [SimMode::ChannelFirst, SimMode::Explicit] {
                            pop.intern(tpu_work(shape, pass, mode, hw));
                        }
                    }
                    for hw in gpu_hws {
                        for algo in [
                            GpuAlgo::CudnnImplicit,
                            GpuAlgo::ChannelFirst { reuse: true },
                        ] {
                            pop.intern(gpu_work(shape, pass, algo, hw));
                        }
                    }
                }
            }
        }
        let mut order: Vec<u32> = (0..pop.works.len() as u32).collect();
        order.sort_by_key(|&id| (stable_hash64(&pop.keys[id as usize]), id));
        pop.ranks = order;
        pop
    }

    /// Distinct keys the Zipf draw ranges over.
    pub fn ranked_keys(&self) -> usize {
        self.ranks.len()
    }

    /// Key ids the set-up warms: every key of the `hot` population, or the
    /// [`EXPLORE_WARM_KEYS`] most popular of a population without tunes.
    pub fn warm_set(&self) -> Vec<u32> {
        if self.tunes.is_empty() {
            // Explore ranks are a permutation of distinct key ids.
            self.ranks[..EXPLORE_WARM_KEYS.min(self.ranks.len())].to_vec()
        } else {
            (0..self.works.len() as u32).collect()
        }
    }

    /// The requests that warm `ids`, as batches of `chunk` items.
    pub fn warm_entries(&mut self, ids: &[u32], chunk: usize) -> Vec<Entry> {
        ids.chunks(chunk)
            .map(|part| self.batch(part.to_vec()))
            .collect()
    }

    fn batch(&mut self, items: Vec<u32>) -> Entry {
        for &id in &items {
            self.ensure_line(id);
        }
        Entry {
            frame: Frame::Batch,
            items,
            sweep: None,
        }
    }

    fn single(&mut self, id: u32, frame: Frame) -> Entry {
        self.ensure_line(id);
        Entry {
            frame,
            items: vec![id],
            sweep: None,
        }
    }
}

/// Draws entries from a population and orders them under one seed.
pub struct Schedule {
    seed: u64,
    zipf: ZipfSampler,
}

impl Schedule {
    /// A schedule over `pop` whose steps are ordered by `seed`.
    pub fn new(pop: &Population, seed: u64) -> Self {
        Self {
            seed,
            zipf: ZipfSampler::new(pop.ranks.len(), pop.zipf_s, SAMPLE_SEED ^ KEY_SALT),
        }
    }

    fn draw(&self, salt: u64, index: u64) -> u64 {
        mix64((SAMPLE_SEED ^ salt) ^ index.wrapping_mul(GOLDEN_GAMMA))
    }

    fn ranked(&self, pop: &Population, index: u64, j: u64) -> u32 {
        pop.ranks[self.zipf.rank_at(index * DRAWS_PER_ENTRY + j)]
    }

    /// Entry `index` of the sample. Sweep items outside the population are
    /// interned into it.
    fn entry(&self, pop: &mut Population, index: u64) -> Entry {
        let m = pop.mix;
        let frame = match self.draw(FRAME_SALT, index) % 100 {
            f if f < m.single => Frame::Single,
            f if f < m.single + m.batch => Frame::Batch,
            f if f < m.single + m.batch + m.sweep => Frame::Sweep,
            _ => Frame::Tune,
        };
        match frame {
            Frame::Single => pop.single(self.ranked(pop, index, 0), frame),
            Frame::Tune => {
                let pick = self.draw(PICK_SALT, index) % pop.tunes.len() as u64;
                pop.single(pop.tunes[pick as usize], frame)
            }
            Frame::Batch => {
                let items = (0..BATCH_ITEMS as u64)
                    .map(|j| self.ranked(pop, index, j))
                    .collect();
                pop.batch(items)
            }
            Frame::Sweep => {
                let base = shape_of(&pop.works[self.ranked(pop, index, 0) as usize]);
                let target = if self.draw(PICK_SALT, index).is_multiple_of(2) {
                    SweepTarget::Tpu {
                        mode: SimMode::ChannelFirst,
                        hw: TpuHwSpec::default(),
                    }
                } else {
                    SweepTarget::Gpu {
                        algo: GpuAlgo::CudnnImplicit,
                    }
                };
                let mut spec = SweepSpec::new(base, target);
                spec.cis = SWEEP_CIS.to_vec();
                let items = spec
                    .expand()
                    .expect("a ci sweep of a valid shape expands")
                    .into_iter()
                    .map(|w| pop.intern(w))
                    .collect();
                Entry {
                    frame,
                    items,
                    sweep: Some(encode_sweep(None, &spec, None).into()),
                }
            }
        }
    }

    /// Entries `start..start + n` of the sample, in the seed's order.
    pub fn entries(&self, pop: &mut Population, start: u64, n: usize) -> Vec<Entry> {
        let mut out: Vec<Entry> = (start..start + n as u64)
            .map(|i| self.entry(pop, i))
            .collect();
        let order = mix64(self.seed ^ ORDER_SALT ^ start);
        for i in (1..n).rev() {
            let j = mix64(order ^ (i as u64).wrapping_mul(GOLDEN_GAMMA)) % (i as u64 + 1);
            out.swap(i, j as usize);
        }
        out
    }
}

fn tpu_work(shape: ConvShape, pass: ConvPass, mode: SimMode, hw: TpuHwSpec) -> Work {
    match pass {
        ConvPass::Forward => Work::TpuConv { shape, mode, hw },
        _ => Work::TpuPass {
            shape,
            pass,
            mode,
            hw,
        },
    }
}

fn gpu_work(shape: ConvShape, pass: ConvPass, algo: GpuAlgo, hw: GpuHwSpec) -> Work {
    match pass {
        ConvPass::Forward => Work::GpuConv { shape, algo, hw },
        _ => Work::GpuPass {
            shape,
            pass,
            algo,
            hw,
        },
    }
}

/// The layer shape a work unit simulates (GEMMs have none).
fn shape_of(work: &Work) -> ConvShape {
    match work {
        Work::TpuConv { shape, .. }
        | Work::TpuPass { shape, .. }
        | Work::GpuConv { shape, .. }
        | Work::GpuPass { shape, .. }
        | Work::Tune { shape, .. } => *shape,
        Work::TpuGemm { .. } => unreachable!("benchmark populations hold no GEMMs"),
    }
}

/// Distinct shapes of `works`, in first-seen order.
fn distinct_shapes(works: &[Work]) -> Vec<ConvShape> {
    let mut out: Vec<ConvShape> = Vec::new();
    for w in works {
        let s = shape_of(w);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// The estimator class of a work unit, as the per-layer `sim.*` metrics
/// group them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimClass {
    /// TPU forward conv.
    Tpu,
    /// GPU cuDNN-implicit forward conv.
    GpuCudnn,
    /// GPU channel-first+reuse forward conv.
    GpuCfReuse,
    /// Any other forward GPU algorithm.
    GpuOther,
    /// A wgrad or dgrad pass on either engine.
    Pass,
    /// A design-space search.
    Tune,
}

/// Which [`SimClass`] a work unit belongs to.
pub fn sim_class(work: &Work) -> SimClass {
    match work {
        Work::TpuConv { .. } | Work::TpuGemm { .. } => SimClass::Tpu,
        Work::GpuConv {
            algo: GpuAlgo::CudnnImplicit,
            ..
        } => SimClass::GpuCudnn,
        Work::GpuConv {
            algo: GpuAlgo::ChannelFirst { reuse: true },
            ..
        } => SimClass::GpuCfReuse,
        Work::GpuConv { .. } => SimClass::GpuOther,
        Work::TpuPass { .. } | Work::GpuPass { .. } => SimClass::Pass,
        Work::Tune { .. } => SimClass::Tune,
    }
}
