//! Every metric the benchmark reports: its unit, which way is better, and
//! the bound by which it may worsen before a change counts as a
//! regression. `BENCHMARK.json` lists the same end-to-end and per-layer
//! names (a test keeps the two in step).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the parent's median.
    Rel(f64),
    /// An absolute amount, in the metric's unit.
    Abs(f64),
    /// Ladder steps (each step is [`crate::serve::STEP_RATIO`] times the
    /// one below).
    Steps(u32),
    /// Must not change at all.
    Exact,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and stored.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics every workload reports and `BENCHMARK.json` gates
/// (its `end_to_end` list). For `offline` a request is one `expall` run.
pub const END_TO_END: [MetricDef; 3] = [
    def("p50_ms", "ms", Better::Lower, Bound::Rel(0.25)),
    def("setup_s", "s", Better::Lower, Bound::Rel(0.25)),
    def("rss_mb", "MB", Better::Lower, Bound::Rel(0.25)),
];

/// End-to-end metrics that are printed, stored and judged by `compare`
/// but not gated by `BENCHMARK.json`: on a two-core host their run-to-run
/// spread exceeds any bound the gate allows (`p99_ms`), they are
/// quantized to ladder steps (`max_rps_slo`), zero on a healthy run
/// (`err_share`), or exist for one workload only (`wall_s`,
/// `model_mae_pct`).
pub const ALSO_REPORTED: [MetricDef; 5] = [
    def("p99_ms", "ms", Better::Lower, Bound::Rel(0.25)),
    def("max_rps_slo", "1/s", Better::Higher, Bound::Steps(1)),
    def("err_share", "ratio", Better::Lower, Bound::Abs(0.001)),
    def("wall_s", "s", Better::Lower, Bound::Rel(0.10)),
    def("model_mae_pct", "%", Better::Lower, Bound::Exact),
];

/// The definition of end-to-end metric `name`, if it is one.
pub fn end_to_end_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(ALSO_REPORTED.iter())
        .find(|d| d.name == name)
}

/// Per-layer metrics from the traced run: name, unit, and which way is
/// better. Workloads that do not exercise a layer report `0` for it.
pub const PER_LAYER: [(&str, &str, Better); 41] = [
    ("gen.late_p99_us", "us", Better::Lower),
    ("gen.sent", "count", Better::Higher),
    ("gen.ok", "count", Better::Higher),
    ("gen.failed", "count", Better::Lower),
    ("serve.service_p50_us", "us", Better::Lower),
    ("serve.service_p99_us", "us", Better::Lower),
    ("serve.outside_p99_us", "us", Better::Lower),
    ("serve.hit_ratio", "ratio", Better::Higher),
    ("serve.evictions_per_miss", "ratio", Better::Lower),
    ("serve.busy_share", "ratio", Better::Lower),
    ("serve.tune_search_share", "ratio", Better::Lower),
    ("api.parse_ns", "ns", Better::Lower),
    ("api.key_ns", "ns", Better::Lower),
    ("api.encode_ns", "ns", Better::Lower),
    ("cache.get_hit_ns", "ns", Better::Lower),
    ("cache.admit_complete_ns", "ns", Better::Lower),
    ("sim.tpu_us", "us", Better::Lower),
    ("sim.tpu_max_us", "us", Better::Lower),
    ("sim.gpu_cudnn_us", "us", Better::Lower),
    ("sim.gpu_cudnn_max_us", "us", Better::Lower),
    ("sim.gpu_cf_reuse_us", "us", Better::Lower),
    ("sim.gpu_cf_reuse_max_us", "us", Better::Lower),
    ("sim.pass_us", "us", Better::Lower),
    ("sim.miss_cost_s", "s", Better::Lower),
    ("tune.search_ms", "ms", Better::Lower),
    ("router.route_ns", "ns", Better::Lower),
    ("router.hop_p50_us", "us", Better::Lower),
    ("exp.table1_s", "s", Better::Lower),
    ("exp.fig02_s", "s", Better::Lower),
    ("exp.fig04_s", "s", Better::Lower),
    ("exp.fig13_s", "s", Better::Lower),
    ("exp.fig14_s", "s", Better::Lower),
    ("exp.fig15_s", "s", Better::Lower),
    ("exp.fig16_s", "s", Better::Lower),
    ("exp.fig17_s", "s", Better::Lower),
    ("exp.fig18_s", "s", Better::Lower),
    ("exp.tune_s", "s", Better::Lower),
    ("exp.passes_s", "s", Better::Lower),
    ("exp.traces_s", "s", Better::Lower),
    ("exp.summary_s", "s", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// The unit of per-layer metric `name`.
fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|(_, u, _)| *u)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value, in `unit`.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Measured {
    /// A measured value of end-to-end metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a defined end-to-end metric.
    pub fn e2e(name: &str, value: f64) -> Self {
        let d = end_to_end_def(name).unwrap_or_else(|| panic!("undefined metric {name}"));
        Self {
            name: name.to_owned(),
            value,
            unit: d.unit,
        }
    }

    /// A measured value of per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a defined per-layer metric.
    pub fn layer(name: &str, value: f64) -> Self {
        let unit = per_layer_unit(name).unwrap_or_else(|| panic!("undefined metric {name}"));
        Self {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}
