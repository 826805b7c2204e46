//! `compare`: judge a change against its parent from alternating runs.
//!
//! The claimed metric on the claimed workload must win at least nine in
//! ten pairs (ties count for neither side) and move its median by more
//! than the parent's interquartile range. Every other metric–workload
//! pair must not worsen its median by more than the metric's bound; a
//! pair whose spread exceeds the bound is `unresolved` unless every change
//! run beats every parent run.

use std::collections::BTreeMap;

use iconv_api::json::{self, Json};

use crate::metrics::{end_to_end_def, Better, Bound, MetricDef};
use crate::report::Host;
use crate::serve::STEP_RATIO;
use crate::stats::{median, quartiles};

/// Fewest parent/change pairs a claim may rest on.
pub const MIN_PAIRS: usize = 10;
/// Share of pairs the change must win for a gain.
pub const WIN_SHARE: f64 = 0.9;

/// One result file: its host fingerprint and `workload → metric → value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    /// Host fingerprint.
    pub host: String,
    /// Measured values.
    pub values: BTreeMap<String, BTreeMap<String, f64>>,
}

impl ResultFile {
    /// Parse a result file written by `run`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let root = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let obj = root.as_obj().ok_or("not an object")?;
        let host = obj
            .get("host")
            .and_then(Host::from_json)
            .ok_or("missing or malformed host")?;
        let mut values = BTreeMap::new();
        for (w, body) in obj
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("missing workloads")?
        {
            let metrics = body
                .as_obj()
                .and_then(|b| b.get("metrics"))
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{w}: missing metrics"))?;
            let mut m = BTreeMap::new();
            for (name, v) in metrics {
                let value = v
                    .as_obj()
                    .and_then(|o| o.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::INFINITY);
                m.insert(name.clone(), value);
            }
            values.insert(w.clone(), m);
        }
        Ok(Self {
            host: host.fingerprint(),
            values,
        })
    }
}

/// How a change moved one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The runs spread wider than the bound, so no verdict holds.
    Unresolved,
    /// Every change run beat every parent run.
    Better,
}

fn worse_by(def: &MetricDef, parent: f64, change: f64) -> f64 {
    match def.better {
        Better::Lower => change - parent,
        Better::Higher => parent - change,
    }
}

/// How far `def` may worsen from a parent median of `parent`.
fn allowance(def: &MetricDef, parent: f64) -> f64 {
    match def.bound {
        Bound::Rel(b) => b * parent.abs(),
        Bound::Abs(a) => a,
        Bound::Steps(k) => parent.abs() * (1.0 - STEP_RATIO.powi(-(k as i32))),
        Bound::Exact => 0.0,
    }
}

fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

fn beats(def: &MetricDef, a: f64, b: f64) -> bool {
    worse_by(def, b, a) < 0.0
}

/// The no-regression verdict for one metric on one workload.
pub fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| beats(def, c, p)));
    if all_better {
        return Verdict::Better;
    }
    let allowed = allowance(def, mp);
    if def.bound == Bound::Exact {
        let same = change
            .iter()
            .chain(parent)
            .all(|v| v.to_bits() == mp.to_bits());
        return if same {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    if iqr(parent) > allowed || iqr(change) > allowed {
        return Verdict::Unresolved;
    }
    if worse_by(def, mp, mc) > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The gain rule for the claimed metric over `(parent, change)` pairs:
/// the change wins at least [`WIN_SHARE`] of them and its median is
/// better by more than the parent's interquartile range.
pub fn gain(def: &MetricDef, pairs: &[(f64, f64)]) -> (bool, usize) {
    let wins = pairs.iter().filter(|(p, c)| beats(def, *c, *p)).count();
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let moved = -worse_by(def, median(&parent), median(&change));
    let won = wins as f64 >= WIN_SHARE * pairs.len() as f64;
    (won && moved > iqr(&parent), wins)
}

/// Compare parent and change result files, paired in order. Returns the
/// report lines, or an error when the inputs cannot be compared.
pub fn compare(
    parent: &[ResultFile],
    change: &[ResultFile],
    claim: Option<(&str, &str)>,
) -> Result<Vec<String>, String> {
    if parent.len() != change.len() || parent.len() < MIN_PAIRS {
        return Err(format!(
            "need at least {MIN_PAIRS} parent/change pairs, got {} and {}",
            parent.len(),
            change.len()
        ));
    }
    let host = &parent[0].host;
    if let Some(other) = parent.iter().chain(change).find(|f| &f.host != host) {
        return Err(format!(
            "refusing to mix hosts: {host:?} and {:?}",
            other.host
        ));
    }
    let column = |files: &[ResultFile], w: &str, m: &str| -> Option<Vec<f64>> {
        files
            .iter()
            .map(|f| f.values.get(w).and_then(|ms| ms.get(m)).copied())
            .collect()
    };
    let mut out = Vec::new();
    if let Some((metric, workload)) = claim {
        let def = end_to_end_def(metric).ok_or_else(|| format!("unknown metric {metric}"))?;
        let (p, c) = column(parent, workload, metric)
            .zip(column(change, workload, metric))
            .ok_or_else(|| format!("{metric} on {workload} is missing from some file"))?;
        let pairs: Vec<(f64, f64)> = p.into_iter().zip(c).collect();
        let (won, wins) = gain(def, &pairs);
        out.push(format!(
            "claim {metric} on {workload}: {} ({wins}/{} pairs won)",
            if won { "gain" } else { "not met" },
            pairs.len()
        ));
    }
    for (w, metrics) in &parent[0].values {
        let mut row = format!("{w}:");
        for m in metrics.keys() {
            if claim == Some((m.as_str(), w.as_str())) {
                continue;
            }
            let Some(def) = end_to_end_def(m) else {
                continue;
            };
            let (Some(p), Some(c)) = (column(parent, w, m), column(change, w, m)) else {
                continue;
            };
            let v = verdict(def, &p, &c);
            let (pq, cq) = (
                quartiles(&p).unwrap_or_default(),
                quartiles(&c).unwrap_or_default(),
            );
            row.push_str(&format!(
                " {m} {v:?} ({} [{}, {}] -> {} [{}, {}]);",
                median(&p),
                pq.0,
                pq.1,
                median(&c),
                cq.0,
                cq.1
            ));
        }
        out.push(row);
    }
    Ok(out)
}
