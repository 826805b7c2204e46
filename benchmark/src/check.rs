//! Output checks: every response line is well formed, every body a key
//! receives is the same bytes, the bodies match the in-process engine, and
//! the server's ledgers balance.

use std::collections::BTreeMap;

use iconv_api::proto::{
    batch_summary_body, finish_response, parse_response, Response, StatsSnapshot,
};
use iconv_api::Work;

use crate::schedule::{Entry, Frame, Population};

/// Threads the in-process oracle evaluates on.
const ORACLE_JOBS: usize = 2;

/// Collects the first body each key received and everything that went
/// wrong on the wire.
#[derive(Default)]
pub struct Checker {
    /// First successful body per key id.
    bodies: Vec<Option<Box<str>>>,
    /// Items answered with a typed error, by error code.
    pub errors: BTreeMap<String, u64>,
    /// Problems that make the run incorrect.
    pub problems: Vec<String>,
    /// Errors of the batch whose lines are being read.
    batch_errors: u64,
}

impl Checker {
    /// Record response line `j` of `entry`. Returns `false` when the line
    /// is a typed error or malformed.
    pub fn on_line(&mut self, entry: &Entry, j: usize, line: &str) -> bool {
        let batched = matches!(entry.frame, Frame::Batch | Frame::Sweep);
        if j == 0 {
            self.batch_errors = 0;
        }
        if batched && j == entry.items.len() {
            let want = finish_response(
                None,
                &batch_summary_body(entry.items.len() as u64, self.batch_errors),
            );
            if line != want {
                self.problem(format!("batch summary {line:?}, expected {want:?}"));
                return false;
            }
            return self.batch_errors == 0;
        }
        let body = if batched {
            item_body(line, j)
        } else {
            line.strip_prefix('{')
        }
        .and_then(|rest| rest.strip_suffix('}'));
        let Some(body) = body else {
            self.problem(format!("malformed response line {line:?}"));
            return false;
        };
        if body.starts_with("\"ok\":false") {
            let code = body
                .split("\"error\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or("unknown");
            *self.errors.entry(code.to_owned()).or_default() += 1;
            self.batch_errors += 1;
            return false;
        }
        let key = entry.items[j] as usize;
        if self.bodies.len() <= key {
            self.bodies.resize(key + 1, None);
        }
        match &self.bodies[key] {
            Some(first) if **first != *body => {
                self.problem(format!("key {key} answered with two different bodies"));
                false
            }
            Some(_) => true,
            None => {
                self.bodies[key] = Some(body.into());
                true
            }
        }
    }

    fn problem(&mut self, p: String) {
        // The first few tell the story; a flood would only cost memory.
        if self.problems.len() < 20 {
            self.problems.push(p);
        }
    }

    /// Key ids that received a body, ascending.
    pub fn answered(&self) -> Vec<u32> {
        (0..self.bodies.len() as u32)
            .filter(|&k| self.bodies[k as usize].is_some())
            .collect()
    }

    /// After timing: every stored body must decode with `parse_response`
    /// as an estimate, and the bodies of `oracle` keys must be
    /// byte-identical to an in-process `engine::evaluate`.
    pub fn verify(&mut self, pop: &Population, oracle: &[u32]) {
        for k in self.answered() {
            let body = self.bodies[k as usize].as_deref().expect("answered");
            match parse_response(&finish_response(None, body)) {
                Ok(Response::Tpu { .. } | Response::Gpu { .. } | Response::Tune { .. }) => {}
                other => self.problem(format!("key {k}: body does not decode: {other:?}")),
            }
        }
        let works: Vec<(u32, Work)> = oracle
            .iter()
            .filter(|&&k| self.bodies.get(k as usize).is_some_and(Option::is_some))
            .map(|&k| (k, pop.works[k as usize]))
            .collect();
        let fresh = iconv_par::par_map_jobs(ORACLE_JOBS, &works, |(_, w)| {
            iconv_serve::engine::evaluate(w)
        });
        for ((k, _), body) in works.iter().zip(fresh) {
            if self.bodies[*k as usize].as_deref() != Some(body.as_str()) {
                self.problem(format!(
                    "key {} ({}) differs from the in-process engine",
                    k, pop.keys[*k as usize]
                ));
            }
        }
    }
}

/// The rest of batch item line `{"item":<j>,...`, if it is item `j`.
fn item_body(line: &str, j: usize) -> Option<&str> {
    let rest = line.strip_prefix("{\"item\":")?;
    let (index, rest) = rest.split_once(',')?;
    (index.parse::<usize>().ok()? == j).then_some(rest)
}

/// The ledger identities a quiescent server must satisfy.
pub fn ledger_problems(s: &StatsSnapshot) -> Vec<String> {
    let mut out = Vec::new();
    if s.hits + s.misses != s.requests {
        out.push(format!(
            "ledger: hits {} + misses {} != requests {}",
            s.hits, s.misses, s.requests
        ));
    }
    if s.tunes != s.tune_searches + s.tune_cached {
        out.push(format!(
            "ledger: tunes {} != searches {} + cached {}",
            s.tunes, s.tune_searches, s.tune_cached
        ));
    }
    if s.worker_crashes != 0 {
        out.push(format!("ledger: {} worker crashes", s.worker_crashes));
    }
    out
}
