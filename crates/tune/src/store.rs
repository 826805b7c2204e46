//! The persistent best-config cache.
//!
//! A [`TuneCache`] maps canonical tune keys (`tune;<target>;<shape>`) to
//! their [`TuneEstimate`]s. The JSON rendering is the durable interchange
//! format: `served --tune-cache` loads one at boot (seeding both its tune
//! store and the striped response cache) and saves it back on graceful
//! shutdown, and `tunebench` writes the same shape into `BENCH_tune.json`
//! sections. Cycle totals persist as IEEE-754 bit strings so a reloaded
//! cache replays byte-identical response bodies.

use std::collections::BTreeMap;
use std::path::Path;

use iconv_api::json::{self, Json};
use iconv_api::proto::{
    f64_bits, f64_from_bits, parse_tuned_config, tuned_config_json, TuneEstimate,
};

/// On-disk format version; bump on any incompatible change.
const VERSION: u64 = 1;

/// A key -> best-config map with a lossless JSON round trip.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneCache {
    entries: BTreeMap<String, TuneEstimate>,
}

impl TuneCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&TuneEstimate> {
        self.entries.get(key)
    }

    /// Insert (or replace) the entry for `key`.
    pub fn insert(&mut self, key: String, est: TuneEstimate) {
        self.entries.insert(key, est);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order (the serialization order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TuneEstimate)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Render the cache as JSON (one entry per line, key order — diffs
    /// stay reviewable and the rendering is deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 160 * self.entries.len());
        out.push_str(&format!("{{\"version\":{VERSION},\"entries\":[\n"));
        for (i, (key, est)) in self.entries.iter().enumerate() {
            out.push_str("{\"key\":");
            json::write_str(&mut out, key);
            out.push_str(&format!(
                ",\"best\":{},\"tuned_bits\":\"{}\",\"default_bits\":\"{}\",\
                 \"candidates\":{},\"pruned\":{}}}{}\n",
                tuned_config_json(&est.best),
                f64_bits(est.tuned_cycles),
                f64_bits(est.default_cycles),
                est.candidates,
                est.pruned,
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Parse a cache back from [`TuneCache::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found — syntax errors,
    /// wrong version, or malformed entries. Corrupt input never panics.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("tune cache: {e}"))?;
        let obj = doc.as_obj().ok_or("tune cache: root must be an object")?;
        match obj.get("version").and_then(Json::as_u64) {
            Some(VERSION) => {}
            Some(v) => return Err(format!("tune cache: unsupported version {v}")),
            None => return Err("tune cache: missing version".to_owned()),
        }
        let entries = obj
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("tune cache: \"entries\" must be an array")?;
        let mut cache = Self::new();
        for (i, entry) in entries.iter().enumerate() {
            let ctx = |what: &str| format!("tune cache entry {i}: {what}");
            let e = entry.as_obj().ok_or_else(|| ctx("must be an object"))?;
            let key = e
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| ctx("missing key"))?;
            let best = e.get("best").ok_or_else(|| ctx("missing best"))?;
            let best = parse_tuned_config(best).map_err(|err| ctx(&err.to_string()))?;
            let bits = |field: &str| {
                e.get(field)
                    .and_then(Json::as_str)
                    .and_then(f64_from_bits)
                    .ok_or_else(|| ctx(&format!("bad {field}")))
            };
            let est = TuneEstimate {
                best,
                tuned_cycles: bits("tuned_bits")?,
                default_cycles: bits("default_bits")?,
                candidates: e
                    .get("candidates")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ctx("bad candidates"))?,
                pruned: e
                    .get("pruned")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ctx("bad pruned"))?,
            };
            if cache.entries.insert(key.to_owned(), est).is_some() {
                return Err(ctx(&format!("duplicate key {key:?}")));
            }
        }
        Ok(cache)
    }

    /// Load from a file. A missing file is an empty cache (first boot);
    /// an unreadable or corrupt file is an error.
    ///
    /// # Errors
    ///
    /// See [`TuneCache::from_json`]; I/O failures other than not-found are
    /// reported with the path.
    pub fn load(path: &Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(format!("tune cache {}: {e}", path.display())),
        }
    }

    /// Save to a file (write-then-rename so a crash never truncates an
    /// existing cache).
    ///
    /// # Errors
    ///
    /// Any I/O failure, with the path.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| format!("tune cache {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{tune, tune_key, ALL_TARGETS};
    use iconv_tensor::ConvShape;

    fn sample() -> TuneCache {
        let shape = ConvShape::square(4, 32, 28, 64, 3, 1, 1).unwrap();
        let mut cache = TuneCache::new();
        for target in ALL_TARGETS {
            let est = tune(&shape, target);
            cache.insert(tune_key(&shape, target), est);
        }
        cache
    }

    #[test]
    fn json_round_trip_is_identity() {
        let cache = sample();
        let text = cache.to_json();
        let back = TuneCache::from_json(&text).unwrap();
        assert_eq!(back, cache);
        // And the rendering itself is a fixed point.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"version\":99,\"entries\":[]}",
            "{\"version\":1}",
            "{\"version\":1,\"entries\":[{\"key\":\"k\"}]}",
            "{\"version\":1,\"entries\":[{\"key\":\"k\",\"best\":{\"target\":\"tpu\",\
             \"mode\":\"cf\"},\"tuned_bits\":\"xyz\",\"default_bits\":\"xyz\",\
             \"candidates\":1,\"pruned\":0}]}",
        ] {
            assert!(TuneCache::from_json(bad).is_err(), "accepted {bad:?}");
        }
        // Truncations of a valid document must also fail cleanly.
        let text = sample().to_json();
        for cut in [1, text.len() / 2, text.len() - 2] {
            assert!(TuneCache::from_json(&text[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn load_save_round_trips_and_missing_file_is_empty() {
        let dir = std::env::temp_dir().join(format!("iconv-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let cache = sample();
        cache.save(&path).unwrap();
        assert_eq!(TuneCache::load(&path).unwrap(), cache);
        let missing = dir.join("nope.json");
        assert!(TuneCache::load(&missing).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
