//! The pinned inputs: `bench/inputs.json` freezes each row's problem size
//! and carries an FNV-1a fingerprint over those sizes, every Grande source
//! used and every generated program. A run whose inputs hash differently
//! stops with `inputs_changed` rather than print numbers that look
//! comparable with earlier ones and are not.

use conform::gen::{generate, render};
use hpcnet_core::json::Json;
use hpcnet_grande::{find_entry, BenchGroup, Entry};
use hpcnet_serve::cache::Fnv;
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = ["kernels", "runtime", "lineup", "cold"];

/// First generator seed of the `cold` program set. The set is the same
/// for every `--seed` (which only orders it): a window that moved with
/// the seed made `floor_geomean_ms` differ by program mix, not by speed.
pub const GEN_BASE_SEED: u64 = 12_000;

/// The `bench/` directory: where cargo says the manifest is when run
/// through `cargo run`, else where it was at build time.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// One registry entry at its frozen size.
pub struct Row {
    pub group: BenchGroup,
    pub entry: Entry,
    pub n: i32,
}

pub struct Inputs {
    pub kernels: Vec<Row>,
    pub runtime: Vec<Row>,
    pub lineup: Vec<Row>,
    /// `cold`'s Grande programs: the group is the program, the entry its
    /// one short call.
    pub cold: Vec<Row>,
    /// `cold`'s generated programs, rendered.
    pub generated: Vec<String>,
    /// What one spin of the speed meter costs at the reference clock: the
    /// constant every reported time is scaled to (see `speed.rs`).
    pub reference_spin_ms: f64,
    pinned: String,
}

fn rows(doc: &Json, key: &str) -> Result<Vec<Row>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("inputs.json: no array {key}"))?;
    arr.iter()
        .map(|r| {
            let bad = || format!("inputs.json: {key}: a row must be [entry-id, n]");
            let pair = r.as_arr().filter(|p| p.len() == 2).ok_or_else(bad)?;
            let id = pair[0].as_str().ok_or_else(bad)?;
            let n = pair[1]
                .as_f64()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                .ok_or_else(bad)?;
            let (group, entry) =
                find_entry(id).ok_or(format!("inputs.json: {key}: no registry entry {id}"))?;
            if entry.threaded {
                return Err(format!(
                    "inputs.json: {key}: {id} spawns threads; not benchmarked"
                ));
            }
            Ok(Row {
                group,
                entry,
                n: n as i32,
            })
        })
        .collect()
}

impl Inputs {
    pub fn load() -> Result<Inputs, String> {
        let path = bench_dir().join("inputs.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
        let count = doc
            .get("cold_generated")
            .and_then(Json::as_f64)
            .filter(|n| (1.0..=256.0).contains(n) && n.fract() == 0.0)
            .ok_or("inputs.json: cold_generated must be a whole number in 1..=256")?;
        let reference_spin_ms = doc
            .get("reference_spin_ms")
            .and_then(Json::as_f64)
            .filter(|ms| *ms > 0.0)
            .ok_or("inputs.json: reference_spin_ms must be a positive number")?;
        Ok(Inputs {
            reference_spin_ms,
            kernels: rows(&doc, "kernels")?,
            runtime: rows(&doc, "runtime")?,
            lineup: rows(&doc, "lineup")?,
            cold: rows(&doc, "cold")?,
            generated: (0..count as usize).map(generated_program).collect(),
            pinned: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }

    pub fn steady_rows(&self, workload: &str) -> &[Row] {
        match workload {
            "kernels" => &self.kernels,
            "runtime" => &self.runtime,
            _ => &self.lineup,
        }
    }

    pub fn fingerprint(&self) -> String {
        let mut h = Fnv::new();
        let mut field = |bytes: &[u8]| {
            // Length-prefixed, so moving a byte between fields changes the hash.
            h.write(&(bytes.len() as u64).to_le_bytes());
            h.write(bytes);
        };
        for (name, rows) in
            WORKLOADS
                .iter()
                .zip([&self.kernels, &self.runtime, &self.lineup, &self.cold])
        {
            field(name.as_bytes());
            for r in rows {
                field(r.entry.id.as_bytes());
                field(&r.n.to_le_bytes());
                field(r.group.source.as_bytes());
            }
        }
        for src in &self.generated {
            field(src.as_bytes());
        }
        field(&self.reference_spin_ms.to_le_bytes());
        format!("{:016x}", h.finish())
    }

    /// `Err` with both hashes when the inputs are not the pinned ones.
    pub fn check_pinned(&self) -> Result<(), String> {
        let now = self.fingerprint();
        if now == self.pinned {
            Ok(())
        } else {
            Err(format!(
                "inputs_changed: inputs hash {now}, bench/inputs.json pins {}; results would not be \
                 comparable with earlier runs (after a deliberate change: `bench pin`, then re-measure the baseline)",
                self.pinned
            ))
        }
    }
}

/// The `i`-th generated program of `cold`, rendered.
pub fn generated_program(i: usize) -> String {
    render(&generate(GEN_BASE_SEED + i as u64))
}

/// Rewrite the `fingerprint` field of `bench/inputs.json` in place.
pub fn pin() -> Result<String, String> {
    let inputs = Inputs::load()?;
    let path = bench_dir().join("inputs.json");
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let now = inputs.fingerprint();
    let old = format!("\"fingerprint\": \"{}\"", inputs.pinned);
    if !text.contains(&old) {
        return Err(format!("inputs.json: expected the line {old}"));
    }
    std::fs::write(
        &path,
        text.replace(&old, &format!("\"fingerprint\": \"{now}\"")),
    )
    .map_err(|e| e.to_string())?;
    Ok(now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_inputs_match_their_pin() {
        Inputs::load().unwrap().check_pinned().unwrap();
    }

    #[test]
    fn fingerprint_sees_sizes_sources_and_programs() {
        let base = Inputs::load().unwrap();
        let fp = base.fingerprint();
        assert_eq!(fp, Inputs::load().unwrap().fingerprint(), "deterministic");

        let mut resized = Inputs::load().unwrap();
        resized.kernels[0].n += 1;
        assert_ne!(resized.fingerprint(), fp);

        let mut fewer = Inputs::load().unwrap();
        fewer.generated.pop();
        assert_ne!(fewer.fingerprint(), fp);

        let mut edited = Inputs::load().unwrap();
        edited.generated[0].push(' ');
        assert_ne!(edited.fingerprint(), fp);
        assert!(edited
            .check_pinned()
            .unwrap_err()
            .starts_with("inputs_changed"));

        let mut rescaled = Inputs::load().unwrap();
        rescaled.reference_spin_ms *= 1.01;
        assert_ne!(rescaled.fingerprint(), fp);

        let mut moved = Inputs::load().unwrap();
        let row = moved.runtime.remove(0);
        moved.kernels.push(row);
        assert_ne!(moved.fingerprint(), fp, "a row belongs to its workload");
    }
}
