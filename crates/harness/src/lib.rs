//! # hpcnet-harness — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//! each one a declared table that one runner times ([`graphs`]), a
//! warmup-aware statistical timing protocol ([`measure`] with its private
//! `stats` classifier, docs/MEASUREMENT.md) applied uniformly to all
//! engine profiles and the native baseline, whose result is each cell's
//! rate and note; text/CSV rendering ([`report`]); and the per-method
//! attribution artifact ([`profile`]), whose validator reads its schema
//! off the document's builders.
//!
//! Run `cargo run --release -p hpcnet-harness --bin hpcnet-report -- all`
//! to reproduce the full set; see EXPERIMENTS.md for recorded results.

pub mod graphs;
pub mod measure;
pub mod profile;
pub mod report;
mod stats;

pub use graphs::{all_reports, Config};
pub use hpcnet_core::ObserveLevel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_g4_has_expected_shape() {
        let t = graphs::run("g4", &Config::quick());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.columns.len(), 4);
        for (_, cells) in &t.rows {
            for &v in cells {
                assert!(v > 0.0, "non-positive rate in {t:?}");
            }
        }
    }

    #[test]
    fn quick_g12_multidim_slower_than_jagged_on_clr() {
        // A timing comparison sharing one core with 35 sibling tests can
        // lose its margin to scheduler noise; retry before declaring the
        // paper's ordering violated.
        let mut last = (0.0, 0.0);
        for _ in 0..3 {
            let t = graphs::run("g12", &Config::quick());
            // Column 0 is CLR 1.1. Row 0 multidim value, row 1 jagged value.
            let multi = t.rows[0].1[0];
            let jagged = t.rows[1].1[0];
            if jagged > multi {
                return;
            }
            last = (jagged, multi);
        }
        panic!(
            "paper: jagged beats true multidim on CLR ({} vs {})",
            last.0, last.1
        );
    }
}
