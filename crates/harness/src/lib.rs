//! # hpcnet-harness — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section:
//! one generator per graph ([`graphs`]), a warmup-aware statistical
//! timing protocol ([`measure`] + [`stats`], docs/MEASUREMENT.md) applied
//! uniformly to all engine profiles and the native baseline, text/CSV
//! rendering ([`report`]), and the per-method attribution artifact
//! ([`profile`]).
//!
//! Run `cargo run --release -p hpcnet-harness --bin hpcnet-report -- all`
//! to reproduce the full set; see EXPERIMENTS.md for recorded results.

pub mod graphs;
pub mod measure;
pub mod profile;
pub mod report;
pub mod stats;

pub use graphs::{all_reports, Config};
pub use hpcnet_core::ObserveLevel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_g4_has_expected_shape() {
        let t = graphs::g4_loops(&Config::quick());
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
            let t = graphs::g12_matrix(&Config::quick());
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

    #[test]
    fn report_registry_is_complete() {
        let names: Vec<&str> = all_reports().iter().map(|(n, _)| *n).collect();
        for want in ["g1", "g3", "g4", "g5", "g6", "g7", "g8", "g9", "g10", "g12", "t2", "t4"] {
            assert!(names.contains(&want), "missing report {want}");
        }
    }
}
