//! The conform fleet: the sweep as one ordered map over seeds.
//!
//! A sweep's seeds are independent — each one generates, compiles and
//! verifies its own module and runs its own engine matrix — so the fleet
//! hands them to a worker pool, one seed per task, and writes each
//! result into that seed's own slot. Results therefore come back in seed
//! order whatever the thread interleaving, and every seed runs to
//! completion: there is no time budget and no early stop, so the order
//! in which workers happen to pick seeds up can change nothing a report
//! shows.
//!
//! Divergence minimization is not part of the map: it stays serial, in
//! seed order, in the caller ([`crate::run_conformance`]) — the shrinker
//! mutates programs iteratively and is the rare case where parallelism
//! would buy little and cost reproducibility.
//!
//! Every generated program is thread-deterministic by construction
//! ([`crate::gen`] emits no `Math.Random` and no threads), so identical
//! per-seed outcomes across worker counts are guaranteed, not hoped for.

use crate::gen::Program;
use crate::matrix::{run_seed_at, ProgramResult};
use crate::ConformConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` on `workers` OS threads, returning results in
/// item order regardless of scheduling. Workers pull indices from a
/// shared atomic cursor; each result is written to its own slot.
pub(crate) fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(|t| f(t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                *slots[i].lock().unwrap() = Some(f(&items[i]));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every claimed slot"))
        .collect()
}

fn effective_workers(cfg: &ConformConfig) -> usize {
    if cfg.workers > 0 {
        cfg.workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Run every seed of the configured range through [`run_seed_at`] on the
/// worker pool. One entry per seed, in ascending seed order: the program
/// and its matrix result, or the front end's rejection (a generator bug).
pub(crate) fn execute_sweep(cfg: &ConformConfig) -> Vec<Result<(Program, ProgramResult), String>> {
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed + cfg.programs).collect();
    parallel_map(effective_workers(cfg), &seeds, |&seed| run_seed_at(seed, cfg.observe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_vm::ObserveLevel;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..67).collect();
        let out = parallel_map(4, &items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        // Degenerate pools behave identically.
        assert_eq!(parallel_map(1, &items, |&x| x * 3), out);
        assert_eq!(parallel_map(16, &items, |&x| x * 3), out);
    }

    #[test]
    fn sweep_returns_every_seed_in_order() {
        let cfg = ConformConfig {
            programs: 4,
            start_seed: 300,
            corpus_dir: None,
            observe: ObserveLevel::Off,
            workers: 2,
        };
        let runs = execute_sweep(&cfg);
        let seeds: Vec<u64> = runs
            .iter()
            .map(|r| r.as_ref().expect("seed compiles").0.seed)
            .collect();
        assert_eq!(seeds, vec![300, 301, 302, 303]);
    }
}
