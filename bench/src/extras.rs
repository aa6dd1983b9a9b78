//! Per-layer measurements that are not part of a pass: the native
//! yardstick, cycle collection, the serve and conform layers. Traced runs
//! only.

use crate::run::{Harness, Metrics};
use crate::stats;
use hpcnet_grande::native::scimark;
use hpcnet_runtime::{gc, Heap};
use hpcnet_serve::{run_service, workload::mixed_workload, ServeConfig};
use std::hint::black_box;
use std::time::Instant;

fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Native LU + SOR, run between passes of a traced run: how fast plain
/// compiled code is on this box meanwhile. Reported as timed, never
/// divided into the VM's timings — it is throughput-bound, so a noisy
/// neighbour moves it differently from the VM (the speed meter's
/// latency-bound spin is what corrects for the clock).
#[derive(Default)]
pub struct Yardstick(Vec<f64>);

impl Yardstick {
    pub fn sample(&mut self) {
        self.0.push(time_ms(|| {
            scimark::lu_run(black_box(100)) + scimark::sor_run(black_box(100), 10)
        }));
    }

    pub fn metrics(&self, m: &mut Metrics) {
        m.set("native.yardstick_ms", stats::floor(&self.0));
    }
}

/// SciMark composite of the native-Rust kernels at the `kernels` sizes'
/// order of magnitude: what `vm.scimark_mflops` is a fraction of.
pub fn native_scimark(m: &mut Metrics) {
    type Kernel = (fn() -> f64, f64);
    let kernels: [Kernel; 5] = [
        (
            || scimark::fft_run(black_box(1024)),
            4.0 * 2.0 * scimark::fft_flops(1024),
        ),
        (
            || scimark::sor_run(black_box(100), 10),
            scimark::sor_flops(100, 10),
        ),
        (
            || scimark::montecarlo_run(black_box(20_000)),
            scimark::montecarlo_flops(20_000),
        ),
        (
            || scimark::sparse_run(black_box(1000), 5000, 100),
            scimark::sparse_flops(1000, 5000, 100),
        ),
        (|| scimark::lu_run(black_box(100)), scimark::lu_flops(100)),
    ];
    let mflops: Vec<f64> = kernels
        .iter()
        .map(|(run, flops)| {
            let ms: Vec<f64> = (0..12).map(|_| time_ms(run)).collect();
            flops / (stats::floor(&ms) * 1e3)
        })
        .collect();
    m.set("native.scimark_mflops", stats::mean(&mflops));
}

/// `gc::collect` on a fixed graph: 512 unrooted rings of 8 objects, which
/// reference counting alone cannot free.
pub fn gc_collect(m: &mut Metrics) {
    let ms: Vec<f64> = (0..9)
        .map(|_| {
            let heap = Heap::with_tracking();
            for _ in 0..512 {
                let ring: Vec<_> = (0..8)
                    .map(|_| heap.alloc_instance(hpcnet_cil::ClassId(0), 1, 1))
                    .collect();
                for (i, o) in ring.iter().enumerate() {
                    o.set_ref_field(0, Some(ring[(i + 1) % ring.len()].clone()));
                }
            }
            let (ms, broken) = {
                let t0 = Instant::now();
                let stats = gc::collect(&heap, &[]);
                (t0.elapsed().as_secs_f64() * 1e3, stats.cycles_broken)
            };
            assert_eq!(broken, 512 * 8, "every ring object is garbage");
            ms
        })
        .collect();
    m.set("runtime.gc_collect_us", stats::floor(&ms) * 1e3);
}

/// The job service on its mixed workload: 2000 jobs, 2 workers.
pub fn serve(m: &mut Metrics, seed: u64, h: &mut Harness) {
    let jobs = mixed_workload(2000, seed, 4096);
    let t0 = Instant::now();
    let report = run_service(
        &jobs,
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let secs = t0.elapsed().as_secs_f64();
    let latency_us: Vec<f64> = report
        .records
        .iter()
        .map(|r| r.latency_ns as f64 / 1e3)
        .collect();
    m.set("serve.jobs_per_s", jobs.len() as f64 / secs);
    m.set("serve.job_p50_us", stats::median(&latency_us));
    m.set("serve.cache_hit_ratio", report.hit_rate());
    let leaks = report.total_leaks();
    h.check(if leaks == 0 {
        Ok(())
    } else {
        Err(format!("serve: {leaks} isolation leaks"))
    });
}

/// The conform matrix (every engine against the oracle) on 16 seeds.
pub fn conform_matrix(m: &mut Metrics, h: &mut Harness) {
    const SEEDS: u64 = 16;
    let t0 = Instant::now();
    for seed in 0..SEEDS {
        let verdict =
            conform::matrix::run_seed(crate::inputs::GEN_BASE_SEED + seed).and_then(|(_, res)| {
                match res.divergences.first() {
                    None => Ok(()),
                    Some(d) => Err(format!(
                        "conform seed {seed}: {} diverges from the oracle",
                        d.engine
                    )),
                }
            });
        h.check(verdict);
    }
    m.set(
        "conform.matrix_ms_per_seed",
        t0.elapsed().as_secs_f64() * 1e3 / SEEDS as f64,
    );
    m.set(
        "conform.engines",
        conform::matrix::engine_matrix().len() as f64,
    );
}
