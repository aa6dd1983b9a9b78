//! What one benchmark process shares across workloads: its arguments, the
//! declared metric names, per-row sample summaries and the result line.

use crate::extras::{self, Yardstick};
use crate::spans::{self, Recorder, Span};
use crate::speed::SpeedMeter;
use crate::stats;
use conform::gen::Rng;
use hpcnet_core::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A metric the benchmark emits: `(name, unit, better)`. `BENCHMARK.json`
/// must list exactly these (`bench check`); bounds live only there.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[MetricDef] = &[
    ("floor_geomean_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Times are per pass (or per set-up round on the steady workloads, whose
/// front end and JIT run only there); a layer a workload never enters
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("minics.lex_us", "us", "lower"),
    ("minics.parse_us", "us", "lower"),
    ("minics.codegen_us", "us", "lower"),
    ("minics.tokens", "count", "lower"),
    ("minics.src_bytes", "bytes", "lower"),
    ("cil.verify_us", "us", "lower"),
    ("cil.ops", "count", "lower"),
    ("cil.methods", "count", "lower"),
    ("vm.new_us", "us", "lower"),
    ("vm.startup_init_us", "us", "lower"),
    ("rir.jit_exec_us", "us", "lower"),
    ("rir.jit_compiled_us", "us", "lower"),
    ("rir.lower_us", "us", "lower"),
    ("rir.optimize_us", "us", "lower"),
    ("rir.allocate_us", "us", "lower"),
    ("rir.methods_jitted", "count", "lower"),
    ("rir.insts", "count", "lower"),
    ("rir.share_hit_ratio", "ratio", "higher"),
    ("rir.bce_elided", "count", "higher"),
    ("rir.bce_elided_range", "count", "higher"),
    ("rir.bce_elided_versioned", "count", "higher"),
    ("rir.loops_versioned", "count", "higher"),
    ("rir.licm_hoisted", "count", "higher"),
    ("rir.spills", "count", "lower"),
    ("vm.ops_executed", "count", "lower"),
    ("vm.bounds_checks_executed", "count", "lower"),
    ("vm.bounds_checks_elided", "count", "higher"),
    ("vm.compiled_ms", "ms", "lower"),
    ("vm.exec_ms", "ms", "lower"),
    ("vm.interp_ms", "ms", "lower"),
    ("vm.ns_per_op", "ns", "lower"),
    ("vm.scimark_mflops", "MFlops", "higher"),
    ("shape.mono_over_clr", "ratio", "lower"),
    ("shape.rotor_over_clr", "ratio", "lower"),
    ("vm.calls", "count", "lower"),
    ("vm.throws", "count", "lower"),
    ("vm.eh_unwind_us", "us", "lower"),
    ("runtime.allocs", "count", "lower"),
    ("runtime.alloc_bytes", "bytes", "lower"),
    ("runtime.ns_per_alloc", "ns", "lower"),
    ("runtime.ns_per_throw", "ns", "lower"),
    ("runtime.ns_per_call", "ns", "lower"),
    ("runtime.ns_per_lock", "ns", "lower"),
    ("runtime.ns_per_math_call", "ns", "lower"),
    ("runtime.gc_collect_us", "us", "lower"),
    ("vm.snapshot_us", "us", "lower"),
    ("vm.reset_us", "us", "lower"),
    ("vm.verify_snapshot_us", "us", "lower"),
    ("vm.reset_objects_restored", "count", "lower"),
    ("serve.jobs_per_s", "1/s", "higher"),
    ("serve.job_p50_us", "us", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("conform.matrix_ms_per_seed", "ms", "lower"),
    ("conform.engines", "count", "higher"),
    ("native.scimark_mflops", "MFlops", "higher"),
    ("native.yardstick_ms", "ms", "lower"),
    ("bench.pass_p50_ms", "ms", "lower"),
    ("bench.pass_p90_ms", "ms", "lower"),
    ("bench.samples_per_row", "count", "higher"),
    ("bench.floor_support", "count", "higher"),
    ("bench.contention_ratio", "ratio", "lower"),
    ("bench.speed_factor", "ratio", "lower"),
    ("bench.speed_factor_max", "ratio", "lower"),
    ("bench.harness_self_us", "us", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// Metric values by name. `set` refuses a name neither list declares, so
/// the emitted names and `BENCHMARK.json` cannot drift apart silently.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.0 == name),
            "metric {name} is not declared in run.rs"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Per-row tables and anything else that is detail, not a named metric.
    pub detail: Json,
    pub spans: Vec<Span>,
}

/// Fisher–Yates with the run's seeded generator.
pub fn shuffle(order: &mut [usize], rng: &mut Rng) {
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The state one run carries from set-up through its passes.
pub struct Harness {
    pub rec: Recorder,
    pub meter: SpeedMeter,
    pub yardstick: Yardstick,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Every sample of a run, as timed, with the pass it came from.
pub struct Passes {
    /// Timed stages per row (1 on the steady workloads).
    stages: usize,
    /// `[recorded?][row * stages + stage]`: one sample per pass of that
    /// kind, in ms.
    samples: [Vec<Vec<f64>>; 2],
    /// `[recorded?]`: the trace id of each pass of that kind.
    traces: [Vec<u32>; 2],
    /// `(trace id, ms)` per pass, the speed meter's spins excluded.
    pass_ms: Vec<(u32, f64)>,
}

impl Harness {
    pub fn new(reference_spin_ms: f64) -> Harness {
        Harness {
            rec: Recorder::new(),
            meter: SpeedMeter::new(reference_spin_ms),
            yardstick: Yardstick::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Count one checked operation; keep the first few failure messages.
    /// A failed sample stays in the sample set.
    pub fn check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// The timed region: passes over `rows` rows in seeded random order
    /// until `--seconds` have gone by (and at least `min_passes`). Closed
    /// loop, one thread. `one(row, rec, stage_ms)` performs one operation,
    /// writes the time of each of its `stages` consecutive stages and says
    /// whether its output was right. A traced run records every fourth
    /// pass, so recorded and unrecorded passes see the same machine and
    /// the unrecorded ones still resolve the floors. `between(self, f)`
    /// runs after each pass, `f` being the share of `--seconds` gone by:
    /// set-up rounds go there, spread over the run, because a busy
    /// neighbour comes in bursts that would cover all of them at once.
    pub fn passes(
        &mut self,
        args: &RunArgs,
        rows: usize,
        stages: usize,
        min_passes: usize,
        mut one: impl FnMut(usize, &mut Recorder, &mut [f64]) -> Result<(), String>,
        mut between: impl FnMut(&mut Harness, f64),
    ) -> Passes {
        let per_stage = || {
            (0..rows * stages)
                .map(|_| Vec::with_capacity(1024))
                .collect::<Vec<Vec<f64>>>()
        };
        let mut p = Passes {
            stages,
            samples: [per_stage(), per_stage()],
            traces: [Vec::new(), Vec::new()],
            pass_ms: Vec::new(),
        };
        let mut stage_ms = vec![0.0; stages];
        let mut order: Vec<usize> = (0..rows).collect();
        let mut rng = Rng::new(args.seed);
        let start = Instant::now();
        let mut pass = 0usize;
        while pass < min_passes || start.elapsed().as_secs_f64() < args.seconds {
            let recorded = args.trace && pass % 4 == 3;
            self.rec.begin_trace(recorded);
            shuffle(&mut order, &mut rng);
            let (t0, spun) = (Instant::now(), self.meter.spent_s());
            let span = self.rec.enter("pass");
            for &row in &order {
                let verdict = one(row, &mut self.rec, &mut stage_ms);
                self.rec.unwind_to(span); // a failed operation may leave spans open
                self.check(verdict);
                for (series, &ms) in p.samples[usize::from(recorded)][row * stages..]
                    .iter_mut()
                    .zip(&stage_ms)
                {
                    series.push(ms);
                }
                self.meter.sample(&mut self.rec);
            }
            self.rec.exit(span);
            let wall = t0.elapsed().as_secs_f64() - (self.meter.spent_s() - spun);
            p.traces[usize::from(recorded)].push(self.rec.trace_id());
            p.pass_ms.push((self.rec.trace_id(), wall * 1e3));
            if args.trace && pass.is_multiple_of(8) {
                self.yardstick.sample();
            }
            between(self, start.elapsed().as_secs_f64() / args.seconds);
            pass += 1;
        }
        p
    }
}

/// Step times of one set-up round.
pub struct Laps {
    mark: Instant,
    pub secs: Vec<f64>,
}

impl Laps {
    pub fn start() -> Laps {
        Laps {
            mark: Instant::now(),
            secs: Vec::new(),
        }
    }

    /// Close a step, let the speed meter spin, start timing the next one.
    pub fn lap(&mut self, meter: &mut SpeedMeter, rec: &mut Recorder) {
        self.secs.push(self.mark.elapsed().as_secs_f64());
        meter.sample(rec);
        self.mark = Instant::now();
    }
}

/// `setup_s`: set-up rounds repeat the same steps, so each step's fastest
/// round (at the reference clock) is that step undisturbed, and their sum
/// is a round in which nothing was disturbed. `rounds` pairs each round's
/// trace id with its step times.
pub fn setup_floor_s(rounds: &[(u32, Vec<f64>)], speed: &[f64]) -> f64 {
    let steps = rounds.iter().map(|r| r.1.len()).min().unwrap_or(0);
    (0..steps)
        .map(|i| {
            rounds
                .iter()
                .map(|(trace, secs)| secs[i] / speed[*trace as usize])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Span name → the per-layer metric it feeds, as the median over rounds
/// of the time spent under that name in one round.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("minics.lex", "minics.lex_us"),
    ("minics.parse", "minics.parse_us"),
    ("minics.codegen", "minics.codegen_us"),
    ("cil.verify", "cil.verify_us"),
    ("vm.new", "vm.new_us"),
    ("vm.startup", "vm.startup_init_us"),
    ("vm.jit.exec", "rir.jit_exec_us"),
    ("vm.jit.threaded", "rir.jit_compiled_us"),
    ("vm.snapshot", "vm.snapshot_us"),
    ("vm.reset", "vm.reset_us"),
    ("vm.verify", "vm.verify_snapshot_us"),
];

impl Harness {
    /// What every traced run reports the same way: the per-layer times from
    /// the recorded spans at the reference clock, the yardsticks, the
    /// collector. `inner` names the span a pass exists to time.
    pub fn traced_metrics(&self, m: &mut Metrics, speed: &[f64], inner: &str) {
        let totals = spans::per_trace_totals(self.rec.spans());
        let us = |trace: u32, ns: f64| ns / speed[trace as usize] / 1e3;
        for &(span, metric) in SPAN_METRICS {
            if let Some(per_round) = totals.get(span) {
                let per_round: Vec<f64> = per_round.iter().map(|(&t, &ns)| us(t, ns)).collect();
                m.set(metric, stats::median(&per_round));
            }
        }
        // What a pass costs beyond the calls it exists to time and the
        // speed meter: shuffling, two clock reads per sample, validation,
        // bookkeeping.
        let within = |name: &str, trace: u32| {
            totals
                .get(name)
                .and_then(|t| t.get(&trace))
                .copied()
                .unwrap_or(0.0)
        };
        let own: Vec<f64> = totals
            .get("pass")
            .into_iter()
            .flatten()
            .map(|(&t, &ns)| us(t, ns - within(inner, t) - within("bench.spin", t)))
            .collect();
        m.set("bench.harness_self_us", stats::median(&own));

        self.yardstick.metrics(m);
        extras::native_scimark(m);
        extras::gc_collect(m);
    }
}

/// One row's samples boiled down.
pub struct RowStats {
    pub floor_ms: f64,
    pub p50_ms: f64,
    pub support: usize,
    pub samples: usize,
    /// The floor of the samples as timed, before the speed correction.
    pub raw_floor_ms: f64,
    /// Highest percentile with ten samples beyond it, and its value.
    pub tail: Option<(u32, f64)>,
}

impl RowStats {
    /// `raw_ms` as timed, `ms` at the reference clock.
    pub fn of(raw_ms: &[f64], ms: &[f64]) -> RowStats {
        let floor_ms = stats::floor(ms);
        RowStats {
            floor_ms,
            p50_ms: stats::median(ms),
            support: stats::floor_support(ms, floor_ms),
            samples: ms.len(),
            raw_floor_ms: stats::floor(raw_ms),
            tail: stats::highest_percentile(ms.len()).map(|p| (p, stats::percentile(ms, p))),
        }
    }

    pub fn unresolved(&self) -> bool {
        self.support < stats::FLOOR_K
    }

    /// The row's detail record, after the caller's identifying fields.
    pub fn json(&self, mut head: Vec<(&str, Json)>) -> Json {
        head.extend([
            ("floor_ms", Json::num(self.floor_ms)),
            ("p50_ms", Json::num(self.p50_ms)),
            ("samples", Json::num(self.samples as f64)),
            ("floor_support", Json::num(self.support as f64)),
            ("unresolved", Json::Bool(self.unresolved())),
            ("raw_floor_ms", Json::num(self.raw_floor_ms)),
        ]);
        if let Some((p, ms)) = self.tail {
            head.push(("tail_percentile", Json::num(f64::from(p))));
            head.push(("tail_ms", Json::num(ms)));
        }
        Json::obj(head)
    }
}

/// A run's samples at the reference clock.
pub struct Summary {
    /// Per row and stage, from the unrecorded passes.
    pub stage_rows: Vec<RowStats>,
    /// Per row: the sum of its stages' floors — the row with no stage
    /// disturbed. (A whole-row floor needs every stage of one sample to
    /// be clean at once, which a busy neighbour makes rare for long rows.)
    pub floor_ms: Vec<f64>,
    pub passes: usize,
}

impl Passes {
    /// Divide every sample by its pass's speed factor and boil the rows
    /// down; sets `floor_geomean_ms` and, on a traced run, the `bench.*`
    /// metrics every workload derives the same way.
    pub fn summarize(&self, speed: &[f64], traced: bool, m: &mut Metrics) -> Summary {
        let at_reference = |kind: usize, samples: &[f64]| -> Vec<f64> {
            samples
                .iter()
                .zip(&self.traces[kind])
                .map(|(ms, &t)| ms / speed[t as usize])
                .collect()
        };
        let row_floors = |stage_floors: &[f64]| -> Vec<f64> {
            stage_floors
                .chunks(self.stages)
                .map(|c| c.iter().sum())
                .collect()
        };
        let rows: Vec<RowStats> = self.samples[0]
            .iter()
            .map(|raw| RowStats::of(raw, &at_reference(0, raw)))
            .collect();
        let floor_ms = row_floors(&rows.iter().map(|r| r.floor_ms).collect::<Vec<_>>());
        let recorded: Vec<f64> = self.samples[1]
            .iter()
            .map(|raw| stats::floor(&at_reference(1, raw)))
            .collect();
        let recorded = row_floors(&recorded);
        m.set("floor_geomean_ms", stats::geomean(&floor_ms));
        if traced {
            let pass_ms: Vec<f64> = self
                .pass_ms
                .iter()
                .map(|&(t, ms)| ms / speed[t as usize])
                .collect();
            m.set("bench.pass_p50_ms", stats::median(&pass_ms));
            m.set("bench.pass_p90_ms", stats::percentile(&pass_ms, 90));
            m.set(
                "bench.samples_per_row",
                rows.iter().map(|r| r.samples).min().unwrap_or(0) as f64,
            );
            m.set(
                "bench.floor_support",
                rows.iter().map(|r| r.support).min().unwrap_or(0) as f64,
            );
            let ratios: Vec<f64> = rows.iter().map(|r| r.p50_ms / r.floor_ms).collect();
            m.set("bench.contention_ratio", stats::geomean(&ratios));
            m.set(
                "bench.trace_overhead_ratio",
                stats::geomean(&recorded) / stats::geomean(&floor_ms),
            );
            let pass_speed: Vec<f64> = self
                .pass_ms
                .iter()
                .map(|&(t, _)| speed[t as usize])
                .collect();
            m.set("bench.speed_factor", stats::median(&pass_speed));
            m.set(
                "bench.speed_factor_max",
                pass_speed.iter().copied().fold(0.0, f64::max),
            );
        }
        Summary {
            stage_rows: rows,
            floor_ms,
            passes: self.pass_ms.len(),
        }
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Single-line JSON (the result line must be one line; `Json::render`
/// pretty-prints).
pub fn compact(j: &Json) -> String {
    match j {
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(compact).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", compact(&Json::Str(k.clone())), compact(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        // Scalars render on one line already.
        scalar => scalar.render().trim_end().to_string(),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(out: &Outcome, defs: &[MetricDef]) -> String {
    let metrics = defs
        .iter()
        .map(|&(name, unit, _)| {
            let v = Json::obj(vec![
                ("value", Json::num(out.metrics.get(name))),
                ("unit", Json::Str(unit.into())),
            ]);
            (name.to_string(), v)
        })
        .collect();
    compact(&Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::num(out.attempted as f64)),
        ("failed", Json::num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_one_line_and_parses_back() {
        let doc = Json::obj(vec![
            ("s", Json::Str("a \"quoted\"\nline".into())),
            (
                "xs",
                Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)]),
            ),
            ("o", Json::obj(vec![("k", Json::Num(-2.0))])),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn setup_floor_sums_each_steps_fastest_round() {
        // Round 2 ran at a 2x slower clock; its first step was otherwise clean.
        let rounds = vec![
            (1, vec![3.0, 1.0]),
            (2, vec![4.0, 6.0]),
            (3, vec![5.0, 1.5]),
        ];
        let speed = [1.0, 1.0, 2.0, 1.0];
        assert_eq!(setup_floor_s(&rounds, &speed), 2.0 + 1.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..24).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Rng::new(7));
        shuffle(&mut b, &mut Rng::new(7));
        assert_eq!(a, b);
        let mut c: Vec<usize> = (0..24).collect();
        shuffle(&mut c, &mut Rng::new(8));
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(["lower", "higher"].contains(better));
        }
    }
}
