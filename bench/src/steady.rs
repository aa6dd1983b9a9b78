//! `kernels`, `runtime`, `lineup`: warm VMs, JIT finished in set-up, one
//! `run_entry` call per sample. Closed loop, one thread: the next call is
//! issued when the previous one returns.

use crate::inputs::{Inputs, Row};
use crate::lifecycle::{build_vm, compile_program, Tally};
use crate::observed::{read_dynamic, since, Dynamic, Observed, ALLOCS, CALLS, OPS, THROWS};
use crate::run::{setup_floor_s, Harness, Laps, Metrics, Outcome, RunArgs};
use crate::spans::Recorder;
use crate::stats;
use hpcnet_core::json::Json;
use hpcnet_grande::{run_entry, Entry};
use hpcnet_vm::{ObserveLevel, OptShare, Tier, Vm, VmProfile};
use std::sync::Arc;
use std::time::Instant;

/// Fresh-VM set-up rounds per run (see `run::setup_floor_s`).
const SETUP_ROUNDS: usize = 12;
const WARMUP_CALLS: usize = 5;
/// Passes made even when `--seconds` is tiny, so every row has a floor.
const MIN_PASSES: usize = 12;

fn profiles(workload: &str) -> Vec<VmProfile> {
    match workload {
        "lineup" => vec![
            VmProfile::clr11(),
            VmProfile::mono023(),
            VmProfile::sscli10(),
        ],
        _ => vec![VmProfile::clr11_compiled()],
    }
}

/// One (row, profile) pair and the warm VM it runs on. Rows of one Grande
/// group share a VM per profile.
struct Cell {
    row: usize,
    profile: usize,
    vm: Arc<Vm>,
    entry: Entry,
    n: i32,
}

struct Warm {
    /// Ordered by (row, profile).
    cells: Vec<Cell>,
    vms: Vec<Arc<Vm>>,
    shares: Vec<Arc<OptShare>>,
}

/// Source → warmed VM for every row: front end, verify, VM build, static
/// init, JIT of every method, then the warm-up calls.
fn set_up(
    rows: &[Row],
    profiles: &[VmProfile],
    observe: ObserveLevel,
    h: &mut Harness,
    tally: &mut Tally,
) -> Result<(Warm, Laps), String> {
    let Harness { rec, meter, .. } = h;
    let mut laps = Laps::start();
    let root = rec.enter("setup");
    let mut warm = Warm {
        cells: Vec::new(),
        vms: Vec::new(),
        shares: Vec::new(),
    };
    let mut built: Vec<&str> = Vec::new();
    for row in rows {
        if built.contains(&row.group.id) {
            continue;
        }
        built.push(row.group.id);
        let prog = rec.enter("program");
        let module = compile_program(row.group.source, rec, tally)?;
        laps.lap(meter, rec);
        let share = Arc::new(OptShare::new());
        for (pi, p) in profiles.iter().enumerate() {
            let ps = rec.enter("profile");
            let vm = build_vm(&module, &share, p.with_observe(observe), rec, tally)?;
            rec.exit(ps);
            laps.lap(meter, rec);
            for (ri, r) in rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.group.id == row.group.id)
            {
                warm.cells.push(Cell {
                    row: ri,
                    profile: pi,
                    vm: vm.clone(),
                    entry: r.entry.clone(),
                    n: r.n,
                });
            }
            warm.vms.push(vm);
        }
        warm.shares.push(share);
        rec.exit(prog);
    }
    warm.cells.sort_by_key(|c| (c.row, c.profile));
    let w = rec.enter("warmup");
    for c in &warm.cells {
        for _ in 0..WARMUP_CALLS {
            run_entry(&c.vm, &c.entry, c.n)
                .map_err(|e| format!("warm-up of {}: {e}", c.entry.id))?;
            laps.lap(meter, rec);
        }
    }
    rec.exit(w);
    rec.exit(root);
    Ok((warm, laps))
}

fn jit_compiles(warm: &Warm) -> u64 {
    warm.vms
        .iter()
        .map(|vm| vm.counters.snapshot().jit_compiles)
        .sum()
}

/// One call per cell on observing twins of the timed VMs: what each cell
/// counts, exactly; the sums and the twins' JIT facts go to `m`.
fn probe(
    rows: &[Row],
    profiles: &[VmProfile],
    reference_spin_ms: f64,
    m: &mut Metrics,
) -> Result<Vec<Dynamic>, String> {
    let mut tally = Tally::default();
    let (warm, _) = set_up(
        rows,
        profiles,
        ObserveLevel::Trace,
        &mut Harness::new(reference_spin_ms),
        &mut tally,
    )?;
    let mut observed = Observed::default();
    let mut per_cell = Vec::with_capacity(warm.cells.len());
    for cell in &warm.cells {
        let before = read_dynamic(&cell.vm);
        run_entry(&cell.vm, &cell.entry, cell.n)
            .map_err(|e| format!("probe of {}: {e}", cell.entry.id))?;
        let counted = since(read_dynamic(&cell.vm), before);
        observed.add_dynamic(&counted);
        per_cell.push(counted);
    }
    warm.vms.iter().for_each(|vm| observed.add_jit(vm));
    warm.shares.iter().for_each(|s| observed.add_share(s));
    observed.metrics(m);
    tally.metrics(m);
    Ok(per_cell)
}

pub fn run(args: &RunArgs, inputs: &Inputs) -> Result<Outcome, String> {
    let rows = inputs.steady_rows(&args.workload);
    let profiles = profiles(&args.workload);
    let mut h = Harness::new(inputs.reference_spin_ms);

    // Set-up, several times over on fresh VMs: once before the passes —
    // those VMs are the ones timed — and the rest spread between them.
    let mut rounds: Vec<(u32, Vec<f64>)> = Vec::with_capacity(SETUP_ROUNDS);
    let mut round = |h: &mut Harness| -> Result<Warm, String> {
        h.rec.begin_trace(args.trace);
        let tally = &mut Tally::default();
        let (warm, laps) = set_up(rows, &profiles, ObserveLevel::Off, h, tally)?;
        rounds.push((h.rec.trace_id(), laps.secs));
        Ok(warm)
    };
    let warm = round(&mut h)?;
    let jit_after_warmup = jit_compiles(&warm);
    let (mut rounds_done, mut round_failed) = (1, None);

    let cells = &warm.cells;
    let mut first_bits: Vec<Option<u64>> = vec![None; rows.len()];
    let one = |ci: usize, rec: &mut Recorder, stage_ms: &mut [f64]| {
        let c = &cells[ci];
        let row = rec.enter("row");
        let t0 = Instant::now();
        let inv = rec.enter("vm.invoke");
        let r = run_entry(&c.vm, &c.entry, c.n);
        rec.exit(inv);
        stage_ms[0] = t0.elapsed().as_secs_f64() * 1e3;
        let val = rec.enter("validate");
        // The first sample of a row answers to the registry's native
        // oracle; every other sample, on any profile, to that one.
        let verdict = match r {
            Err(e) => Err(format!("{}: {e}", c.entry.id)),
            Ok(v) => match first_bits[c.row] {
                None => {
                    first_bits[c.row] = Some(v.to_bits());
                    (c.entry.validate)(c.n, v).map_err(|e| format!("{}: {e}", c.entry.id))
                }
                Some(bits) if bits == v.to_bits() => Ok(()),
                Some(bits) => Err(format!(
                    "{} on {}: {v} differs bitwise from the row's first result {}",
                    c.entry.id,
                    profiles[c.profile].name,
                    f64::from_bits(bits)
                )),
            },
        };
        rec.exit(val);
        rec.exit(row);
        verdict
    };
    let between = |h: &mut Harness, gone: f64| {
        if rounds_done < SETUP_ROUNDS && gone * SETUP_ROUNDS as f64 >= rounds_done as f64 {
            rounds_done += 1;
            round_failed = round(h).err().or(round_failed.take());
        }
    };
    let passes = h.passes(args, cells.len(), 1, MIN_PASSES, one, between);
    if let Some(e) = round_failed {
        return Err(e);
    }
    let jitted_late = jit_compiles(&warm) - jit_after_warmup;
    h.check(if jitted_late == 0 {
        Ok(())
    } else {
        Err(format!("{jitted_late} methods JIT-ed after warm-up"))
    });

    let speed = h.meter.factors(h.rec.trace_id());
    let mut m = Metrics::default();
    let sum = passes.summarize(&speed, args.trace, &mut m);
    let floor_ms = &sum.floor_ms;
    m.set("setup_s", setup_floor_s(&rounds, &speed));
    m.set("peak_rss_mb", crate::run::peak_rss_mb());

    let mut counts = None;
    if args.trace {
        h.traced_metrics(&mut m, &speed, "vm.invoke");

        let tier_ms = |tier: Tier| {
            cells
                .iter()
                .zip(floor_ms)
                .filter(|(c, _)| profiles[c.profile].tier == tier)
                .fold(0.0, |sum, (_, f)| sum + f)
        };
        m.set("vm.compiled_ms", tier_ms(Tier::Compiled));
        m.set("vm.exec_ms", tier_ms(Tier::Rir));
        m.set("vm.interp_ms", tier_ms(Tier::Interpreter));

        // SciMark composite (the paper's Graph 9 unit) on the workload's
        // first profile: mean over the kernels of flops / floor.
        let mflops: Vec<f64> = cells
            .iter()
            .zip(floor_ms)
            .filter(|(c, _)| c.profile == 0 && c.entry.id.starts_with("scimark."))
            .map(|(c, f)| (c.entry.ops)(c.n) / (f * 1e3))
            .collect();
        m.set("vm.scimark_mflops", stats::mean(&mflops));

        if args.workload == "lineup" {
            let over_clr = |p: usize| {
                let ratios: Vec<f64> = (0..rows.len())
                    .map(|r| floor_ms[r * profiles.len() + p] / floor_ms[r * profiles.len()])
                    .collect();
                stats::geomean(&ratios)
            };
            m.set("shape.mono_over_clr", over_clr(1));
            m.set("shape.rotor_over_clr", over_clr(2));
        }

        let c = probe(rows, &profiles, inputs.reference_spin_ms, &mut m)?;
        let ops: u64 = c.iter().map(|d| d[OPS]).sum();
        m.set(
            "vm.ns_per_op",
            floor_ms.iter().sum::<f64>() * 1e6 / ops as f64,
        );
        // Unit costs of the runtime paths, each from the row built to
        // isolate it (first profile); 0 where the workload lacks the row.
        let per = |m: &mut Metrics, metric, ids: &[&str], units: &dyn Fn(usize) -> f64| {
            let hit: Vec<usize> = (0..cells.len())
                .filter(|&i| cells[i].profile == 0 && ids.contains(&cells[i].entry.id))
                .collect();
            let work: f64 = hit.iter().map(|&i| units(i)).sum();
            if work > 0.0 {
                m.set(
                    metric,
                    hit.iter().map(|&i| floor_ms[i]).sum::<f64>() * 1e6 / work,
                );
            }
        };
        per(&mut m, "runtime.ns_per_alloc", &["create.objects"], &|i| {
            c[i][ALLOCS] as f64
        });
        per(&mut m, "runtime.ns_per_throw", &["exception.throw"], &|i| {
            c[i][THROWS] as f64
        });
        per(&mut m, "runtime.ns_per_call", &["method.virtual"], &|i| {
            c[i][CALLS] as f64
        });
        per(&mut m, "runtime.ns_per_lock", &["lock.uncontended"], &|i| {
            f64::from(cells[i].n)
        });
        per(
            &mut m,
            "runtime.ns_per_math_call",
            &["math.sin", "math.pow"],
            &|i| f64::from(cells[i].n),
        );
        counts = Some(c);
    }

    let row_docs = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut head = vec![
                ("id", Json::Str(c.entry.id.into())),
                ("profile", Json::Str(profiles[c.profile].name.into())),
                ("n", Json::num(f64::from(c.n))),
            ];
            if let Some(counts) = &counts {
                head.push(("ops", Json::num(counts[i][OPS] as f64)));
                head.push(("allocs", Json::num(counts[i][ALLOCS] as f64)));
            }
            sum.stage_rows[i].json(head)
        })
        .collect();
    let detail = Json::obj(vec![
        ("passes", Json::num(sum.passes as f64)),
        (
            "setup_rounds_s",
            Json::Arr(rounds.iter().map(|r| Json::num(r.1.iter().sum())).collect()),
        ),
        ("rows", Json::Arr(row_docs)),
    ]);
    Ok(Outcome {
        attempted: h.attempted,
        failed: h.failed,
        failures: h.failures,
        metrics: m,
        detail,
        spans: h.rec.take_spans(),
    })
}
