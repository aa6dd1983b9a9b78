//! `cold`: source text → first validated result → reusable VM, for many
//! distinct programs. A sample is one program's whole lifecycle on all
//! four profiles — the mirror image of `kernels`: front end, VM build and
//! JIT are nearly all of it and execution is negligible.

use crate::extras;
use crate::inputs::{generated_program, Inputs};
use crate::lifecycle::{build_vm, compile_program, Tally};
use crate::observed::{read_dynamic, Observed};
use crate::run::{setup_floor_s, Harness, Laps, Metrics, Outcome, RunArgs};
use crate::spans::Recorder;
use conform::matrix::norm_result;
use hpcnet_core::json::Json;
use hpcnet_runtime::Value;
use hpcnet_vm::{ObserveLevel, OptShare, Vm, VmProfile};
use std::sync::Arc;
use std::time::Instant;

const MIN_PASSES: usize = 6;

/// The oracle (`sscli10`, the interpreter) goes last: the other three are
/// compared with it.
fn profiles() -> [VmProfile; 4] {
    [
        VmProfile::clr11_compiled(),
        VmProfile::clr11(),
        VmProfile::mono023(),
        VmProfile::sscli10(),
    ]
}

/// What a lifecycle is timed in: the front end, then each of
/// [`profiles`]. A program's floor is the sum of its stages' floors.
const STAGES: [&str; 5] = ["front end", "clr11_compiled", "clr11", "mono023", "sscli10"];

/// One program and its one short entry call.
struct Program {
    label: String,
    source: String,
    entry: &'static str,
    args: Vec<Value>,
}

fn programs(inputs: &Inputs) -> Vec<Program> {
    let generated = inputs.generated.iter().enumerate().map(|(i, src)| Program {
        label: format!("gen-{}", crate::inputs::GEN_BASE_SEED + i as u64),
        source: src.clone(),
        entry: "Gen.Run",
        args: vec![Value::I4(3), Value::I4(5)],
    });
    let grande = inputs.cold.iter().map(|r| Program {
        label: r.group.id.to_string(),
        source: r.group.source.to_string(),
        entry: r.entry.entry,
        args: vec![Value::I4(r.n)],
    });
    generated.chain(grande).collect()
}

/// The lifecycle the issue fixes: front end and verify once, then per
/// profile (sharing one `OptShare`, as serve and conform do) build, init,
/// JIT, first call, snapshot, second call, reset, verify. Returns the
/// digest of everything observable, or the first disagreement.
///
/// `stage_ms` receives the time of each of the [`STAGES`]: the front end,
/// then each profile. `restored` adds up `ResetStats::objects_restored`;
/// with `observed` the VMs are built observing and their exact counts are
/// added to it.
fn lifecycle(
    p: &Program,
    rec: &mut Recorder,
    stage_ms: &mut [f64],
    tally: &mut Tally,
    restored: &mut u64,
    mut observed: Option<&mut Observed>,
) -> Result<String, String> {
    let mut mark = Instant::now();
    let mut stage = 0;
    let mut stage_done = |stage_ms: &mut [f64]| {
        stage_ms[stage] = mark.elapsed().as_secs_f64() * 1e3;
        stage += 1;
        mark = Instant::now();
    };
    let observe = match observed {
        Some(_) => ObserveLevel::Trace,
        None => ObserveLevel::Off,
    };
    let root = rec.enter("program");
    let module = compile_program(&p.source, rec, tally)?;
    let share = Arc::new(OptShare::new());
    stage_done(stage_ms);
    let mut outcomes: Vec<String> = Vec::with_capacity(4);
    for profile in profiles() {
        let ps = rec.enter("profile");
        let vm: Arc<Vm> = build_vm(&module, &share, profile.with_observe(observe), rec, tally)?;
        let call = |vm: &Arc<Vm>| norm_result(vm, vm.invoke_by_name(p.entry, p.args.clone()));
        let first = rec.span("vm.first_run", || call(&vm));
        let snap = rec.span("vm.snapshot", || vm.snapshot());
        let second = rec.span("vm.rerun", || call(&vm));
        let reset = rec
            .span("vm.reset", || vm.reset_to(&snap))
            .map_err(|e| format!("{}: reset: {e}", p.label))?;
        let leaks = rec.span("vm.verify", || vm.verify_snapshot(&snap));
        rec.exit(ps);
        if leaks != 0 {
            return Err(format!(
                "{} on {}: {leaks} state differences after reset",
                p.label, profile.name
            ));
        }
        if first.starts_with("internal:") || first == "limit" {
            return Err(format!("{} on {}: {first}", p.label, profile.name));
        }
        *restored += reset.objects_restored;
        if let Some(o) = observed.as_deref_mut() {
            // `reset_to` rewound the heap accounting to the snapshot, so
            // allocations are the program's up to its first result.
            o.add_dynamic(&read_dynamic(&vm));
            o.add_jit(&vm);
        }
        outcomes.push(format!("{first}|{second}"));
        drop(vm); // tearing the VM down is part of its stage
        stage_done(stage_ms);
    }
    if let Some(o) = observed {
        o.add_share(&share);
    }
    rec.exit(root);
    let oracle = outcomes.last().expect("four profiles");
    match outcomes.iter().position(|o| o != oracle) {
        Some(i) => Err(format!(
            "{} on {}: {} disagrees with the sscli10 oracle {oracle}",
            p.label,
            profiles()[i].name,
            outcomes[i]
        )),
        None => Ok(outcomes.join(";")),
    }
}

pub fn run(args: &RunArgs, inputs: &Inputs) -> Result<Outcome, String> {
    let mut h = Harness::new(inputs.reference_spin_ms);

    // Set-up is input generation only: everything else is the timed part.
    // One round after every pass.
    let mut rounds: Vec<(u32, Vec<f64>)> = Vec::new();
    let mut generation_differs = false;
    let between = |h: &mut Harness, _gone: f64| {
        h.rec.begin_trace(false);
        let mut laps = Laps::start();
        for (i, pinned) in inputs.generated.iter().enumerate() {
            generation_differs |= generated_program(i) != *pinned;
            laps.lap(&mut h.meter, &mut h.rec);
        }
        std::hint::black_box(hpcnet_grande::registry());
        laps.lap(&mut h.meter, &mut h.rec);
        rounds.push((h.rec.trace_id(), laps.secs));
    };
    let programs = programs(inputs);

    let mut first_digest: Vec<Option<String>> = vec![None; programs.len()];
    let mut restored = 0u64;
    let one = |pi: usize, rec: &mut Recorder, stage_ms: &mut [f64]| {
        let p = &programs[pi];
        let digest = lifecycle(p, rec, stage_ms, &mut Tally::default(), &mut restored, None);
        digest.and_then(|d| match &first_digest[pi] {
            None => {
                first_digest[pi] = Some(d);
                Ok(())
            }
            Some(first) if *first == d => Ok(()),
            Some(first) => Err(format!(
                "{}: {d} differs from the first pass's {first}",
                p.label
            )),
        })
    };
    let passes = h.passes(args, programs.len(), STAGES.len(), MIN_PASSES, one, between);
    if generation_differs {
        return Err("program generation is not deterministic".into());
    }

    let speed = h.meter.factors(h.rec.trace_id());
    let mut m = Metrics::default();
    let sum = passes.summarize(&speed, args.trace, &mut m);
    m.set("setup_s", setup_floor_s(&rounds, &speed));

    if args.trace {
        h.traced_metrics(&mut m, &speed, "program");
        m.set(
            "vm.reset_objects_restored",
            (restored / sum.passes as u64) as f64,
        );

        // One more pass on observing twins for the exact counts.
        let (mut tally, mut observed) = (Tally::default(), Observed::default());
        for p in &programs {
            let rec = &mut Recorder::new();
            let unused = &mut [0.0; STAGES.len()];
            lifecycle(p, rec, unused, &mut tally, &mut 0, Some(&mut observed))?;
        }
        tally.metrics(&mut m);
        observed.metrics(&mut m);

        extras::serve(&mut m, args.seed, &mut h);
        extras::conform_matrix(&mut m, &mut h);
    }
    m.set("peak_rss_mb", crate::run::peak_rss_mb());

    // One record per program: its floor, then its stages.
    let row_docs = programs
        .iter()
        .zip(sum.stage_rows.chunks(STAGES.len()))
        .zip(&sum.floor_ms)
        .map(|((p, stages), &floor_ms)| {
            let stages = stages
                .iter()
                .zip(STAGES)
                .map(|(r, stage)| r.json(vec![("stage", Json::Str(stage.into()))]))
                .collect();
            Json::obj(vec![
                ("id", Json::Str(p.label.clone())),
                ("floor_ms", Json::num(floor_ms)),
                ("stages", Json::Arr(stages)),
            ])
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
