//! Service-level guarantees: worker-count determinism, cache accounting,
//! per-job fuel containment, and cross-tenant isolation.

use hpcnet_serve::workload::mixed_workload;
use hpcnet_serve::{run_service, JobOutcome, JobPayload, JobSpec, ServeConfig};
use hpcnet_vm::VmProfile;

fn cfg(workers: usize) -> ServeConfig {
    ServeConfig { workers }
}

/// The per-job outcomes are a pure function of the workload: 1, 2 and 8
/// workers must produce identical outcomes in submission order
/// (scheduling may differ; outcomes may not).
#[test]
fn per_job_outcomes_identical_across_worker_counts() {
    let jobs = mixed_workload(60, 7, 4096);
    let mut runs: Vec<Vec<JobOutcome>> = Vec::new();
    for workers in [1usize, 2, 8] {
        let report = run_service(&jobs, &cfg(workers));
        assert_eq!(report.total_leaks(), 0, "workers={workers}: isolation leak");
        runs.push(report.records.into_iter().map(|r| r.outcome).collect());
    }
    assert_eq!(runs[0].len(), jobs.len());
    assert_eq!(runs[0], runs[1], "1 vs 2 workers diverged");
    assert_eq!(runs[0], runs[2], "1 vs 8 workers diverged");
}

/// Cache accounting: every job performs exactly one lookup; misses equal
/// the number of distinct submitted contents, everything else hits.
#[test]
fn cache_counts_cold_compiles_and_hits() {
    let jobs = mixed_workload(52, 11, 4096);
    let distinct: std::collections::HashSet<u64> =
        jobs.iter().map(|j| j.payload.content_key()).collect();
    let report = run_service(&jobs, &cfg(2));
    assert_eq!(report.cache_misses, distinct.len() as u64);
    assert_eq!(report.cache_hits + report.cache_misses, jobs.len() as u64);
    assert!(report.hit_rate() > 0.5, "repeated programs must mostly hit");
    // Exactly one record per content performed the compile.
    let cold = report.records.iter().filter(|r| r.cold_compile).count();
    assert_eq!(cold, distinct.len());
}

/// A tenant that blows its fuel budget gets a `limit` outcome; its worker
/// and its warmed VM survive to run the next tenant.
#[test]
fn fuel_exhaustion_is_a_per_job_error_not_worker_death() {
    let hog = "class Gen {
        static long Run(int a, int b) {
            long acc = 0L;
            for (int i = 0; i < 100000000; i++) { acc = (acc + (long)i); }
            return acc;
        }
    }";
    let quick = "class Gen { static long Run(int a, int b) { return ((long)a + (long)b); } }";
    let mk = |id: u64, src: &str, fuel: Option<u64>| JobSpec {
        id,
        program: format!("job-{id}"),
        payload: JobPayload::MiniCs(src.to_string()),
        entry: "Gen.Run".into(),
        args: (3, 4),
        profile: VmProfile::clr11(),
        fuel,
    };
    // hog, then more hogs and quick jobs on one worker: every hog dies by
    // fuel, every quick job still succeeds afterwards.
    let jobs = vec![
        mk(0, hog, Some(2_000)),
        mk(1, quick, None),
        mk(2, hog, Some(2_000)),
        mk(3, quick, None),
    ];
    let report = run_service(&jobs, &cfg(1));
    let statuses: Vec<&str> = report.records.iter().map(|r| r.outcome.status).collect();
    assert_eq!(statuses, ["limit", "ok", "limit", "ok"]);
    assert_eq!(report.records[0].outcome.result, "limit:fuel budget exhausted");
    assert_eq!(report.records[0].outcome.fuel_used, Some(2_000));
    assert_eq!(report.records[1].outcome.result, "i8:7");
    // The hog's VM was reset and kept; nothing was discarded, and the
    // second hog reused the warmed VM (2 programs -> 2 warmed VMs total).
    assert_eq!(report.discarded_vms, 0);
    assert_eq!(report.warmed_vms, 2);
    assert!(report.records.iter().all(|r| r.did_reset && r.leaks == 0));
}

/// A tenant may name any entry point; one that does not take `(int, int)`
/// is an `internal` outcome on every tier — not a panic inside the engine
/// that costs the pool its warmed VM.
#[test]
fn an_entry_with_another_signature_is_refused_not_panicked() {
    let src = "class Gen {
        static long Run(int a, int b) { return ((long)a + (long)b); }
        static long One(int a) { return (long)a; }
        static long Real(double a, int b) { return (long)b; }
        static long Obj(Gen a, int b) { return (long)b; }
    }";
    let mut jobs = Vec::new();
    for profile in [VmProfile::sscli10(), VmProfile::clr11(), VmProfile::clr11_compiled()] {
        for entry in ["Gen.One", "Gen.Real", "Gen.Obj", "Gen.Run"] {
            jobs.push(JobSpec {
                id: jobs.len() as u64,
                program: "signatures".into(),
                payload: JobPayload::MiniCs(src.to_string()),
                entry: entry.into(),
                args: (3, 4),
                profile,
                fuel: None,
            });
        }
    }
    let report = run_service(&jobs, &cfg(1));
    let want = [
        "internal:argument mismatch calling Gen.One: expected (i4), got (i4, i4)",
        "internal:argument mismatch calling Gen.Real: expected (r8, i4), got (i4, i4)",
        "internal:argument mismatch calling Gen.Obj: expected (ref, i4), got (i4, i4)",
        "i8:7",
    ];
    for (tier, records) in report.records.chunks(want.len()).enumerate() {
        let got: Vec<&str> = records.iter().map(|r| r.outcome.result.as_str()).collect();
        assert_eq!(got, want, "tier {tier}");
    }
    // One warmed VM per profile served all four of its jobs.
    assert_eq!((report.warmed_vms, report.discarded_vms), (3, 0));
    assert!(report.records.iter().all(|r| r.did_reset && r.leaks == 0));
}

/// Static state and console output never cross tenants: repeated runs of
/// a statics-mutating, printing program all report first-run state, and a
/// trapping tenant's lines stay in its own harvest.
#[test]
fn tenants_are_isolated_on_statics_and_console() {
    let statics = "class Gen {
        static long tally = 0L;
        static long Run(int a, int b) {
            tally = (tally + (long)(a * b));
            Console.WriteLine(\"L:\" + tally);
            return tally;
        }
    }";
    let trap = "class Gen {
        static long Run(int a, int b) {
            Console.WriteLine(\"mine\");
            int[] xs = new int[2];
            xs[5] = a;
            return 0L;
        }
    }";
    let mk = |id: u64, src: &str| JobSpec {
        id,
        program: format!("job-{id}"),
        payload: JobPayload::MiniCs(src.to_string()),
        entry: "Gen.Run".into(),
        args: (6, 7),
        profile: VmProfile::clr11_compiled(),
        fuel: None,
    };
    let jobs = vec![mk(0, statics), mk(1, trap), mk(2, statics), mk(3, statics)];
    let report = run_service(&jobs, &cfg(1));
    for i in [0usize, 2, 3] {
        let o = &report.records[i].outcome;
        assert_eq!(o.status, "ok", "job {i}");
        assert_eq!(o.result, "i8:42", "job {i}: statics must reset between tenants");
        assert_eq!(o.console, ["L:42"], "job {i}");
    }
    let t = &report.records[1].outcome;
    assert_eq!(t.status, "trap");
    assert_eq!(t.result, "trap:IndexOutOfRangeException");
    assert_eq!(t.console, ["mine"], "trap harvest keeps only its own lines");
    assert_eq!(report.total_leaks(), 0);
}

/// The mixed workload exercises the failure paths: at least one job runs
/// out of fuel and at least one traps, and each surfaces as such.
#[test]
fn mixed_workload_surfaces_fuel_limits_and_traps() {
    let jobs = mixed_workload(24, 3, 4096);
    let report = run_service(&jobs, &cfg(2));
    let results: Vec<&str> = report
        .records
        .iter()
        .map(|r| r.outcome.result.as_str())
        .collect();
    assert!(
        results.contains(&"limit:fuel budget exhausted"),
        "{results:?}"
    );
    assert!(
        results.iter().any(|r| r.starts_with("trap:")),
        "{results:?}"
    );
    assert_eq!(report.total_leaks(), 0);
}
