//! `oracle-fuzz`: programs generated in set-up from the workload seed,
//! each put through the six-variant differential coherence oracle.
//!
//! The program sees only source text. The work is the compiler, the VM
//! and the functional cache; no replay engine, timing model or serve.
//! `Fail` verdicts count as failed operations; `Skip` verdicts (a build
//! ran out of its step budget) are reported as `oracle.skip_ratio`.

use std::time::Instant;

use ucm_cache::CacheConfig;
use ucm_core::check::run_program_with_oracle;
use ucm_core::pipeline::{compile, CompilerOptions};
use ucm_core::ManagementMode;
use ucm_fuzz::oracle::{Codegen, VARIANTS};
use ucm_fuzz::rng::Rng;
use ucm_fuzz::{check_source, generate_source, CheckConfig, CheckOutcome, FailureKind};
use ucm_machine::{VmConfig, VmError};

use crate::layers::{rate, FrontEnd, Layers};
use crate::spans::Tracer;
use crate::stats::{error_rate, Ratio, Samples};
use crate::{peak_rss_mb, repeated_setup, Args, Report};

/// Fewest programs a run checks, so the per-program p99 has ten
/// samples beyond it.
const MIN_PROGRAMS: usize = 1000;

/// Programs per second of `--seconds` past that floor. The count is
/// fixed before the run, so every run of a seed checks the same set.
const PROGRAMS_PER_SECOND: f64 = 30.0;

/// Programs the traced run checks in each of its two passes.
const TRACED_PROGRAMS: usize = 300;

/// One generated program.
struct Program {
    seed: u64,
    source: String,
}

/// The first `n` programs of the seed stream `ucmc fuzz --seed` walks.
fn generate(seed: u64, n: usize) -> Vec<Program> {
    let mut seeds = Rng::new(seed);
    (0..n)
        .map(|_| {
            let seed = seeds.next_u64();
            Program {
                seed,
                source: generate_source(seed),
            }
        })
        .collect()
}

/// Verdict tallies, with one line per `Fail` for the caller to print.
#[derive(Default)]
struct Verdicts {
    pass: u64,
    skip: u64,
    fail: u64,
    fail_lines: Vec<String>,
}

impl Verdicts {
    fn add(&mut self, p: &Program, o: &CheckOutcome) {
        match o {
            CheckOutcome::Pass => self.pass += 1,
            CheckOutcome::Skip { .. } => self.skip += 1,
            CheckOutcome::Fail(r) => {
                self.fail += 1;
                self.fail_lines.push(format!(
                    "oracle fail: program seed {}: {}: {}",
                    p.seed, r.kind, r.detail
                ));
            }
        }
    }

    fn total(&self) -> u64 {
        self.pass + self.skip + self.fail
    }
}

/// Runs `oracle-fuzz`.
pub fn run(args: &Args) -> Result<Report, String> {
    let count = ((args.seconds * PROGRAMS_PER_SECOND).ceil() as usize).max(MIN_PROGRAMS);
    let (programs, setup_s) = repeated_setup(|| Ok(generate(args.seed, count)))?;
    if args.trace {
        return traced(&programs[..TRACED_PROGRAMS]);
    }
    let cfg = CheckConfig::default();
    let mut lat = Vec::with_capacity(count);
    let mut v = Verdicts::default();
    for p in &programs {
        let t = Instant::now();
        let outcome = check_source(&p.source, &cfg);
        lat.push(t.elapsed().as_secs_f64());
        v.add(p, &outcome);
    }
    let busy: f64 = lat.iter().sum();
    let lat = Samples::new(lat.iter().map(|s| s * 1e3).collect());
    let skip = Ratio::new(v.skip as f64, v.total() as f64);
    for line in &v.fail_lines {
        eprintln!("{line}");
    }
    eprintln!(
        "{}: {} programs ({} pass, {} skip, {} fail), {busy:.3} s busy; per-program latency {} {}; \
         highest supported {}; skip ratio {skip}; error_rate {}",
        args.workload,
        v.total(),
        v.pass,
        v.skip,
        v.fail,
        lat.describe(50.0),
        lat.describe(99.0),
        lat.describe_tail(),
        error_rate(v.fail, v.total())
    );
    Ok(Report {
        // Every program got a verdict; a `Fail` verdict is the oracle
        // reporting a real defect, counted in `failed`.
        correct: true,
        attempted: v.total(),
        failed: v.fail,
        metrics: vec![
            ("setup_s".into(), setup_s, "s"),
            ("throughput_per_s".into(), v.total() as f64 / busy, "1/s"),
            ("latency_p50_ms".into(), lat.pct(50.0), "ms"),
            ("latency_p99_ms".into(), lat.pct(99.0), "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ],
    })
}

/// What re-driving one program variant by variant observed.
#[derive(Default)]
struct Redrive {
    violations: u64,
    budget_trap: bool,
}

/// Compiles and runs every variant of `source` under the coherence
/// oracle, one span per public call — the split `check_source` hides.
fn redrive(source: &str, cfg: &CheckConfig, tr: &mut Tracer, n: &mut FrontEnd) -> Redrive {
    let checked = tr.time("lang.parse_check", || ucm_lang::parse_and_check(source));
    std::hint::black_box(checked.is_ok());
    let mut r = Redrive::default();
    for &(codegen, mode) in &VARIANTS {
        let base = match codegen {
            Codegen::Paper => CompilerOptions::paper(),
            Codegen::Modern => CompilerOptions::default(),
        };
        let options = CompilerOptions { mode, ..base };
        n.compiles += 1;
        let Ok(compiled) = tr.time("compile", || compile(source, &options)) else {
            continue;
        };
        let cache: CacheConfig = if mode == ManagementMode::Conventional {
            cfg.cache.conventional()
        } else {
            cfg.cache
        };
        let vm = VmConfig {
            mem_words: cfg.mem_words,
            max_steps: cfg.max_steps,
            trace_fetches: false,
        };
        n.vm_runs += 1;
        match tr.time("vm", || {
            run_program_with_oracle(&compiled.program, cache, &vm)
        }) {
            Ok(rep) => {
                n.vm_steps += rep.outcome.steps;
                n.vm_refs += rep.refs;
                r.violations += rep.violations;
            }
            Err(VmError::StepLimit | VmError::StackOverflow) => r.budget_trap = true,
            Err(_) => {}
        }
    }
    r
}

/// Whether the re-drive agrees with `check_source`'s verdict.
fn agrees(o: &CheckOutcome, r: &Redrive) -> bool {
    match o {
        CheckOutcome::Skip { .. } => r.budget_trap,
        CheckOutcome::Pass => !r.budget_trap && r.violations == 0,
        CheckOutcome::Fail(f) if f.kind == FailureKind::Coherence => r.violations > 0,
        CheckOutcome::Fail(_) => !r.budget_trap,
    }
}

/// What one pass over the programs observed.
#[derive(Default)]
struct Pass {
    verdicts: Verdicts,
    disagree: u64,
    /// Seconds inside `check_source`.
    checked_s: f64,
    front: FrontEnd,
}

/// Each program through `check_source`, then re-driven variant by
/// variant, with spans around every public call.
fn pass(programs: &[Program], cfg: &CheckConfig, tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    for (i, prog) in programs.iter().enumerate() {
        tr.set_op(i as u64);
        let op = tr.begin("program");
        let c = tr.begin("check_source");
        let t = Instant::now();
        let outcome = check_source(&prog.source, cfg);
        p.checked_s += t.elapsed().as_secs_f64();
        tr.end(c);
        p.verdicts.add(prog, &outcome);
        let r = redrive(&prog.source, cfg, tr, &mut p.front);
        if !agrees(&outcome, &r) {
            eprintln!(
                "program seed {}: re-drive disagrees with the verdict",
                prog.seed
            );
            p.disagree += 1;
        }
        tr.end(op);
    }
    p
}

/// The same pass twice: through a tracer that records nothing, then
/// traced. The difference between the two is the tracing overhead.
fn traced(programs: &[Program]) -> Result<Report, String> {
    let cfg = CheckConfig::default();
    let t = Instant::now();
    let untraced = pass(programs, &cfg, &mut Tracer::off());
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new();
    let wall = Instant::now();
    let p = pass(programs, &cfg, &mut tr);
    let wall_s = wall.elapsed().as_secs_f64();
    let (v, checked_s) = (&p.verdicts, p.checked_s);
    let disagree = p.disagree.max(untraced.disagree);

    let skip = Ratio::new(v.skip as f64, v.total() as f64);
    let mut m = Layers::default();
    m.set_front_end(&tr, &p.front);
    m.set("oracle.runs", (VARIANTS.len() as u64 * v.total()) as f64);
    m.set("oracle.busy_s", checked_s);
    m.set("oracle.refs_per_s", rate(p.front.vm_refs as f64, checked_s));
    m.set("oracle.skip_ratio", skip.value());
    m.set("oracle.fail_count", v.fail as f64);
    m.set_trace(&tr, wall_s, untraced_s);

    eprint!("{}", tr.table(wall_s));
    for line in &v.fail_lines {
        eprintln!("{line}");
    }
    eprintln!(
        "{} programs: {} pass, {} skip, {} fail; check_source {checked_s:.6} s",
        v.total(),
        v.pass,
        v.skip,
        v.fail
    );
    eprintln!("oracle.skip_ratio = skipped / checked = {skip}");
    eprintln!(
        "oracle.refs_per_s = oracle refs / check_source s = {} / {checked_s:.6}",
        p.front.vm_refs
    );
    tr.save();
    Ok(Report {
        correct: disagree == 0,
        attempted: v.total(),
        failed: v.fail + disagree,
        metrics: m.into_metrics(),
    })
}
