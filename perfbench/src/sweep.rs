//! `sweep-long` and `sweep-many`: the committed grid, timed through
//! `run_sweep` on one worker, every cell checked against the committed
//! artifact.
//!
//! The traced run re-drives the same sweep through the public stage
//! functions (`record_group_with`, `derive_cells`, `replay_stack`,
//! `replay_fused`, `assemble_report`) to split the time `run_sweep`
//! hides, doing the work `run_sweep` does and no more: traces it would
//! merge as behaviour-equivalent are merged here too. The re-driven
//! artifact must equal `run_sweep`'s byte for byte, and its engine
//! partition must equal the one `run_sweep` reports in `SweepTimings`.

use std::sync::Arc;
use std::time::Instant;

use ucm_bench::analysis::derive_cells;
use ucm_bench::sweep::{
    assemble_report, record_group_with, replay_cells, replay_fused, replay_stack, run_sweep,
    stack_eligible, Codegen, RecordedTrace, SweepConfig, SweepError, SweepReport, SweepTimings,
};
use ucm_cache::{CacheConfig, CacheStats};
use ucm_core::pipeline::{compile, CompilerOptions};
use ucm_core::ManagementMode;
use ucm_machine::{Flavour, MemEvent, PackedTrace, TraceRecord};

use crate::layers::{rate, FrontEnd, Layers};
use crate::reference::Reference;
use crate::spans::Tracer;
use crate::stats::{error_rate, Ratio, Samples};
use crate::{one_worker, peak_rss_mb, repeated_setup, Args, Report};

/// Seconds of `--seconds` per `sweep-long` sweep; the sweep count is
/// fixed from it before the run. A sweep takes 10–17 s on one worker of
/// a shared 2-vCPU box whose speed shifts for tens of seconds at a time,
/// so a run makes more sweeps than `--seconds` would hold and spans more
/// of those shifts.
const SECONDS_PER_LONG_SWEEP: f64 = 10.0;

/// Seconds of `--seconds` per `sweep-many` sweep (1.0–1.6 s each on the
/// same box).
const SECONDS_PER_MANY_SWEEP: f64 = 1.0;

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `puzzle`, modern codegen, unified mode, full geometry ×
    /// write-policy × replacement axes, timed.
    Long,
    /// The other 18 grid workloads across every axis, untimed, default
    /// options.
    Many,
}

/// The grid of a sweep workload, cut from the committed full grid.
fn config(kind: Kind) -> SweepConfig {
    let mut cfg = SweepConfig::full();
    match kind {
        Kind::Long => {
            cfg = cfg.with_timing();
            cfg.workloads.retain(|w| w.name == "puzzle");
            cfg.codegens = vec![Codegen::Modern];
            cfg.modes = vec![ManagementMode::Unified];
        }
        Kind::Many => cfg.workloads.retain(|w| w.name != "puzzle"),
    }
    cfg
}

struct Setup {
    cfg: SweepConfig,
    reference: Reference,
}

/// Builds the grid (each workload's native reference output included)
/// and indexes the committed artifact.
fn setup(kind: Kind) -> Result<Setup, String> {
    let cfg = config(kind);
    let reference = Reference::load()?;
    if reference.len() == 0 {
        return Err("the committed artifact holds no cells".into());
    }
    Ok(Setup { cfg, reference })
}

/// Runs one sweep workload.
pub fn run(kind: Kind, args: &Args) -> Result<Report, String> {
    let (s, setup_s) = repeated_setup(|| setup(kind))?;
    if args.trace {
        return traced(&s);
    }
    let pool = one_worker();
    let cells = s.cfg.cell_count() as u64;
    // A fixed count, so every run does the same work whatever the
    // machine's speed.
    let per_sweep = match kind {
        Kind::Long => SECONDS_PER_LONG_SWEEP,
        Kind::Many => SECONDS_PER_MANY_SWEEP,
    };
    let sweeps = (args.seconds / per_sweep).ceil().max(1.0) as usize;
    let mut sweep_s = Vec::with_capacity(sweeps);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for _ in 0..sweeps {
        let t = Instant::now();
        let r = pool.install(|| run_sweep(&s.cfg));
        let dt = t.elapsed().as_secs_f64();
        attempted += cells;
        sweep_s.push(dt);
        match r {
            Ok(report) => failed += s.reference.mismatches(&report),
            Err(e) => {
                eprintln!("sweep failed: {e}");
                failed += cells;
            }
        }
    }
    let busy: f64 = sweep_s.iter().sum();
    let each: Vec<String> = sweep_s.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("per-sweep seconds: {}", each.join(" "));
    let lat = Samples::new(sweep_s.iter().map(|s| s * 1e3).collect());
    eprintln!(
        "{}: {} sweeps of {cells} cells, {:.3} s busy; per-sweep latency {} {}; \
         highest supported {}; error_rate {}",
        args.workload,
        lat.len(),
        busy,
        lat.describe(50.0),
        lat.describe(99.0),
        lat.describe_tail(),
        error_rate(failed, attempted)
    );
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s".into(), setup_s, "s"),
            (
                "throughput_per_s".into(),
                (attempted - failed) as f64 / busy,
                "1/s",
            ),
            ("latency_p50_ms".into(), lat.pct(50.0), "ms"),
            ("latency_p99_ms".into(), lat.pct(99.0), "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ],
    })
}

/// Work counts the re-drive accumulates next to its spans.
#[derive(Default)]
struct Counts {
    front: FrontEnd,
    groups: u64,
    trace_bytes: u64,
    merged_traces: u64,
    analysis_calls: u64,
    analysis_attempted: u64,
    analysis_served: u64,
    stack_cells: u64,
    stack_cell_refs: u64,
    fused_cells: u64,
    fused_cell_refs: u64,
    sim_cycles: u64,
    assembled_bytes: u64,
}

/// One pass of the traced run: the stage-by-stage re-drive, then the
/// byte check against `run_sweep`'s artifact. `Ok(false)` when the bytes
/// differ.
fn pass(
    cfg: &SweepConfig,
    pool: &rayon::ThreadPool,
    expected: &str,
    tr: &mut Tracer,
    n: &mut Counts,
) -> Result<bool, String> {
    tr.set_op(1);
    let op = tr.begin("sweep");
    let redriven = pool.install(|| redrive(cfg, tr, n));
    let same = redriven.map(|r| tr.time("check", || r.to_json() == expected));
    tr.end(op);
    same
}

/// One `run_sweep` for the reference bytes and its `SweepTimings`, then
/// the same re-drive twice: through a tracer that records nothing, and
/// traced. The difference between the two passes is the tracing overhead.
fn traced(s: &Setup) -> Result<Report, String> {
    let pool = one_worker();
    let cfg = &s.cfg;
    let report = pool.install(|| run_sweep(cfg)).map_err(|e| e.to_string())?;
    let mut failed = s.reference.mismatches(&report);
    let expected = report.to_json();
    let tm = report.timings;
    let cells = report.cells.len() as u64;
    drop(report);

    let t = Instant::now();
    let same_untraced = pass(
        cfg,
        &pool,
        &expected,
        &mut Tracer::off(),
        &mut Counts::default(),
    )?;
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new();
    let mut n = Counts::default();
    let wall = Instant::now();
    let same = pass(cfg, &pool, &expected, &mut tr, &mut n)? && same_untraced;
    let wall_s = wall.elapsed().as_secs_f64();
    if !same {
        eprintln!("re-driven artifact differs from run_sweep's");
    }
    let partition = [
        ("stack", n.stack_cells, tm.stack_cells),
        ("fused", n.fused_cells, tm.fused_cells),
        ("analysis", n.analysis_served, tm.analysis_cells),
    ];
    let same_partition = partition.iter().all(|&(_, a, b)| a == b as u64);
    for (engine, redriven, reported) in partition {
        eprintln!("{engine} cells: re-drive {redriven}, SweepTimings {reported}");
    }
    if !same_partition {
        eprintln!("re-drive's engine partition differs from run_sweep's");
    }

    // Cell splits come from run_sweep's own SweepTimings; busy times
    // from the re-drive's spans, which cover the same cells.
    let total = |name: &str| tr.total_s(name);
    let mut m = Layers::default();
    m.set_front_end(&tr, &n.front);
    m.set("record.groups", n.groups as f64);
    m.set(
        "record.busy_s",
        tr.layers().0.get("record").map_or(0.0, |x| x.self_s),
    );
    m.set("record.trace_mb", n.trace_bytes as f64 / 1e6);
    let served = Ratio::new(tm.analysis_cells as f64, n.analysis_attempted as f64);
    m.set("analysis.calls", n.analysis_calls as f64);
    m.set("analysis.busy_s", total("analysis"));
    m.set("analysis.cells_served", tm.analysis_cells as f64);
    m.set("analysis.served_ratio", served.value());
    m.set("replay.stack.cells", tm.stack_cells as f64);
    m.set("replay.stack.busy_s", total("replay.stack"));
    m.set(
        "replay.stack.cell_refs_per_s",
        rate(n.stack_cell_refs as f64, total("replay.stack")),
    );
    m.set("replay.fused.cells", tm.fused_cells as f64);
    m.set("replay.fused.busy_s", total("replay.fused"));
    m.set(
        "replay.fused.cell_refs_per_s",
        rate(n.fused_cell_refs as f64, total("replay.fused")),
    );
    let dedup = Ratio::new((tm.stack_cells + tm.fused_cells) as f64, cells as f64);
    m.set("replay.dedup_ratio", dedup.value());
    let timed_replay = total("replay.stack") + total("replay.fused");
    let overhead = Ratio::new(timed_replay, total("timing.untimed_twin"));
    if cfg.timing.is_some() {
        m.set(
            "timing.sim_cycles_per_s",
            rate(n.sim_cycles as f64, timed_replay),
        );
        m.set("timing.overhead_ratio", overhead.value());
    }
    m.set("assemble.busy_s", total("assemble"));
    m.set(
        "assemble.bytes_per_s",
        rate(n.assembled_bytes as f64, total("assemble")),
    );
    m.set_trace(&tr, wall_s, untraced_s);

    eprint!("{}", tr.table(wall_s));
    eprintln!(
        "run_sweep SweepTimings: record {:.6} s, replay {:.6} s; {} traces recorded, {} merged \
         as behaviour-equivalent",
        tm.record.as_secs_f64(),
        tm.replay.as_secs_f64(),
        n.groups as usize * cfg.modes.len(),
        n.merged_traces
    );
    eprintln!("replay.dedup_ratio = cells replayed / cells reported = {dedup}");
    eprintln!("analysis.served_ratio = cells served / cells attempted = {served}");
    if cfg.timing.is_some() {
        eprintln!("timing.overhead_ratio = timed replay s / untimed replay s = {overhead}");
    }
    eprintln!("re-driven artifact identical to run_sweep's: {same}");
    tr.save();

    if !(same && same_partition) {
        failed += cells;
    }
    Ok(Report {
        correct: failed == 0,
        attempted: 2 * cells,
        failed,
        metrics: m.into_metrics(),
    })
}

/// What `CacheSim` reads of a mode's tags: (honour tags, honour
/// last-reference bits) of the mode's default cache.
fn mode_honors(mode: ManagementMode) -> (bool, bool) {
    let base = CacheConfig::default();
    let c = if mode == ManagementMode::Conventional {
        base.conventional()
    } else {
        base
    };
    (c.honor_tags, c.honor_last_ref)
}

/// One event as the simulators see it under the given honour flags:
/// address, direction, bypass path, effective last-reference bit.
fn effective_event(ev: MemEvent, honor_tags: bool, honor_last_ref: bool) -> (i64, bool, u8, bool) {
    if !honor_tags {
        return (ev.addr, ev.is_write, 0, false);
    }
    let class = match (ev.tag.flavour, ev.is_write) {
        (Flavour::UmAmLoad, false) => 1,
        (Flavour::UmAmStore, true) => 2,
        _ => 0,
    };
    (
        ev.addr,
        ev.is_write,
        class,
        honor_last_ref && ev.tag.last_ref,
    )
}

/// Whether two traces drive every cell identically: their effective
/// event streams match element for element (frame exits skipped).
fn behaviour_equivalent(a: &RecordedTrace, b: &RecordedTrace) -> bool {
    if a.trace.events() != b.trace.events() {
        return false;
    }
    fn events(t: &PackedTrace) -> impl Iterator<Item = MemEvent> + '_ {
        t.records().filter_map(|r| match r {
            TraceRecord::Event(ev) => Some(ev),
            TraceRecord::FrameExit { .. } => None,
        })
    }
    let ((at, al), (bt, bl)) = (mode_honors(a.mode), mode_honors(b.mode));
    events(&a.trace)
        .zip(events(&b.trace))
        .all(|(ea, eb)| effective_event(ea, at, al) == effective_event(eb, bt, bl))
}

/// The merge `run_sweep` makes before replay: each trace's
/// representative is the first earlier trace of the same workload,
/// codegen and step count that it is behaviour-equivalent to, else
/// itself. A merged trace's cells are its representative's, copied.
fn representatives(traces: &[RecordedTrace]) -> Vec<usize> {
    let mut rep: Vec<usize> = (0..traces.len()).collect();
    for i in 0..traces.len() {
        let ti = &traces[i];
        for j in 0..i {
            let tj = &traces[j];
            if rep[j] == j
                && ti.workload == tj.workload
                && ti.codegen == tj.codegen
                && ti.steps == tj.steps
                && behaviour_equivalent(ti, tj)
            {
                rep[i] = j;
                break;
            }
        }
    }
    rep
}

/// The sweep again, one public stage call at a time: record each
/// (workload, codegen) group with compiles routed through timed spans,
/// run the base program through the VM on its own, merge the traces
/// `run_sweep` merges, derive what the static analysis can, replay the
/// rest through the engine `run_sweep` would pick, and assemble.
fn redrive(cfg: &SweepConfig, tr: &mut Tracer, n: &mut Counts) -> Result<SweepReport, String> {
    let mut traces: Vec<RecordedTrace> = Vec::new();
    for w in &cfg.workloads {
        for &cg in &cfg.codegens {
            let rid = tr.begin("record");
            let group = record_group_with(w, cg, &cfg.modes, &cfg.vm, |w, cg, mode| {
                let options = CompilerOptions {
                    mode,
                    ..cg.options()
                };
                let checked = tr.time("lang.parse_check", || ucm_lang::parse_and_check(&w.source));
                std::hint::black_box(checked.is_ok());
                n.front.compiles += 1;
                tr.time("compile", || compile(&w.source, &options))
                    .map(|c| Arc::new(c.program))
                    .map_err(|error| SweepError::Compile {
                        workload: w.name.clone(),
                        error,
                    })
            });
            tr.end(rid);
            let group = group.map_err(|e| e.to_string())?;
            n.groups += 1;
            n.trace_bytes += group
                .iter()
                .map(|t| t.trace.encoded_bytes() as u64)
                .sum::<u64>();
            let base = &group[0];
            let mut sink = PackedTrace::new();
            let out = tr
                .time("vm", || ucm_machine::run(&base.program, &mut sink, &cfg.vm))
                .map_err(|e| format!("running `{}`: {e}", w.name))?;
            if out.steps != base.steps || sink.events() != base.trace.events() {
                return Err(format!(
                    "`{}`: VM re-run disagrees with the recording",
                    w.name
                ));
            }
            n.front.vm_runs += 1;
            n.front.vm_steps += out.steps;
            n.front.vm_refs += out.data_refs;
            traces.extend(group);
        }
    }

    let rep = tr.time("dedup", || representatives(&traces));
    let mut blocks: Vec<Vec<_>> = Vec::with_capacity(traces.len());
    for (i, t) in traces.iter().enumerate() {
        if rep[i] != i {
            n.merged_traces += 1;
            let copy = blocks[rep[i]].clone();
            blocks.push(copy);
            continue;
        }
        let events = t.trace.events();
        let mut cfgs: Vec<CacheConfig> = Vec::new();
        for &geom in &cfg.geometries {
            for &wp in &cfg.write_policies {
                for &policy in &cfg.policies {
                    cfgs.push(cfg.cell_cache(t.mode, geom, wp, policy));
                }
            }
        }
        let mut block: Vec<Option<(CacheStats, _)>> = vec![None; cfgs.len()];
        if cfg.use_static_analysis && cfg.timing.is_none() {
            let derived = tr.time("analysis", || derive_cells(t, &cfgs));
            n.analysis_calls += 1;
            n.analysis_attempted += cfgs.len() as u64;
            for (slot, d) in block.iter_mut().zip(derived) {
                if let Some(s) = d {
                    *slot = Some((s, None));
                    n.analysis_served += 1;
                }
            }
        }
        // The same partition run_sweep makes: one stack pass over every
        // stack-orderable cell of the trace, one fused pass per geometry
        // for the rest.
        let open: Vec<usize> = (0..cfgs.len()).filter(|&i| block[i].is_none()).collect();
        let (stack, fused): (Vec<usize>, Vec<usize>) = open
            .into_iter()
            .partition(|&i| cfg.use_stack_distance && stack_eligible(cfgs[i]));
        if !stack.is_empty() {
            let cs: Vec<CacheConfig> = stack.iter().map(|&i| cfgs[i]).collect();
            let r = tr.time("replay.stack", || {
                replay_stack(&t.trace, &cs, cfg.timing, t.steps)
            });
            n.stack_cells += cs.len() as u64;
            n.stack_cell_refs += cs.len() as u64 * events;
            for (&i, r) in stack.iter().zip(r) {
                block[i] = Some(r);
            }
        }
        let per_geom = cfg.write_policies.len() * cfg.policies.len();
        for g in 0..cfg.geometries.len() {
            let idx: Vec<usize> = fused
                .iter()
                .copied()
                .filter(|&i| i / per_geom == g)
                .collect();
            if idx.is_empty() {
                continue;
            }
            let cs: Vec<CacheConfig> = idx.iter().map(|&i| cfgs[i]).collect();
            let r = tr.time("replay.fused", || {
                replay_fused(&t.trace, &cs, cfg.timing, t.steps)
            });
            n.fused_cells += cs.len() as u64;
            n.fused_cell_refs += cs.len() as u64 * events;
            for (&i, r) in idx.iter().zip(r) {
                block[i] = Some(r);
            }
        }
        if cfg.timing.is_some() {
            // The same block untimed: what the timing model costs.
            let twin = tr.time("timing.untimed_twin", || {
                replay_cells(&t.trace, &cfgs, None, t.steps, cfg.use_stack_distance)
            });
            std::hint::black_box(twin);
        }
        let block: Vec<_> = block
            .into_iter()
            .map(|cell| cell.expect("every cell derived or replayed"))
            .collect();
        n.sim_cycles += block
            .iter()
            .map(|c| c.1.as_ref().map_or(0, |t| t.total_cycles))
            .sum::<u64>();
        blocks.push(block);
    }
    let stats: Vec<_> = blocks.into_iter().flatten().collect();

    let (report, bytes) = tr.time("assemble", || {
        let report = assemble_report(cfg, &traces, &stats, SweepTimings::default());
        let (h, cells, f) = report.to_json_parts();
        let bytes = h.len() + cells.iter().map(String::len).sum::<usize>() + f.len();
        (report, bytes)
    });
    n.assembled_bytes += bytes as u64;
    Ok(report)
}
