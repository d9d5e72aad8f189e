//! `serve-mix`: an in-process `ucm-serve` server on a Unix socket, one
//! worker, driven by one closed-loop client (each request waits for its
//! reply, as `ucmc submit` and loadgen do).
//!
//! The traffic is the repository's own load model, the one
//! `ucm_serve::loadgen` (`ucmc loadgen`) sends: the first request is the
//! quick grid, and each later one is either a repeat of it (about 2/3)
//! or the quick grid over a fresh generated Mini source (about 1/3),
//! drawn from the same splitmix64 stream, so `--seed N` sends the
//! sequence `ucmc loadgen --seed N` sends. Nothing records how callers
//! use the service beyond that model, so a run prints the share of each
//! request kind and class it measured. The artifact-cache budget is
//! small enough that the fresh sources evict each other, so hits sit
//! beside inserts and evictions.
//!
//! Checks: every reply must be byte-identical to the first reply to the
//! same request, and equal to a one-shot `run_sweep` of the same grid
//! and source, computed in set-up.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ucm_bench::json::{self, Json};
use ucm_bench::sweep::{run_sweep, Codegen, SweepConfig};
use ucm_core::pipeline::{compile, CompilerOptions};
use ucm_machine::{NullSink, VmConfig};
use ucm_serve::client::{Client, StatsReply, StoreStats};
use ucm_serve::protocol::{SourceSpec, SweepRequest};
use ucm_serve::server::{ServeConfig, Server};
use ucm_workloads::Workload;

use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stats::{error_rate, Class, Ratio, Samples};
use crate::{one_worker, peak_rss_mb, repeated_setup, Args, Report};

/// Artifact-cache budget. The quick suite's entries, touched by every
/// repeat, stay resident; the fresh sources' entries evict each other
/// once a few hundred have been inserted.
const CACHE_BYTES: usize = 8 << 20;

/// Requests sent per second of `--seconds`. A run sends a fixed, seeded
/// sequence rather than as many as fit: how far a time-boxed run gets
/// into the sequence would change how full the cache is, and with it
/// the eviction count, whenever the machine runs faster or slower.
const REQUESTS_PER_SECOND: f64 = 450.0;

/// Requests in each pass of the traced run.
const TRACED_REQUESTS: usize = 1500;

/// Workload name the fresh-source references are built under; a reply
/// is compared with its source's reference renamed to the request's name.
const REFERENCE_NAME: &str = "perfbench-reference";

/// splitmix64, the generator `ucm_serve::loadgen` draws its mix from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The loop bound of loadgen's fresh source for draw `k`; the source
/// text depends on nothing else.
fn loop_bound(k: u64) -> u64 {
    64 + k % 128
}

/// The fresh source loadgen sends for draw `k`: a summing loop of
/// [`loop_bound`]`(k)` iterations, named `gen-{k}`.
fn generated_source(k: u64) -> SourceSpec {
    let bound = loop_bound(k);
    SourceSpec {
        name: format!("gen-{k}"),
        text: format!(
            "fn main() {{\n    let i: int = 0;\n    let s: int = 0;\n    \
             while i < {bound} {{\n        s = s + i;\n        i = i + 1;\n    }}\n    \
             print(s);\n}}\n"
        ),
    }
}

/// Loadgen's request sequence: `None` is the quick grid, `Some(k)` the
/// quick grid over [`generated_source`]`(k)`. The first request is always
/// the quick grid; each later one is fresh when a draw is divisible by 3.
fn draw_requests(seed: u64, n: usize) -> Vec<Option<u64>> {
    let mut rng = seed;
    (0..n)
        .map(|i| {
            let fresh = i > 0 && splitmix64(&mut rng).is_multiple_of(3);
            fresh.then(|| splitmix64(&mut rng))
        })
        .collect()
}

fn request(d: Option<u64>) -> SweepRequest {
    SweepRequest {
        source: d.map(generated_source),
        ..SweepRequest::default()
    }
}

/// The request's kind, for the per-kind breakdown.
fn kind(d: Option<u64>) -> &'static str {
    if d.is_some() {
        "fresh"
    } else {
        "repeat"
    }
}

/// A running in-process server; stopping it shuts the accept loop
/// down and joins it.
struct Hosted {
    socket: PathBuf,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Hosted {
    fn start(socket: PathBuf) -> Result<Self, String> {
        let mut sc = ServeConfig::new(&socket);
        sc.jobs = 1;
        sc.cache_bytes = CACHE_BYTES;
        let server = Server::bind(sc).map_err(|e| format!("binding {}: {e}", socket.display()))?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Hosted {
            socket,
            handle: Some(handle),
        })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connecting: {e}"))
    }

    fn stop(&mut self) -> Result<(), String> {
        let Some(h) = self.handle.take() else {
            return Ok(());
        };
        let sent = Client::connect(&self.socket).and_then(|mut c| c.shutdown());
        let joined = h.join();
        sent.map_err(|e| format!("shutting the server down: {e}"))?;
        match joined {
            Ok(r) => r.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Hosted {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

struct Setup {
    draws: Vec<Option<u64>>,
    /// One-shot `run_sweep` artifact of the quick grid.
    quick: String,
    /// One-shot `run_sweep` artifacts of each fresh source drawn, by
    /// [`loop_bound`], under [`REFERENCE_NAME`].
    fresh: HashMap<u64, String>,
    server: Hosted,
}

/// The quick grid over one custom source, as the engine builds it for a
/// request with a `source`: the expected output is the source's own,
/// from a reference run of the first mode's build.
fn custom_config(name: &str, text: &str) -> Result<SweepConfig, String> {
    let mut cfg = SweepConfig::quick();
    let options = CompilerOptions {
        mode: cfg.modes[0],
        ..Codegen::Paper.options()
    };
    let program = compile(text, &options).map_err(|e| format!("compiling `{name}`: {e}"))?;
    let out = ucm_machine::run(&program.program, &mut NullSink, &VmConfig::default())
        .map_err(|e| format!("running `{name}`: {e}"))?;
    cfg.suite = "custom".into();
    cfg.workloads = vec![Workload {
        name: name.into(),
        source: text.into(),
        expected: out.output,
    }];
    Ok(cfg)
}

fn socket_path(tag: &str) -> PathBuf {
    crate::scratch_dir().join(format!("perfbench-{}-{tag}.sock", std::process::id()))
}

fn setup(seed: u64, requests: usize) -> Result<Setup, String> {
    let draws = draw_requests(seed, requests);
    let pool = one_worker();
    let sweep = |cfg: SweepConfig| {
        pool.install(|| run_sweep(&cfg))
            .map(|r| r.to_json())
            .map_err(|e| format!("reference sweep: {e}"))
    };
    let quick = sweep(SweepConfig::quick())?;
    let mut fresh = HashMap::new();
    for k in draws.iter().flatten() {
        if let Entry::Vacant(slot) = fresh.entry(loop_bound(*k)) {
            let src = generated_source(*k);
            slot.insert(sweep(custom_config(REFERENCE_NAME, &src.text)?)?);
        }
    }
    Ok(Setup {
        draws,
        quick,
        fresh,
        server: Hosted::start(socket_path("a"))?,
    })
}

fn digest(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Output checks shared by both passes: the digest of the first reply
/// to each request line, and the set-up's one-shot references.
#[derive(Default)]
struct Checker {
    first: HashMap<String, u64>,
}

impl Checker {
    /// Checks the reply to draw `d`; `false` on any mismatch.
    fn check(&mut self, s: &Setup, d: Option<u64>, artifact: &str) -> bool {
        let ok_ref = match d {
            None => artifact == s.quick,
            Some(k) => s.fresh.get(&loop_bound(k)).is_some_and(|r| {
                let name = generated_source(k).name;
                *artifact == r.replace(&format!("\"{REFERENCE_NAME}\""), &format!("\"{name}\""))
            }),
        };
        let line = request(d).to_json_line();
        let h = digest(artifact);
        let ok_first = *self.first.entry(line).or_insert(h) == h;
        ok_ref && ok_first
    }
}

/// One request's client-side outcome.
struct Reply {
    latency_s: f64,
    class: Option<Class>,
    kind: &'static str,
}

fn hit_ratio(s: &StoreStats) -> Ratio {
    Ratio::new(s.hits as f64, (s.hits + s.misses) as f64)
}

/// Runs `serve-mix`.
pub fn run(args: &Args) -> Result<Report, String> {
    let requests = ((args.seconds * REQUESTS_PER_SECOND).round() as usize).max(TRACED_REQUESTS);
    let (mut s, setup_s) = repeated_setup(|| setup(args.seed, requests))?;
    if args.trace {
        s.server.stop()?;
        return traced(args.seed, &s);
    }
    let mut client = s.server.client()?;
    let mut checker = Checker::default();
    let mut replies = Vec::with_capacity(s.draws.len());
    let mut failed = 0u64;
    for &d in &s.draws {
        let req = request(d);
        let t = Instant::now();
        let r = client.sweep(&req);
        let latency_s = t.elapsed().as_secs_f64();
        let class = match r {
            Ok(reply) => {
                let class = Class::of(reply.hits, reply.misses);
                if !checker.check(&s, d, &reply.artifact) || class.is_none() {
                    failed += 1;
                }
                class
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                failed += 1;
                client = s.server.client()?;
                None
            }
        };
        replies.push(Reply {
            latency_s,
            class,
            kind: kind(d),
        });
    }
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    drop(client);
    s.server.stop()?;

    let busy: f64 = replies.iter().map(|r| r.latency_s).sum();
    let attempted = replies.len() as u64;
    let latencies = |keep: &dyn Fn(&Reply) -> bool| {
        Samples::new(
            replies
                .iter()
                .filter(|r| keep(r))
                .map(|r| r.latency_s * 1e3)
                .collect(),
        )
    };
    let all = latencies(&|_| true);
    let warm = latencies(&|r| r.class == Some(Class::Warm));
    let cold = latencies(&|r| r.class == Some(Class::Cold));
    eprintln!(
        "{}: {attempted} requests, {busy:.3} s busy; all {} {}; warm {} {}; cold {} {}; error_rate {}",
        args.workload,
        all.describe(50.0),
        all.describe(99.0),
        warm.describe(50.0),
        warm.describe(99.0),
        cold.describe(50.0),
        cold.describe(90.0),
        error_rate(failed, attempted)
    );
    // The measured mix: the share of each request kind and class, and
    // of each pair, with its latency.
    let share = |n: usize| Ratio::new(n as f64, attempted as f64);
    for k in ["repeat", "fresh"] {
        eprintln!(
            "  kind {k}: share {}",
            share(replies.iter().filter(|r| r.kind == k).count())
        );
    }
    for c in [Class::Warm, Class::Cold] {
        eprintln!(
            "  class {}: share {}",
            c.name(),
            share(replies.iter().filter(|r| r.class == Some(c)).count())
        );
        for k in ["repeat", "fresh"] {
            let x = latencies(&|r| r.class == Some(c) && r.kind == k);
            eprintln!(
                "    {} {k}: share {}; {}",
                c.name(),
                share(x.len()),
                x.describe(50.0)
            );
        }
    }
    eprintln!(
        "stores: programs hit {} traces hit {} cells hit {}; evictions {}",
        hit_ratio(&stats.programs),
        hit_ratio(&stats.traces),
        hit_ratio(&stats.cells),
        evictions(&stats)
    );
    // Latency percentiles stay inside one request class: the warm class
    // is what a repeat caller waits for; the cold class's cost shows in
    // throughput and in the traced run's serve.cold.* lines.
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s".into(), setup_s, "s"),
            ("throughput_per_s".into(), attempted as f64 / busy, "1/s"),
            ("latency_p50_ms".into(), warm.pct(50.0), "ms"),
            ("latency_p99_ms".into(), warm.pct(99.0), "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ],
    })
}

fn evictions(s: &StatsReply) -> u64 {
    s.programs.evictions + s.traces.evictions + s.cells.evictions
}

/// The engine's phase split of one request, from the `done` line.
#[derive(Default, Clone, Copy)]
struct Phases {
    canon_us: u64,
    record_us: u64,
    replay_us: u64,
    assemble_us: u64,
}

/// What the traced client reads back.
struct RawReply {
    artifact: String,
    hits: u64,
    misses: u64,
    phases: Phases,
}

/// A sweep over a raw socket: the same request line and artifact
/// reassembly as `Client::sweep`, plus the `done` line's phase split,
/// which `Client::sweep` does not return.
fn raw_sweep(
    w: &mut UnixStream,
    r: &mut BufReader<UnixStream>,
    req: &SweepRequest,
) -> Result<RawReply, String> {
    w.write_all(req.to_json_line().as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| e.to_string())?;
    let mut artifact = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("server closed the connection".into());
        }
        let doc = json::parse(line.trim_end()).map_err(|e| e.to_string())?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("error reply: {}", line.trim_end()));
        }
        let u = |d: &Json, k: &str| d.get(k).and_then(Json::as_num).map_or(0, |v| v as u64);
        match doc.get("op").and_then(Json::as_str) {
            Some("part" | "cell") => {
                artifact.push_str(doc.get("text").and_then(Json::as_str).unwrap_or(""));
            }
            Some("done") => {
                let p = doc.get("phases").ok_or("done without phases")?;
                return Ok(RawReply {
                    artifact,
                    hits: u(&doc, "hits"),
                    misses: u(&doc, "misses"),
                    phases: Phases {
                        canon_us: u(p, "canon_us"),
                        record_us: u(p, "record_us"),
                        replay_us: u(p, "replay_us"),
                        assemble_us: u(p, "assemble_us"),
                    },
                });
            }
            _ => {}
        }
    }
}

/// Phase sums of one request class.
#[derive(Default)]
struct ClassSums {
    n: u64,
    lat_ms: Vec<f64>,
    canon: f64,
    record: f64,
    replay: f64,
    assemble: f64,
    transport: f64,
}

/// What one pass of the traced run observed.
struct Pass {
    sums: [ClassSums; 2],
    failed: u64,
    stats: StatsReply,
    wall_s: f64,
}

/// The first `n` requests on a fresh server, over a raw socket, with
/// spans around each request and the engine's phases inside it.
fn pass(s: &Setup, n: usize, tag: &str, tr: &mut Tracer) -> Result<Pass, String> {
    let mut server = Hosted::start(socket_path(tag))?;
    let mut w = UnixStream::connect(&server.socket).map_err(|e| e.to_string())?;
    let mut r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
    let mut checker = Checker::default();
    let mut sums = [ClassSums::default(), ClassSums::default()];
    let mut failed = 0u64;
    let wall = Instant::now();
    for (i, &d) in s.draws[..n].iter().enumerate() {
        tr.set_op(i as u64);
        let req = request(d);
        let op = tr.begin("op");
        let q = tr.begin("request");
        let t = Instant::now();
        let reply = raw_sweep(&mut w, &mut r, &req);
        let lat = t.elapsed();
        tr.end(q);
        let reply = match reply {
            Ok(x) => x,
            Err(e) => {
                tr.end(op);
                eprintln!("request failed: {e}");
                failed += 1;
                continue;
            }
        };
        let p = reply.phases;
        let us = Duration::from_micros;
        let mut at = Duration::ZERO;
        for (name, d) in [
            ("serve.canon", us(p.canon_us)),
            ("serve.record", us(p.record_us)),
            ("serve.replay", us(p.replay_us)),
            ("serve.assemble", us(p.assemble_us)),
        ] {
            tr.measured(name, q, at, d);
            at += d;
        }
        let ok = tr.time("check", || checker.check(s, d, &reply.artifact));
        tr.end(op);
        let Some(class) = Class::of(reply.hits, reply.misses).filter(|_| ok) else {
            failed += 1;
            continue;
        };
        let c = &mut sums[class as usize];
        let secs = |x: u64| x as f64 / 1e6;
        c.n += 1;
        c.lat_ms.push(lat.as_secs_f64() * 1e3);
        c.canon += secs(p.canon_us);
        c.record += secs(p.record_us);
        c.replay += secs(p.replay_us);
        c.assemble += secs(p.assemble_us);
        c.transport += lat.as_secs_f64() - at.as_secs_f64();
    }
    let wall_s = wall.elapsed().as_secs_f64();
    drop((w, r));
    let stats = server
        .client()?
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    server.stop()?;
    Ok(Pass {
        sums,
        failed,
        stats,
        wall_s,
    })
}

/// The first [`TRACED_REQUESTS`] requests twice, each time on a fresh
/// server: through a tracer that records nothing, then traced. The
/// difference between the two passes is the tracing overhead.
fn traced(seed: u64, s: &Setup) -> Result<Report, String> {
    let n = TRACED_REQUESTS.min(s.draws.len());
    let untraced = pass(s, n, "b", &mut Tracer::off())?;
    let mut tr = Tracer::new();
    let Pass {
        sums,
        failed,
        stats,
        wall_s,
    } = pass(s, n, "c", &mut tr)?;
    let failed = failed.max(untraced.failed);

    let mut m = Layers::default();
    let names: [[&'static str; 8]; 2] = [
        [
            "serve.warm.requests",
            "serve.warm.p50_ms",
            "serve.warm.p99_ms",
            "serve.warm.canon_s",
            "serve.warm.record_s",
            "serve.warm.replay_s",
            "serve.warm.assemble_s",
            "serve.warm.transport_s",
        ],
        [
            "serve.cold.requests",
            "serve.cold.p50_ms",
            "serve.cold.p90_ms",
            "serve.cold.canon_s",
            "serve.cold.record_s",
            "serve.cold.replay_s",
            "serve.cold.assemble_s",
            "serve.cold.transport_s",
        ],
    ];
    for ((class, sum), nm) in [Class::Warm, Class::Cold].into_iter().zip(&sums).zip(names) {
        let lat = Samples::new(sum.lat_ms.clone());
        let tail = match class {
            Class::Warm => 99.0,
            Class::Cold => 90.0,
        };
        let mean = |x: f64| if sum.n > 0 { x / sum.n as f64 } else { 0.0 };
        m.set(nm[0], sum.n as f64);
        m.set(nm[1], lat.pct(50.0));
        m.set(nm[2], lat.pct(tail));
        m.set(nm[3], mean(sum.canon));
        m.set(nm[4], mean(sum.record));
        m.set(nm[5], mean(sum.replay));
        m.set(nm[6], mean(sum.assemble));
        m.set(nm[7], mean(sum.transport));
        eprintln!(
            "{}: {} {}; highest supported {}; per-request mean s: canon {:.6} record {:.6} \
             replay {:.6} assemble {:.6} transport {:.6}",
            class.name(),
            lat.describe(50.0),
            lat.describe(tail),
            lat.describe_tail(),
            mean(sum.canon),
            mean(sum.record),
            mean(sum.replay),
            mean(sum.assemble),
            mean(sum.transport)
        );
    }
    let (ph, tc, ce) = (
        hit_ratio(&stats.programs),
        hit_ratio(&stats.traces),
        hit_ratio(&stats.cells),
    );
    m.set("serve.programs.hit_ratio", ph.value());
    m.set("serve.traces.hit_ratio", tc.value());
    m.set("serve.cells.hit_ratio", ce.value());
    m.set("serve.evictions", evictions(&stats) as f64);
    m.set_trace(&tr, wall_s, untraced.wall_s);
    eprint!("{}", tr.table(wall_s));
    eprintln!("store hit ratios (hits / probes): programs {ph}, traces {tc}, cells {ce}");
    eprintln!(
        "{n} requests (seed {seed}): {} warm, {} cold; evictions {}",
        sums[Class::Warm as usize].n,
        sums[Class::Cold as usize].n,
        evictions(&stats)
    );
    tr.save();
    Ok(Report {
        correct: failed == 0,
        attempted: n as u64,
        failed,
        metrics: m.into_metrics(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_loadgens() {
        let d = draw_requests(12_648_430, 3000);
        assert_eq!(d, draw_requests(12_648_430, 3000));
        assert_eq!(d[0], None, "the first request is the quick grid");
        let fresh = d.iter().filter(|x| x.is_some()).count();
        assert!((900..1100).contains(&fresh), "about a third fresh: {fresh}");
        assert_ne!(d, draw_requests(1, 3000));
    }

    #[test]
    fn fresh_sources_differ_by_name_and_loop_bound() {
        let a = generated_source(5);
        let b = generated_source(5 + 128);
        assert_eq!(a.text, b.text);
        assert_ne!(a.name, b.name);
        assert!(a.text.contains("while i < 69 {"));
        assert!(ucm_lang::parse_and_check(&a.text).is_ok());
        assert_eq!(kind(Some(5)), "fresh");
        assert_eq!(kind(None), "repeat");
    }
}
