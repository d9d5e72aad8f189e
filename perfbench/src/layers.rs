//! The per-layer metrics a traced run reports. Every workload prints
//! the whole list; a layer the workload leaves idle reads 0.

use std::collections::HashMap;

use crate::spans::Tracer;

/// Every per-layer metric, with its unit, in print order.
pub const METRICS: &[(&str, &str)] = &[
    ("compile.calls", "count"),
    ("compile.busy_s", "s"),
    ("compile.per_s", "1/s"),
    ("lang.parse_check.busy_s", "s"),
    ("vm.runs", "count"),
    ("vm.busy_s", "s"),
    ("vm.steps_per_s", "1/s"),
    ("vm.refs_per_s", "1/s"),
    ("record.groups", "count"),
    ("record.busy_s", "s"),
    ("record.trace_mb", "MB"),
    ("analysis.calls", "count"),
    ("analysis.busy_s", "s"),
    ("analysis.cells_served", "count"),
    ("analysis.served_ratio", "ratio"),
    ("replay.stack.cells", "count"),
    ("replay.stack.busy_s", "s"),
    ("replay.stack.cell_refs_per_s", "1/s"),
    ("replay.fused.cells", "count"),
    ("replay.fused.busy_s", "s"),
    ("replay.fused.cell_refs_per_s", "1/s"),
    ("replay.dedup_ratio", "ratio"),
    ("timing.sim_cycles_per_s", "1/s"),
    ("timing.overhead_ratio", "ratio"),
    ("assemble.busy_s", "s"),
    ("assemble.bytes_per_s", "1/s"),
    ("oracle.runs", "count"),
    ("oracle.busy_s", "s"),
    ("oracle.refs_per_s", "1/s"),
    ("oracle.skip_ratio", "ratio"),
    ("oracle.fail_count", "count"),
    ("serve.warm.requests", "count"),
    ("serve.warm.p50_ms", "ms"),
    ("serve.warm.p99_ms", "ms"),
    ("serve.warm.canon_s", "s"),
    ("serve.warm.record_s", "s"),
    ("serve.warm.replay_s", "s"),
    ("serve.warm.assemble_s", "s"),
    ("serve.warm.transport_s", "s"),
    ("serve.cold.requests", "count"),
    ("serve.cold.p50_ms", "ms"),
    ("serve.cold.p90_ms", "ms"),
    ("serve.cold.canon_s", "s"),
    ("serve.cold.record_s", "s"),
    ("serve.cold.replay_s", "s"),
    ("serve.cold.assemble_s", "s"),
    ("serve.cold.transport_s", "s"),
    ("serve.programs.hit_ratio", "ratio"),
    ("serve.traces.hit_ratio", "ratio"),
    ("serve.cells.hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Compile and VM work, counted beside the `compile` and `vm` spans.
#[derive(Default)]
pub struct FrontEnd {
    /// `compile` calls.
    pub compiles: u64,
    /// VM runs.
    pub vm_runs: u64,
    /// Instructions those runs executed.
    pub vm_steps: u64,
    /// Data references those runs issued.
    pub vm_refs: u64,
}

/// Per-layer values being filled in by a traced run.
#[derive(Default)]
pub struct Layers {
    values: HashMap<&'static str, f64>,
}

impl Layers {
    /// Sets metric `name`, which must be in [`METRICS`].
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            METRICS.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.insert(name, v);
    }

    /// Sets the compile, parse-check and VM lines from the spans named
    /// `compile`, `lang.parse_check` and `vm`.
    pub fn set_front_end(&mut self, tr: &Tracer, n: &FrontEnd) {
        let (compile_s, vm_s) = (tr.total_s("compile"), tr.total_s("vm"));
        self.set("compile.calls", n.compiles as f64);
        self.set("compile.busy_s", compile_s);
        self.set("compile.per_s", rate(n.compiles as f64, compile_s));
        self.set("lang.parse_check.busy_s", tr.total_s("lang.parse_check"));
        self.set("vm.runs", n.vm_runs as f64);
        self.set("vm.busy_s", vm_s);
        self.set("vm.steps_per_s", rate(n.vm_steps as f64, vm_s));
        self.set("vm.refs_per_s", rate(n.vm_refs as f64, vm_s));
    }

    /// Sets the `trace.*` lines from a traced pass: its wall time, the
    /// part no span covers, and the tracing overhead — the traced pass's
    /// wall time against the same pass run through [`Tracer::off`].
    pub fn set_trace(&mut self, tr: &Tracer, wall_s: f64, untraced_wall_s: f64) {
        let (_, roots) = tr.layers();
        self.set("trace.wall_s", wall_s);
        self.set("trace.unattributed_s", wall_s - roots);
        self.set(
            "trace.overhead_ratio",
            if untraced_wall_s > 0.0 {
                wall_s / untraced_wall_s - 1.0
            } else {
                0.0
            },
        );
        eprintln!(
            "trace.overhead_ratio = traced pass s / untraced pass s - 1 = {wall_s:.6} / {untraced_wall_s:.6} - 1"
        );
    }

    /// Every metric in [`METRICS`] order, idle layers as 0.
    pub fn into_metrics(self) -> Vec<(String, f64, &'static str)> {
        METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), self.values.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }
}

/// `count ÷ seconds`, 0 when no time was spent.
pub fn rate(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}
