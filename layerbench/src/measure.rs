//! Measurement plumbing shared by the workloads: the metric catalogue,
//! percentiles, spans, the allocation counter and the result line.

use crate::Args;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported by every workload with `--trace 0`
/// (name, unit). `README.md` says what each means on each workload.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("rounds", "count"),
    ("node_rounds", "count"),
    ("messages", "count"),
    ("message_bits", "count"),
    ("colors_used", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("graph.commit_ms", "ms"),
    ("graph.commit_bytes", "bytes"),
    ("graph.region_ms", "ms"),
    ("graph.region_edges", "count"),
    ("graph.region_vertices", "count"),
    ("local.network_build_ms", "ms"),
    ("local.spill_chunks", "count"),
    ("local.spill_bytes", "bytes"),
    ("local.allocs_per_op", "count"),
    ("core.color_pipeline_ms", "ms"),
    ("core.repair_pipeline_ms", "ms"),
    ("core.cole-vishkin.node_rounds", "count"),
    ("core.cole-vishkin.messages", "count"),
    ("core.pr-assign.node_rounds", "count"),
    ("core.pr-assign.messages", "count"),
    ("core.bottom-panconesi-rizzi.node_rounds", "count"),
    ("core.bottom-panconesi-rizzi.messages", "count"),
    ("core.level-edge-defective-color.node_rounds", "count"),
    ("core.level-edge-defective-color.messages", "count"),
    ("core.phi-kuhn-labels.node_rounds", "count"),
    ("core.phi-kuhn-labels.messages", "count"),
    ("stream.commit_ms", "ms"),
    ("stream.finalize.node_rounds", "count"),
    ("stream.other_ms", "ms"),
    ("serve.open_latency_ms_p50", "ms"),
    ("serve.open_latency_ms_tail", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_tail", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_tail", "ms"),
    ("serve.snapshot_read_us_p50", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.node_rounds", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("probe.events", "count"),
    ("probe.overhead_pct", "%"),
];

/// Probe phases whose counters the traced run reports: (phase row,
/// node-rounds metric, messages metric or "").
pub const PHASES: [(&str, &str, &str); 6] = [
    ("cole-vishkin", "core.cole-vishkin.node_rounds", "core.cole-vishkin.messages"),
    ("pr-assign", "core.pr-assign.node_rounds", "core.pr-assign.messages"),
    (
        "bottom/panconesi-rizzi",
        "core.bottom-panconesi-rizzi.node_rounds",
        "core.bottom-panconesi-rizzi.messages",
    ),
    (
        "level/edge-defective-color",
        "core.level-edge-defective-color.node_rounds",
        "core.level-edge-defective-color.messages",
    ),
    ("phi/kuhn-labels", "core.phi-kuhn-labels.node_rounds", "core.phi-kuhn-labels.messages"),
    ("repair/finalize", "stream.finalize.node_rounds", ""),
];

/// Named metric values collected by a workload.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Sets the spill arena's allocations since `before`.
    pub fn set_spill(&mut self, before: deco_local::spill::SpillStats) {
        let after = deco_local::spill::stats();
        self.set("local.spill_chunks", (after.allocated_chunks - before.allocated_chunks) as f64);
        self.set("local.spill_bytes", (after.allocated_bytes - before.allocated_bytes) as f64);
    }

    /// Sets the per-phase probe counters of a recorded event stream,
    /// divided by `ops`.
    pub fn set_phases(&mut self, report: &deco_probe::report::Report, ops: f64) {
        for (row, nr_metric, msg_metric) in PHASES {
            let stats = report.phases.iter().find(|p| p.name == row).map(|p| p.stats);
            let (nr, msgs) = stats.map_or((0, 0), |s| (s.node_rounds, s.messages));
            self.set(nr_metric, nr as f64 / ops);
            if !msg_metric.is_empty() {
                self.set(msg_metric, msgs as f64 / ops);
            }
        }
    }
}

/// One recorded span: a call the benchmark made into a layer. Spans of
/// one operation share `trace`; layer replays name the real operation's
/// span as `parent` (0 = none).
#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Times calls and, when enabled, keeps a span for each in memory.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Runs `f`, returning its value, its wall time in ms and its span id
    /// (0 when tracing is off).
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64, u64) {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed();
        if !self.enabled {
            return (out, dur.as_secs_f64() * 1e3, 0);
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_us: (t0 - self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        (out, dur.as_secs_f64() * 1e3, id)
    }

    /// Opens a span that starts at `start` and ends at a later
    /// [`Tracer::close`]; returns its id (0 when tracing is off).
    pub fn open(&mut self, trace: u64, parent: u64, name: &'static str, start: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span { trace, id, parent, name, start_us, dur_us: 0.0 });
        id
    }

    pub fn close(&mut self, id: u64, end: Instant) {
        if let Some(span) = id.checked_sub(1).and_then(|i| self.spans.get_mut(i as usize)) {
            let end_us = end.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            span.dur_us = end_us - span.start_us;
        }
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The tail a workload reports: percentile `p` if at least ten samples
/// lie beyond it, else the median (fewer would be no tail).
pub fn tail(values: &[f64], p: f64) -> f64 {
    let beyond = values.len() as f64 * (1.0 - p / 100.0);
    if beyond >= 10.0 {
        percentile(values, p)
    } else {
        median(values)
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Heap allocation counting for the traced run. The global allocator
/// checks one relaxed flag per call, so untraced runs pay no counter
/// traffic.
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static COUNTING: AtomicBool = AtomicBool::new(false);
    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: every call forwards its arguments unchanged to the system
    // allocator; the counter is a statistic that publishes no memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            if COUNTING.load(Ordering::Relaxed) {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if COUNTING.load(Ordering::Relaxed) {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
            // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn set_counting(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// Allocations counted so far (all threads).
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub errors: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed check (keeping the first few messages).
    pub fn fail_check(&mut self, what: impl Into<String>) {
        if self.errors.len() < 8 {
            self.errors.push(what.into());
        }
    }

    /// Prints every metric by name and unit, then the result line, and
    /// writes the traced run's spans and layer figures.
    pub fn print(mut self, args: &Args) -> ExitCode {
        let (catalogue, metrics): (&[(&str, &str)], &Metrics) = if args.trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let mut values = Vec::new();
        let mut missing = Vec::new();
        for &(name, unit) in catalogue {
            let value = match metrics.get(name) {
                Some(v) if v.is_finite() => v,
                _ if args.trace => 0.0,
                _ => {
                    missing.push(name);
                    0.0
                }
            };
            println!("{:<46} {value:>16.6} {unit}", name);
            values.push((name, value, unit));
        }
        for name in missing {
            self.fail_check(format!("end-to-end metric {name} was not measured"));
        }
        if args.trace {
            match write_trace(args, &values, &self.spans) {
                Ok(path) => println!("trace written to {path}"),
                Err(e) => self.fail_check(format!("writing the trace: {e}")),
            }
        }
        for e in &self.errors {
            eprintln!("layerbench: check failed: {e}");
        }
        let correct = self.errors.is_empty();
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        line.push_str("}}");
        println!("{line}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

/// Writes the per-layer figures and every span under `layerbench/out/`.
fn write_trace(
    args: &Args,
    values: &[(&str, f64, &str)],
    spans: &[Span],
) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}-seed{}.trace.jsonl", args.workload, args.seed);
    let mut text = String::new();
    for (name, value, unit) in values {
        let _ =
            writeln!(text, "{{\"metric\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    for s in spans {
        let _ = writeln!(
            text,
            "{{\"span\": \"{}\", \"trace\": {}, \"id\": {}, \"parent\": {}, \"start_us\": {:.3}, \"dur_us\": {:.3}}}",
            s.name, s.trace, s.id, s.parent, s.start_us, s.dur_us
        );
    }
    std::fs::write(&path, text)?;
    Ok(path)
}
