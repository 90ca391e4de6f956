//! `scratch-powerlaw`: repeated from-scratch `edge_color` of one
//! power-law graph. The only workload with Δ above the preset's λ = 48, so
//! the only one that runs the defective levels, the Kuhn labels and the
//! long-message spill traffic; 50k nodes are stepped on one worker
//! thread (`DECO_THREADS`, set in `main.rs`).

use crate::check::{self, Mirror};
use crate::measure::{self, alloc, Metrics, Outcome, Tracer};
use crate::Args;
use deco_core::edge::legal::{
    edge_color, edge_color_bound, edge_color_in_groups, edge_log_depth, MessageMode,
};
use deco_graph::{generators, Graph};
use deco_local::{spill, Network};
use deco_probe::report::Report;
use deco_probe::RecordingProbe;
use std::sync::Arc;
use std::time::Instant;

const N: usize = 50_000;
const D_MAX: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;

    // Input generation (not timed): the edge list the program ingests.
    let generated = generators::random_power_law(N, D_MAX, args.seed);
    let edge_list: Vec<(usize, usize)> = generated.edges().collect();
    drop(generated);
    let mirror: Mirror = edge_list.iter().copied().collect();
    let delta = check::max_degree(&mirror);
    let bound = edge_color_bound(&params, delta);

    // Set-up: ingest the edge list and run the first (cold) coloring. The
    // spill arena's allocations are read over the process's first one.
    let mut layers = Metrics::default();
    let spill0 = spill::stats();
    let mut setup_s = Vec::new();
    let mut graph = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let g = Graph::from_edges(N, &edge_list).expect("generated edges are valid");
        let run = edge_color(&g, params, mode).expect("preset parameters contract");
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == 1 {
            layers.set_spill(spill0);
        }
        verify(&mut out, &mirror, &g, run.coloring.colors(), bound, args);
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up");

    let mut tracer = Tracer::new(args.trace);
    let mut latency_ms = Vec::new();
    let (mut build_ms, mut pipeline_ms, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    let (mut allocs, mut events) = (0u64, 0u64);
    let mut first = None;
    let t_run = Instant::now();
    while latency_ms.is_empty() || t_run.elapsed().as_secs_f64() < args.seconds {
        let op = latency_ms.len() as u64 + 1;
        let allocs0 = alloc::count();
        let (run, ms, span) =
            tracer.time(op, 0, "scratch.edge_color", || edge_color(&g, params, mode));
        allocs += alloc::count() - allocs0;
        out.attempted += 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                out.failed += 1;
                out.fail_check(format!("edge_color failed: {e}"));
                break;
            }
        };
        latency_ms.push(ms);
        verify(&mut out, &mirror, &g, run.coloring.colors(), bound, args);

        if args.trace {
            // Layer replays on the same input: the simulator's network
            // construction, then the pipeline on it with the probe on.
            let probe = Arc::new(RecordingProbe::new());
            let (net, build, _) = tracer.time(op, span, "local.network_build", || {
                Network::new(&g).with_probe(probe.clone())
            });
            let groups = vec![0u64; g.m()];
            let (replay, pipeline, _) = tracer.time(op, span, "core.color_pipeline", || {
                edge_color_in_groups(&net, &groups, 1, params, delta, mode)
            });
            if !matches!(&replay, Ok(r) if r.coloring == run.coloring) {
                out.fail_check("the traced pipeline replay colored differently");
            }
            let recorded = probe.take();
            events += recorded.len() as u64;
            if first.is_none() {
                layers.set_phases(&Report::build(&recorded), 1.0);
            }
            build_ms.push(build);
            pipeline_ms.push(pipeline);
            overhead.push(((build + pipeline) / ms - 1.0) * 100.0);
        }
        first.get_or_insert(run);
    }
    let first = first.expect("one coloring ran");
    let ops = latency_ms.len() as f64;

    let e2e = &mut out.end_to_end;
    e2e.set("setup_s", measure::median(&setup_s));
    // A run times fewer than forty colorings, too few for a tail: the tail
    // reads the median (README).
    e2e.set("latency_ms_p50", measure::median(&latency_ms));
    e2e.set("latency_ms_tail", measure::tail(&latency_ms, 90.0));
    e2e.set("throughput_per_s", ops * 1e3 / latency_ms.iter().sum::<f64>());
    e2e.set("rounds", first.stats.rounds as f64);
    e2e.set("node_rounds", first.stats.node_rounds as f64);
    e2e.set("messages", first.stats.messages as f64);
    e2e.set("message_bits", first.stats.total_message_bits as f64);
    e2e.set("colors_used", check::distinct(first.coloring.colors()) as f64);
    e2e.set("peak_rss_mb", measure::peak_rss_mb());

    layers.set("local.network_build_ms", measure::median(&build_ms));
    layers.set("core.color_pipeline_ms", measure::median(&pipeline_ms));
    layers.set("local.allocs_per_op", allocs as f64 / ops);
    layers.set("probe.events", events as f64 / ops);
    layers.set("probe.overhead_pct", measure::median(&overhead));
    out.per_layer = layers;
    out.spans = tracer.spans;
    out
}

fn verify(out: &mut Outcome, mirror: &Mirror, g: &Graph, colors: &[u64], bound: u64, args: &Args) {
    let edges: Vec<(usize, usize)> = g.edges().collect();
    if let Err(e) = check::check(mirror, &edges, colors, bound, args.inject) {
        out.fail_check(format!("coloring: {e}"));
    }
}
