//! `churn-50k`: the segmented-engine recolorer, driven through the
//! `RegionRecolor` facade, replays `churn_trace(n = 50k, Δ ≤ 8)` at 1%
//! churn per commit. Commits spend their time in the commit machinery,
//! color carry, region extraction, the region pipeline and finalize; no
//! defective levels run (Δ ≤ λ) and there is no service.

use crate::check::{self, Mirror};
use crate::measure::{self, alloc, Metrics, Outcome, Tracer};
use crate::Args;
use deco_core::edge::legal::{edge_color_in_groups, edge_log_depth, MessageMode};
use deco_core::params::LegalParams;
use deco_graph::trace::{churn_trace_from, TraceOp};
use deco_graph::{generators, SegmentedGraph};
use deco_local::{spill, Network, RunStats};
use deco_probe::report::Report;
use deco_probe::{Probe, RecordingProbe};
use deco_stream::{RecolorConfig, RegionRecolor, SegRecolorer};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 50_000;
const CAP: usize = 8;
/// Churn commits in one round. A run replays whole rounds from the
/// post-set-up engine; the counts it reports cover the first round.
const ROUND: usize = 40;
/// Tail percentile over the ROUND distinct commits: the highest with ten
/// commits beyond it.
const TAIL: f64 = 75.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One commit's layer replays, in ms unless named otherwise.
struct LayerSample {
    commit_ms: f64,
    commit_bytes: usize,
    region_ms: f64,
    region_edges: usize,
    region_vertices: usize,
    build_ms: f64,
    pipeline_ms: f64,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let params = edge_log_depth(1);
    let mode = MessageMode::Long;

    // Input generation (not timed): commit 0 builds the base graph, then
    // ROUND commits each delete and insert 1% of its edges.
    let base = generators::random_bounded_degree(N, CAP, args.seed);
    let churn = base.m() / 100;
    let trace = churn_trace_from(&base, CAP, ROUND, churn, args.seed);
    drop(base);
    let batches: Vec<Vec<TraceOp>> = trace.batches().iter().map(|b| b.to_vec()).collect();
    let mut build_mirror = Mirror::new();
    for &op in &batches[0] {
        check::apply(&mut build_mirror, op);
    }

    // Set-up: engine construction plus the initial from-scratch coloring.
    // The spill arena's allocations are read over the process's first one.
    let mut layers = Metrics::default();
    let spill0 = spill::stats();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut engine = SegRecolorer::new(trace.n0, params, mode).expect("preset parameters");
        let facade: &mut dyn RegionRecolor = &mut engine;
        for &op in &batches[0] {
            facade.queue_op(op).expect("generated operations are valid");
        }
        facade.commit().expect("the build batch is valid");
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == 1 {
            layers.set_spill(spill0);
        }
        verify(&mut out, &engine, &build_mirror, args);
        built = Some(engine);
    }
    let built = built.expect("at least one set-up");

    let probe = Arc::new(RecordingProbe::new());
    let mut tracer = Tracer::new(args.trace);
    // Wall time of each of the ROUND distinct commits, once per round.
    let mut per_commit: Vec<Vec<f64>> = vec![Vec::new(); ROUND];
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut samples: Vec<(f64, LayerSample)> = Vec::new();
    let mut first_round = RunStats::zero();
    let mut colors_used = 0;
    let mut allocs = 0u64;
    let t_run = Instant::now();
    let mut round = 0;
    loop {
        let mut engine = built.clone();
        let mut mirror = build_mirror.clone();
        for (k, batch) in batches[1..].iter().enumerate() {
            // The first round is traced whole (its counters are reported);
            // later rounds trace every other commit, alternating, so each
            // commit is timed both ways for the overhead figure.
            let traced = args.trace && (round == 0 || (k + round) % 2 == 0);
            let probe_now: Arc<dyn Probe> = if traced { probe.clone() } else { deco_probe::null() };
            engine.set_probe(probe_now);
            let pre = args.trace.then(|| engine.segmented().clone());
            let facade: &mut dyn RegionRecolor = &mut engine;
            for &op in batch {
                if let Err(e) = facade.queue_op(op) {
                    out.fail_check(format!("queue_op {op:?}: {e}"));
                }
                check::apply(&mut mirror, op);
            }
            let op_id = (round * ROUND + k) as u64 + 1;
            let allocs0 = alloc::count();
            let (report, ms, span) = tracer.time(op_id, 0, "stream.commit", || facade.commit());
            allocs += alloc::count() - allocs0;
            out.attempted += 1;
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.fail_check(format!("commit {op_id}: {e}"));
                    return out;
                }
            };
            per_commit[k].push(ms);
            // Later rounds replay the first round's commits on the same
            // state; checking only where a round ends leaves more of the
            // run to the commits themselves.
            if round == 0 || k + 2 == batches.len() {
                let colors = verify(&mut out, &engine, &mirror, args);
                if round == 0 {
                    first_round += report.stats;
                    colors_used = colors;
                }
            }
            if let Some(pre) = pre {
                let s = replay_layers(&mut tracer, op_id, span, pre, batch, params, mode);
                if (s.region_edges, s.region_vertices) != (report.dirty, report.region_vertices) {
                    out.fail_check(format!(
                        "commit {op_id}: the layer replay saw region {}/{}, the commit {}/{}",
                        s.region_edges, s.region_vertices, report.dirty, report.region_vertices
                    ));
                }
                if round > 0 {
                    if traced { &mut traced_ms } else { &mut untraced_ms }.push(ms);
                }
                samples.push((ms, s));
            }
        }
        if round == 0 && args.trace {
            let events = probe.take();
            layers.set_phases(&Report::build(&events), ROUND as f64);
            layers.set("probe.events", events.len() as f64 / ROUND as f64);
        }
        probe.take();
        round += 1;
        if t_run.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let ops = (ROUND * round) as f64;
    // Each commit's time is the median of its replays: every round replays
    // the same commit on the same state (README).
    let per_commit: Vec<f64> = per_commit.iter().map(|t| measure::median(t)).collect();

    let e2e = &mut out.end_to_end;
    e2e.set("setup_s", measure::median(&setup_s));
    e2e.set("latency_ms_p50", measure::median(&per_commit));
    e2e.set("latency_ms_tail", measure::tail(&per_commit, TAIL));
    e2e.set("throughput_per_s", ROUND as f64 * 1e3 / per_commit.iter().sum::<f64>());
    e2e.set("rounds", first_round.rounds as f64);
    e2e.set("node_rounds", first_round.node_rounds as f64);
    e2e.set("messages", first_round.messages as f64);
    e2e.set("message_bits", first_round.total_message_bits as f64);
    e2e.set("colors_used", colors_used as f64);
    e2e.set("peak_rss_mb", measure::peak_rss_mb());

    let med = |f: &dyn Fn(&(f64, LayerSample)) -> f64| {
        measure::median(&samples.iter().map(f).collect::<Vec<_>>())
    };
    let mean = |f: &dyn Fn(&(f64, LayerSample)) -> f64| {
        samples.iter().map(f).sum::<f64>() / samples.len().max(1) as f64
    };
    layers.set("stream.commit_ms", med(&|(ms, _)| *ms));
    layers.set("graph.commit_ms", med(&|(_, s)| s.commit_ms));
    layers.set("graph.commit_bytes", mean(&|(_, s)| s.commit_bytes as f64));
    layers.set("graph.region_ms", med(&|(_, s)| s.region_ms));
    layers.set("graph.region_edges", mean(&|(_, s)| s.region_edges as f64));
    layers.set("graph.region_vertices", mean(&|(_, s)| s.region_vertices as f64));
    layers.set("local.network_build_ms", med(&|(_, s)| s.build_ms));
    layers.set("core.repair_pipeline_ms", med(&|(_, s)| s.pipeline_ms));
    // Derived: the part of a commit no replay covers — color carry, the
    // finalize masks and protocol, and the engine's own bookkeeping.
    layers.set(
        "stream.other_ms",
        med(&|(ms, s)| ms - s.commit_ms - s.region_ms - s.build_ms - s.pipeline_ms),
    );
    layers.set("local.allocs_per_op", allocs as f64 / ops);
    let (t, u) = (measure::median(&traced_ms), measure::median(&untraced_ms));
    layers.set("probe.overhead_pct", if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 });
    out.per_layer = layers;
    out.spans = tracer.spans;
    out
}

/// Replays one commit layer by layer on a copy of the pre-commit graph:
/// the segmented commit, region extraction on the inserted edges, the
/// rank-renumbered region network and the pipeline on it.
fn replay_layers(
    tracer: &mut Tracer,
    op: u64,
    parent: u64,
    mut sg: SegmentedGraph,
    batch: &[TraceOp],
    params: LegalParams,
    mode: MessageMode,
) -> LayerSample {
    sg.set_probe(deco_probe::null());
    for &op in batch {
        let queued = match op {
            TraceOp::Insert(u, v) => sg.insert_edge(u, v),
            TraceOp::Delete(u, v) => sg.delete_edge(u, v),
            _ => unreachable!("churn batches hold only edge operations"),
        };
        queued.expect("the engine accepted the same operation");
    }
    let (delta, commit_ms, _) = tracer.time(op, parent, "graph.commit", || sg.commit());
    let delta = delta.expect("the engine committed the same batch");
    let mut dirty: Vec<usize> = delta.inserted_ids.iter().map(|&id| id as usize).collect();
    dirty.sort_unstable();
    let ((sub, _, _), region_ms, _) =
        tracer.time(op, parent, "graph.region", || sg.edge_induced(&dirty));
    // The pipeline's symmetry breaking wants identifiers 1..=n: renumber by
    // rank, order-preserving, as the engine does before its repair.
    let mut by_ident: Vec<usize> = (0..sub.n()).collect();
    by_ident.sort_unstable_by_key(|&v| sub.ident(v));
    let mut dense = vec![0u64; sub.n()];
    for (rank, &v) in by_ident.iter().enumerate() {
        dense[v] = rank as u64 + 1;
    }
    let sub = sub.with_idents(dense).expect("ranks are distinct");
    let early_halt = RecolorConfig::default().early_halt();
    let (net, build_ms, _) = tracer
        .time(op, parent, "local.network_build", || Network::new(&sub).with_early_halt(early_halt));
    let groups = vec![0u64; sub.m()];
    let delta_sub = sub.max_degree() as u64;
    let (run, pipeline_ms, _) = tracer.time(op, parent, "core.repair_pipeline", || {
        edge_color_in_groups(&net, &groups, 1, params, delta_sub, mode)
    });
    run.expect("preset parameters contract");
    LayerSample {
        commit_ms,
        commit_bytes: delta.commit_bytes,
        region_ms,
        region_edges: sub.m(),
        region_vertices: sub.n(),
        build_ms,
        pipeline_ms,
    }
}

/// Checks the engine's snapshot and coloring against the mirror; returns
/// the number of distinct colors.
fn verify(out: &mut Outcome, engine: &dyn RegionRecolor, mirror: &Mirror, args: &Args) -> usize {
    let g = engine.snapshot();
    let coloring = engine.coloring();
    let edges: Vec<(usize, usize)> = g.edges().collect();
    let bound = check::repair_bound(mirror);
    if let Err(e) = check::check(mirror, &edges, coloring.colors(), bound, args.inject) {
        out.fail_check(format!("commit {}: {e}", engine.commits()));
    }
    check::distinct(coloring.colors())
}
