//! `fleet-1000`: `deco-serve` with 1000 small tenants (n = 36..68, Δ ≤ 4,
//! `TenantSpec::new` defaults) on one shard, fed by this thread — two busy
//! threads in all. Two phases:
//!
//! * an open loop at a fixed offered rate below saturation, in bursts;
//!   its latency (due time until this thread sees the new epoch through
//!   `Serve::snapshot`), execution and queue-wait figures are per-layer;
//! * a closed loop in waves: each wave sends one commit to every tenant
//!   and waits until all are visible. Its wave times are the end-to-end
//!   figures, because on the reference host the open loop's latency
//!   spreads more from run to run than any allowed bound (README).

use crate::check::{self, Mirror};
use crate::measure::{self, alloc, Metrics, Outcome, Tracer};
use crate::Args;
use deco_graph::trace::{churn_trace, TraceOp};
use deco_local::{spill, RunStats};
use deco_probe::report::Report;
use deco_probe::RecordingProbe;
use deco_serve::{Serve, ServeConfig, ServeError, TenantSpec};
use deco_stream::RecolorConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 1000;
/// One worker shard: with this thread as the generator, two busy threads.
const SHARDS: usize = 1;
/// Open-loop offered load: a burst of BURST commits every PERIOD, 2000
/// commits/s on average. One shard clears a burst in about a third of the
/// period on the reference host, so latency is set by the queue a burst
/// builds more than by wake-ups or scheduling hiccups of the host.
const BURST: usize = 200;
const PERIOD: Duration = Duration::from_millis(100);
/// Edges deleted and inserted per churn commit.
const CHURN: usize = 4;
/// Churn commits generated per tenant: the open loop's plus one per closed
/// loop wave, with room for twice the waves a 30-s run makes today. The
/// closed loop stops when the traces are spent, and says so.
const TRACE_COMMITS: usize = 500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// How long before a due time the open-loop generator stops sleeping.
const SPIN_AHEAD: Duration = Duration::from_micros(150);
/// Share of the run given to the open loop; the closed loop, whose figures
/// are the end-to-end ones, gets the rest.
const OPEN_SHARE: f64 = 0.25;
/// Tail percentile of the open-loop figures (15k commits in a 30-s run).
const TAIL: f64 = 99.0;
/// Tail percentile of the closed loop's wave times: a 30-s run holds 230
/// or more waves on the reference host, so twelve or more lie beyond it.
const WAVE_TAIL: f64 = 95.0;

/// One tenant's input: its vertex count and commit batches (batch 0
/// builds the graph).
struct TenantInput {
    n0: usize,
    batches: Vec<Vec<TraceOp>>,
}

/// What the generator knows about one tenant.
struct Client {
    mirror: Mirror,
    /// Commits submitted, build commit included; the epoch to wait for.
    submitted: usize,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let rate = BURST as f64 / PERIOD.as_secs_f64();
    let open_seconds = args.seconds * OPEN_SHARE;
    let open_per_tenant = ((rate * open_seconds) / TENANTS as f64).round().max(1.0) as usize;
    let inputs: Vec<TenantInput> = (0..TENANTS)
        .map(|i| {
            let seed = args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
            let trace = churn_trace(36 + (i % 5) * 8, 4, TRACE_COMMITS, CHURN, seed);
            TenantInput {
                n0: trace.n0,
                batches: trace.batches().iter().map(|b| b.to_vec()).collect(),
            }
        })
        .collect();
    let probe = Arc::new(RecordingProbe::new());
    // Traced runs record the probe on even tenants only; odd tenants are
    // the untraced reference for the overhead figure.
    let config = |i: usize| {
        if args.trace && i.is_multiple_of(2) {
            RecolorConfig::default().with_probe(probe.clone())
        } else {
            RecolorConfig::default()
        }
    };

    // Set-up: service start, registration and every tenant's build commit.
    // The spill arena's allocations are read over the process's first one.
    let mut layers = Metrics::default();
    let spill0 = spill::stats();
    let mut setup_s = Vec::new();
    let mut serve = None;
    for _ in 0..SETUPS {
        if let Some(old) = serve.take() {
            Serve::shutdown(old);
        }
        let t0 = Instant::now();
        let s = Serve::start(ServeConfig::default().with_shards(SHARDS));
        for (i, input) in inputs.iter().enumerate() {
            let spec = TenantSpec::new(format!("t{i}"), input.n0).with_config(config(i));
            let id = s.register(spec).expect("default parameters contract");
            for &op in &input.batches[0] {
                s.submit_blocking(id, op).expect("generated operations are admitted");
            }
            s.commit_blocking(id).expect("commits are admitted");
        }
        s.drain();
        setup_s.push(t0.elapsed().as_secs_f64());
        if setup_s.len() == 1 {
            layers.set_spill(spill0);
        }
        serve = Some(s);
    }
    let serve = serve.expect("at least one set-up");
    let mut clients: Vec<Client> = inputs
        .iter()
        .map(|input| {
            let mut mirror = Mirror::new();
            for &op in &input.batches[0] {
                check::apply(&mut mirror, op);
            }
            Client { mirror, submitted: 1 }
        })
        .collect();
    verify_fleet(&mut out, &serve, &clients, args);
    probe.take();

    // Open loop: every PERIOD a burst of BURST commits falls due; commit j
    // goes to tenant j % TENANTS.
    let mut tracer = Tracer::new(args.trace);
    let total = open_per_tenant * TENANTS;
    let (mut lag_ms, mut submit_us, mut read_us) = (Vec::new(), Vec::new(), Vec::new());
    // (tenant, commit index, latency ms)
    let mut seen: Vec<(usize, usize, f64)> = Vec::with_capacity(total);
    // (tenant, epoch awaited, due time, trace id, span id)
    let mut pending: Vec<(usize, usize, Instant, u64, u64)> = Vec::new();
    let allocs0 = alloc::count();
    let start = Instant::now() + PERIOD;
    let mut next = 0;
    while next < total {
        let due = start + PERIOD * (next / BURST) as u32;
        // A client that spins would hold a core the worker may be woken
        // onto: sleep until shortly before the burst, then spin to it.
        if let Some(wait) =
            due.checked_sub(SPIN_AHEAD).and_then(|w| w.checked_duration_since(Instant::now()))
        {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        for j in next..(next + BURST).min(total) {
            let i = j % TENANTS;
            let trace = j as u64 + 1;
            let span = tracer.open(trace, 0, "fleet.commit", due);
            let client = &mut clients[i];
            let batch = &inputs[i].batches[client.submitted];
            let (ok, _, _) = tracer.time(trace, span, "serve.submit", || {
                let mut ok = true;
                for &op in batch {
                    let t0 = Instant::now();
                    let r = serve.submit(i, op);
                    submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    ok &= admitted(&mut out, r);
                }
                let t0 = Instant::now();
                let r = serve.commit(i);
                submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                ok & admitted(&mut out, r)
            });
            for &op in batch {
                check::apply(&mut client.mirror, op);
            }
            out.attempted += 1;
            if !ok {
                out.failed += 1;
            }
            client.submitted += 1;
            pending.push((i, client.submitted, due, trace, span));
        }
        next = (next + BURST).min(total);
        // One shard completes commits in submission order: wait on the
        // oldest, so the generator reads one snapshot per completion instead
        // of contending with the worker over every pending tenant.
        for &(i, epoch, due, trace, span) in &pending {
            loop {
                let t0 = Instant::now();
                let snap = serve.snapshot(i).expect("registered tenant");
                let t1 = Instant::now();
                if (snap.epoch as usize) < epoch {
                    std::thread::yield_now();
                    continue;
                }
                read_us.push((t1 - t0).as_secs_f64() * 1e6);
                seen.push((i, epoch - 1, t1.saturating_duration_since(due).as_secs_f64() * 1e3));
                let read = tracer.open(trace, span, "serve.snapshot", t0);
                tracer.close(read, t1);
                tracer.close(span, t1);
                break;
            }
        }
        pending.clear();
    }
    serve.drain();
    let open_allocs = alloc::count() - allocs0;
    verify_fleet(&mut out, &serve, &clients, args);

    // Deterministic totals over the build and open-loop commits.
    let mut stats = RunStats::zero();
    let (mut colors_used, mut node_rounds) = (0usize, 0u64);
    let (mut region_edges, mut region_vertices) = (0usize, 0usize);
    let (mut exec_ms, mut wait_ms) = (Vec::new(), Vec::new());
    let (mut exec_traced, mut exec_untraced) = (Vec::new(), Vec::new());
    let walls: Vec<Vec<Duration>> =
        (0..TENANTS).map(|i| serve.commit_walls(i).expect("registered tenant")).collect();
    for (i, tenant_walls) in walls.iter().enumerate() {
        for r in serve.reports(i).expect("registered tenant") {
            stats += r.stats;
            region_edges += r.dirty;
            region_vertices += r.region_vertices;
        }
        node_rounds += serve.cost(i).expect("registered tenant");
        let snap = serve.snapshot(i).expect("registered tenant");
        colors_used = colors_used.max(check::distinct(snap.coloring.colors()));
        for w in &tenant_walls[1..] {
            let ms = w.as_secs_f64() * 1e3;
            exec_ms.push(ms);
            if i.is_multiple_of(2) { &mut exec_traced } else { &mut exec_untraced }.push(ms);
        }
    }
    for &(i, c, latency) in &seen {
        wait_ms.push(latency - walls[i][c].as_secs_f64() * 1e3);
    }
    let events = probe.take();

    let open_latency_ms: Vec<f64> = seen.iter().map(|&(_, _, l)| l).collect();

    // Closed loop, in waves: each wave sends one commit to every tenant and
    // waits in `Serve::drain` until all of them are visible. The generator
    // sleeps on the service's condition variable while the shard works, so
    // the shard has the host to itself between waves.
    let peak_rss_mb = measure::peak_rss_mb();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds - open_seconds);
    let mut wave_ms = Vec::new();
    while Instant::now() < deadline {
        if clients.iter().zip(&inputs).any(|(c, input)| c.submitted >= input.batches.len()) {
            eprintln!("layerbench: the tenants ran out of generated commits; raise TRACE_COMMITS");
            break;
        }
        let t0 = Instant::now();
        for (i, client) in clients.iter_mut().enumerate() {
            send(&mut out, &serve, i, client, &inputs[i]);
        }
        serve.drain();
        wave_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        // No per-layer figure comes from the closed loop: drop the events
        // the probed tenants record, which would reach hundreds of MB.
        if args.trace {
            probe.take();
        }
    }
    serve.drain();
    verify_fleet(&mut out, &serve, &clients, args);
    serve.shutdown();

    let e2e = &mut out.end_to_end;
    e2e.set("setup_s", measure::median(&setup_s));
    e2e.set("latency_ms_p50", measure::median(&wave_ms));
    e2e.set("latency_ms_tail", measure::tail(&wave_ms, WAVE_TAIL));
    e2e.set("throughput_per_s", TENANTS as f64 * 1e3 / measure::median(&wave_ms));
    e2e.set("rounds", stats.rounds as f64);
    e2e.set("node_rounds", stats.node_rounds as f64);
    e2e.set("messages", stats.messages as f64);
    e2e.set("message_bits", stats.total_message_bits as f64);
    e2e.set("colors_used", colors_used as f64);
    e2e.set("peak_rss_mb", peak_rss_mb);

    let commits = (TENANTS * (1 + open_per_tenant)) as f64;
    let traced_commits = (TENANTS / 2 * open_per_tenant) as f64;
    let report = Report::build(&events);
    layers.set_phases(&report, traced_commits);
    layers.set("graph.commit_bytes", report.commit_bytes as f64 / traced_commits);
    layers.set("graph.region_edges", region_edges as f64 / commits);
    layers.set("graph.region_vertices", region_vertices as f64 / commits);
    layers.set("local.allocs_per_op", open_allocs as f64 / total as f64);
    layers.set("serve.open_latency_ms_p50", measure::median(&open_latency_ms));
    layers.set("serve.open_latency_ms_tail", measure::tail(&open_latency_ms, TAIL));
    layers.set("serve.exec_ms_p50", measure::median(&exec_ms));
    layers.set("serve.exec_ms_tail", measure::tail(&exec_ms, TAIL));
    // Derived: visible latency minus execution — queue wait, claim,
    // snapshot publish and the generator's detection delay.
    layers.set("serve.queue_wait_ms_p50", measure::median(&wait_ms));
    layers.set("serve.queue_wait_ms_tail", measure::tail(&wait_ms, TAIL));
    layers.set("serve.snapshot_read_us_p50", measure::median(&read_us));
    layers.set("serve.submit_us_p50", measure::median(&submit_us));
    layers.set("serve.node_rounds", node_rounds as f64);
    layers.set("serve.generator_lag_ms", measure::tail(&lag_ms, TAIL));
    layers.set("probe.events", events.len() as f64 / traced_commits);
    let (t, u) = (measure::median(&exec_traced), measure::median(&exec_untraced));
    layers.set("probe.overhead_pct", if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 });
    out.per_layer = layers;
    out.spans = tracer.spans;
    out
}

/// Submits a tenant's next commit batch without timing it.
fn send(out: &mut Outcome, serve: &Serve, i: usize, client: &mut Client, input: &TenantInput) {
    let mut ok = true;
    for &op in &input.batches[client.submitted] {
        ok &= admitted(out, serve.submit(i, op));
        check::apply(&mut client.mirror, op);
    }
    ok &= admitted(out, serve.commit(i));
    out.attempted += 1;
    if !ok {
        out.failed += 1;
    }
    client.submitted += 1;
}

/// Counts a refused submission (backpressure, quota, quarantine) as a
/// failed operation; returns whether it was admitted.
fn admitted(out: &mut Outcome, r: Result<(), ServeError>) -> bool {
    match r {
        Ok(()) => true,
        Err(e) => {
            out.fail_check(format!("submission refused: {e}"));
            false
        }
    }
}

/// Every tenant's published snapshot: epoch equal to its commit count,
/// edge set equal to its mirror, a proper coloring below `2Δ - 1`, and no
/// recorded engine error.
fn verify_fleet(out: &mut Outcome, serve: &Serve, clients: &[Client], args: &Args) {
    for (i, client) in clients.iter().enumerate() {
        let snap = serve.snapshot(i).expect("registered tenant");
        if snap.epoch as usize != client.submitted {
            out.fail_check(format!(
                "tenant {i}: epoch {} after {} commits",
                snap.epoch, client.submitted
            ));
        }
        let edges: Vec<(usize, usize)> = snap.graph.edges().collect();
        let bound = check::repair_bound(&client.mirror);
        if let Err(e) =
            check::check(&client.mirror, &edges, snap.coloring.colors(), bound, args.inject)
        {
            out.fail_check(format!("tenant {i}: {e}"));
        }
        if let Some(err) = serve.errors(i).expect("registered tenant").first() {
            out.fail_check(format!("tenant {i}: engine error {}", err.message));
        }
    }
}
