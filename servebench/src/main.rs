//! servebench — the repository's end-to-end benchmark of a served Cubetree
//! engine.
//!
//! One run starts a real `ct-server` on loopback over an engine built from
//! TPC-D data at scale factor 0.1, drives one named workload from this
//! process, checks every answer, and prints one JSON result line:
//!
//! ```text
//! servebench --workload olap-uniform|olap-hot|ingest-refresh
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the engine recorder
//! off and no decorator. `--trace 1` runs the workload's traffic once
//! untraced and then again with the recorder, the engine decorator and
//! client spans on, and reports the per-layer metrics plus the tracing
//! overhead. See README.md in this directory for the workloads and the
//! metric map.

mod engine;
mod http;
mod load;
mod report;
mod traced;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ct_common::query::{normalize_rows, QueryRow};
use ct_common::{AttrId, Catalog, SliceQuery};
use ct_cube::Relation;
use ct_storage::IoSnapshot;
use ct_tpcd::TpcdWarehouse;
use ct_workload::serving::query_body;
use ct_workload::QueryGenerator;
use cubetree::engine::{CubetreeEngine, RolapEngine};

use engine::{Engine, Layout, Served};
use http::{now_ns, parse_rows, Conn};
use load::{Bodies, ClientOut, Endpoint, IngestBatch, QueryMix, QueryTable, Rec, Stop, WriteWatch};
use report::Metric;

/// Set-ups per untraced run; `setup_s` is their median and the workload
/// runs on the last.
const SETUPS: usize = 3;
/// `pages_per_query` and `sim_ms_per_query` come from a counter segment: one
/// client answers 16,000 uniform queries with nothing else running, so they
/// repeat for a seed (on the fresh engine before the read workloads' timed
/// phase; on the 2-shard engine after ingest-refresh's stream has drained).
const COUNTER_SEGMENT: u64 = 16_000;
/// olap-hot's clients first answer this many queries each, alone in turn,
/// which puts their hot sets in the answer cache before the timed phase.
const HOT_FILL: u64 = 5_000;
/// Fewest latency samples a percentile is reported from: 1,000 leaves ten
/// beyond p99.
const MIN_SAMPLES: usize = 1_000;
/// Every n-th request of the ingest-refresh query client is a freshness
/// probe.
const PROBE_EVERY: u64 = 50;
/// The open-loop write stream, 2,000 rows/s in both shapes: ingest-refresh
/// streams for its whole timed phase, the read workloads send a fixed
/// 2,400-row epilogue after theirs.
const STREAM_BATCH_ROWS: usize = 4;
const STREAM_INTERVAL: Duration = Duration::from_millis(2);
const EPILOGUE_BATCH_ROWS: usize = 2;
const EPILOGUE_INTERVAL: Duration = Duration::from_millis(1);
const EPILOGUE_BATCHES: usize = 1_200;
/// The paper's Table 7 increment: 10% of the base rows.
const REFRESH_FRACTION: f64 = 0.1;
/// Queries checked bit-for-bit against a freshly loaded engine after the
/// last write.
const FINAL_PROBES: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    OlapUniform,
    OlapHot,
    IngestRefresh,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "olap-uniform" => Some(Workload::OlapUniform),
            "olap-hot" => Some(Workload::OlapHot),
            "ingest-refresh" => Some(Workload::IngestRefresh),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OlapUniform => "olap-uniform",
            Workload::OlapHot => "olap-hot",
            Workload::IngestRefresh => "ingest-refresh",
        }
    }

    fn layout(self) -> Layout {
        match self {
            Workload::IngestRefresh => Layout::Sharded,
            _ => Layout::Single,
        }
    }

    fn query_clients(self) -> usize {
        match self {
            Workload::OlapHot => 2,
            _ => 1,
        }
    }

    fn skew(self) -> f64 {
        match self {
            Workload::OlapUniform => 0.0,
            _ => 1.1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("servebench: {msg}");
    eprintln!(
        "usage: servebench --workload olap-uniform|olap-hot|ingest-refresh \
         --seed N --seconds S (S >= 5) --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seconds takes an integer")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    };
    if args.seconds < 5 {
        usage("--seconds must be at least 5 (each percentile needs 1,000 samples)");
    }
    args
}

fn main() {
    let args = parse_args();
    // Engine files live under the working directory, not the system temp
    // directory: the storage layer creates them in `std::env::temp_dir()`.
    let scratch = std::path::PathBuf::from(".servebench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("servebench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let scratch = std::fs::canonicalize(&scratch).expect("scratch directory exists");
    std::env::set_var("TMPDIR", &scratch);
    http::now_ns();
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(out) => {
            println!("{}", out.record);
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.attempted,
                out.failed,
                report::metrics_json(&out.metrics)
            );
        }
        Err(failures) => {
            for f in &failures.messages {
                eprintln!("servebench: FAILED: {f}");
            }
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                failures.attempted.max(1),
                failures.failed
            );
            std::process::exit(1);
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    record: String,
}

struct Failures {
    messages: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl From<String> for Failures {
    fn from(message: String) -> Failures {
        Failures {
            messages: vec![message],
            attempted: 0,
            failed: 0,
        }
    }
}

/// Everything one pass of a workload produced.
struct Leg {
    /// Every request of the pass, in one id space: the timed phase, the
    /// counter segment, the cache fill and the checks' own queries
    /// (`timed == false`), the writes and the refresh.
    recs: Vec<Rec>,
    table: QueryTable,
    bodies: Bodies,
    phase_start_ns: u64,
    phase_end_ns: u64,
    /// CPU time of the whole process (server, engine, clients) over the
    /// timed phase, in `/proc` clock ticks.
    cpu_ticks: u64,
    /// Engine I/O over the counter window, and the answers it covers.
    window_io: IoSnapshot,
    window_answers: u64,
    /// The write stream's acknowledged rows and measure sum, and the wall
    /// time from its first send to its last acknowledgement.
    ingest_rows: u64,
    ingest_sum: i64,
    ingest_span_ns: u64,
    /// ingest-refresh: which stream batches were acknowledged.
    stream_acked: Vec<bool>,
    refresh_s: f64,
    refresh_io: IoSnapshot,
    storage_bytes: u64,
    /// Fact rows behind the views after the last write.
    fact_rows: u64,
    /// Share of the machine's CPU time the hypervisor stole during the pass
    /// (`/proc/stat`), for reading wall-clock figures.
    steal_frac: f64,
    failures: Vec<String>,
}

impl Leg {
    fn query_recs(&self) -> impl Iterator<Item = &Rec> {
        self.recs
            .iter()
            .filter(|r| r.endpoint == Endpoint::Query && r.timed)
    }

    fn answered(&self) -> u64 {
        self.query_recs().filter(|r| r.ok()).count() as u64
    }

    fn qps(&self) -> f64 {
        self.answered() as f64 / ((self.phase_end_ns - self.phase_start_ns) as f64 / 1e9)
    }

    fn query_latencies_ms(&self) -> Vec<f64> {
        self.query_recs()
            .filter(|r| r.ok())
            .map(|r| r.latency_ns() as f64 / 1e6)
            .collect()
    }

    fn ingest_latencies_ms(&self) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.endpoint == Endpoint::Ingest && r.ok())
            .map(|r| r.latency_ns() as f64 / 1e6)
            .collect()
    }
}

/// The data a workload runs on, all derived from the seed.
struct Inputs {
    w: TpcdWarehouse,
    base: Vec<AttrId>,
    /// Rows of the write stream (ingest-refresh) or epilogue (the others).
    stream: Relation,
    increment: Relation,
    /// Length of the timed phase.
    timed_ns: u64,
}

fn inputs(wl: Workload, seed: u64, seconds: u64) -> Inputs {
    let w = engine::warehouse(seed);
    let a = w.attrs();
    let base = vec![a.partkey, a.suppkey, a.custkey];
    let timed_ns = seconds * 1_000_000_000;
    let stream_rows = match wl {
        Workload::IngestRefresh => {
            (timed_ns / STREAM_INTERVAL.as_nanos() as u64) as usize * STREAM_BATCH_ROWS
        }
        _ => EPILOGUE_BATCHES * EPILOGUE_BATCH_ROWS,
    };
    // Stream rows are TPC-D rows from an independent generator seed.
    let sw = engine::warehouse(seed ^ 0x5EED_57EA);
    let mut stream = sw.generate_increment((stream_rows as f64 + 1.0) / sw.base_rows() as f64);
    stream.keys.truncate(stream_rows * stream.attrs.len());
    stream.states.truncate(stream_rows);
    let increment = w.generate_increment(REFRESH_FRACTION);
    Inputs {
        w,
        base,
        stream,
        increment,
        timed_ns,
    }
}

fn run(args: &Args) -> Result<Outcome, Failures> {
    let wl = args.workload;
    let inp = inputs(wl, args.seed, args.seconds);
    if args.trace {
        return run_traced(args, &inp);
    }
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some((served, _)) = last.take() {
            let served: Served = served;
            served.server.join();
        }
        let (served, fact, times) = engine::set_up(&inp.w, wl.layout(), false)?;
        setup_s.push(times.total_s);
        last = Some((served, measure_sum(&fact)));
    }
    let (served, base_total) = last.expect("at least one set-up");
    let reference = match &served.engine {
        Engine::Single(e) => Some(e.as_ref()),
        Engine::Sharded(_) => None,
    };
    let (leg, _) = run_leg(wl, args, &inp, &served, base_total, reference)?;
    served.server.join();
    let (metrics, measured) =
        report::end_to_end(&leg, &setup_s, MIN_SAMPLES).map_err(|e| failed(&leg, vec![e]))?;
    let record = record_json(args, &leg, &setup_s, &measured);
    Ok(Outcome {
        attempted: leg.recs.len() as u64,
        failed: failed_count(&leg),
        metrics,
        record,
    })
}

fn measure_sum(rows: &Relation) -> i64 {
    rows.states.iter().map(|s| s.sum).sum()
}

fn failed(leg: &Leg, messages: Vec<String>) -> Failures {
    Failures {
        messages,
        attempted: leg.recs.len() as u64,
        failed: failed_count(leg),
    }
}

/// Requests that did not succeed: 429s, 5xx answers and transport errors.
fn failed_count(leg: &Leg) -> u64 {
    leg.recs.iter().filter(|r| !r.ok()).count() as u64
}

/// `--trace 1`: one pass's timed traffic untraced (the overhead baseline),
/// then one whole pass traced.
fn run_traced(args: &Args, inp: &Inputs) -> Result<Outcome, Failures> {
    let wl = args.workload;
    let (plain, fact, _) = engine::set_up(&inp.w, wl.layout(), false)?;
    let base_total = measure_sum(&fact);
    drop(fact);
    let baseline = run_traffic(wl, args, inp, &plain, base_total)?;
    plain.server.join();
    if !baseline.failures.is_empty() {
        return Err(failed(&baseline, baseline.failures.clone()));
    }

    let (served, fact, times) = engine::set_up(&inp.w, wl.layout(), true)?;
    drop(fact);
    let traced = served
        .traced
        .clone()
        .expect("traced set-up has a decorator");
    let recorder = served.engine.recorder();
    let setup_metrics = recorder.snapshot();
    // The read workloads' answers are checked against the baseline engine
    // (same data, not written to), so that no page moves on the traced
    // engine outside the server's own calls.
    let reference = match &plain.engine {
        Engine::Single(e) => Some(e.as_ref()),
        Engine::Sharded(_) => None,
    };
    let io_before = traced.mark();
    let (leg, fresh) = run_leg(wl, args, inp, &served, base_total, reference)?;
    let io_total = traced.mark().since(&io_before);
    let after = recorder.snapshot();
    let (spans, ledger) = traced.finish();
    served.server.join();

    // Planning and execution time, split by replaying the pass's queries
    // through the core API on an untraced, unsharded engine: the baseline's
    // (unwritten) for the read workloads, the fresh reference for
    // ingest-refresh.
    let replay_engine = match (plain.engine, fresh) {
        (Engine::Single(e), _) | (_, Some(e)) => e,
        _ => unreachable!("ingest-refresh builds a fresh unsharded engine"),
    };
    let replay =
        report::replay(&replay_engine, &leg.table.queries).map_err(|e| failed(&leg, vec![e]))?;

    let ctx = report::TraceContext {
        leg: &leg,
        spans: &spans,
        ledger: &ledger,
        io_total,
        setup: &setup_metrics,
        after: &after,
        generate_s: times.generate_s,
        replay,
        baseline_qps: baseline.qps(),
        baseline_p50_ms: report::percentile(&baseline.query_latencies_ms(), 50.0),
    };
    let metrics = report::per_layer(&ctx).map_err(|e| failed(&leg, e))?;
    let record = record_json(args, &leg, &[times.total_s], "{}");
    Ok(Outcome {
        attempted: leg.recs.len() as u64,
        failed: failed_count(&leg),
        metrics,
        record,
    })
}

/// One pass: the traffic, the answer check against `reference` (an
/// unsharded engine over the same data, nothing written yet), the write
/// epilogue (read workloads), the Table 7 refresh, and the checks after the
/// last write. Returns ingest-refresh's freshly loaded reference engine.
fn run_leg(
    wl: Workload,
    args: &Args,
    inp: &Inputs,
    served: &Served,
    base_total: i64,
    reference: Option<&CubetreeEngine>,
) -> Result<(Leg, Option<Arc<CubetreeEngine>>), Failures> {
    let catalog = inp.w.catalog();
    let cpu0 = cpu_times();
    let mut leg = run_traffic(wl, args, inp, served, base_total)?;
    if let Some(engine) = reference {
        let mismatches = check_answers(&leg, engine);
        leg.failures.extend(mismatches);
        leg.bodies = Bodies::new();
    }
    if wl != Workload::IngestRefresh {
        let batches = load::ingest_batches(catalog, &inp.stream, EPILOGUE_BATCH_ROWS);
        let watch = WriteWatch::new(base_total);
        let mut acked = Vec::new();
        let t0 = now_ns();
        let recs = load::ingest_stream(
            &served.addr,
            &batches,
            EPILOGUE_INTERVAL,
            &watch,
            &mut acked,
            &mut leg.failures,
        );
        leg.ingest_span_ns = recs.iter().map(|r| r.end_ns).max().unwrap_or(t0) - t0;
        leg.ingest_rows = watch.acked_rows.load(Ordering::SeqCst);
        leg.ingest_sum = watch.acked_sum.load(Ordering::SeqCst);
        leg.recs.extend(recs);
        wait_drained(&served.engine, &mut leg.failures);
    }

    // The refresh, alone on the engine.
    engine::settle_files();
    let (body, increment_sum) = load::refresh_body(catalog, &inp.increment);
    let mut conn = Conn::connect(&served.addr).map_err(|e| format!("connect: {e}"))?;
    let io0 = served.engine.io();
    let start_ns = now_ns();
    let reply = conn.exchange("POST", "/refresh", body.as_bytes());
    leg.refresh_s = (now_ns() - start_ns) as f64 / 1e9;
    leg.refresh_io = served.engine.io().since(&io0);
    let mut rec = Rec::begin(
        Endpoint::Refresh,
        0,
        start_ns,
        start_ns,
        inp.increment.len() as u64,
    );
    match &reply {
        Ok(x) => {
            rec.finish(Some(x));
            if x.status != 200 {
                leg.failures.push(format!(
                    "/refresh answered {}: {}",
                    x.status,
                    String::from_utf8_lossy(&x.body)
                ));
            }
        }
        Err(e) => {
            rec.finish(None);
            leg.failures.push(format!("/refresh transport error: {e}"));
        }
    }
    leg.recs.push(rec);
    leg.storage_bytes = served.engine.storage_bytes();
    leg.fact_rows = inp.w.base_rows() + leg.ingest_rows + inp.increment.len() as u64;
    let (steal, total) = cpu_times();
    leg.steal_frac =
        steal.saturating_sub(cpu0.0) as f64 / total.saturating_sub(cpu0.1).max(1) as f64;

    // After the last write the grand total is exact, and the partitioned
    // engine answers a probe set bit-identically to an unsharded engine
    // loaded from base ∪ ingested ∪ increment.
    let expect = base_total + leg.ingest_sum + increment_sum;
    let gt = load::grand_total_query(catalog);
    match http_rows(&mut conn, catalog, &gt, &mut leg) {
        Ok(rows) => {
            let total: f64 = rows.iter().map(|r| r.agg).sum();
            if total != expect as f64 {
                leg.failures.push(format!(
                    "grand total after refresh is {total}, expected {expect}"
                ));
            }
        }
        Err(e) => leg.failures.push(e),
    }
    let mut fresh = None;
    if wl == Workload::IngestRefresh {
        let reference = fresh.insert(reference_engine(inp, &leg)?);
        let mut generator = QueryGenerator::new(catalog, inp.base.clone(), args.seed ^ 0xC0FFEE);
        let probes: Vec<SliceQuery> = (0..FINAL_PROBES).map(|_| generator.next_query()).collect();
        for q in probes.iter().chain(std::iter::once(&gt)) {
            let expect = match reference.query(q) {
                Ok(rows) => normalize_rows(rows),
                Err(e) => {
                    leg.failures.push(format!("reference query {q:?}: {e}"));
                    continue;
                }
            };
            match http_rows(&mut conn, catalog, q, &mut leg) {
                Ok(rows) if same_rows(&rows, &expect) => {}
                Ok(_) => leg.failures.push(format!(
                    "answer to {q:?} differs from a freshly loaded unsharded engine"
                )),
                Err(e) => leg.failures.push(e),
            }
        }
    }
    if let Some(r) = leg.recs.iter().find(|r| r.status != 200 && r.status != 429) {
        leg.failures.push(format!(
            "a {:?} request failed with status {}",
            r.endpoint, r.status
        ));
    }
    if !leg.failures.is_empty() {
        let messages = std::mem::take(&mut leg.failures);
        return Err(failed(&leg, messages));
    }
    Ok((leg, fresh))
}

/// The traffic of one pass. The read workloads first run the counter
/// segment (olap-hot then fills the answer cache with each client's hot
/// set), then their closed-loop clients together for `--seconds`.
/// ingest-refresh runs the open-loop stream for that long beside one
/// closed-loop query client, waits until the compactor has drained the
/// delta tier, and then runs the counter segment.
fn run_traffic(
    wl: Workload,
    args: &Args,
    inp: &Inputs,
    served: &Served,
    base_total: i64,
) -> Result<Leg, Failures> {
    let catalog = inp.w.catalog();
    let streaming = wl == Workload::IngestRefresh;
    let mix = QueryMix {
        skew: wl.skew(),
        seed: args.seed,
        probe_every: if streaming { PROBE_EVERY } else { 0 },
        keep_bodies: !streaming,
    };
    let no_flag = AtomicBool::new(false);
    let mut outs = Vec::new();
    let mut failures = Vec::new();
    engine::settle_files();

    // One client at a time, with nothing else running.
    let solo = |outs: &mut Vec<ClientOut>, mix: &QueryMix, clients: usize, answers: u64| {
        for c in 0..clients {
            let stop = Stop {
                deadline_ns: 0,
                answers,
                flag: &no_flag,
            };
            let mut out = load::query_client(&served.addr, catalog, &inp.base, mix, c, &stop, None);
            out.recs.iter_mut().for_each(|r| r.timed = false);
            outs.push(out);
        }
    };
    let uniform = QueryMix {
        skew: 0.0,
        seed: args.seed,
        probe_every: 0,
        keep_bodies: !streaming,
    };
    let counter_segment = |outs: &mut Vec<ClientOut>| {
        let io0 = served.engine.io();
        solo(outs, &uniform, 1, COUNTER_SEGMENT);
        served.engine.io().since(&io0)
    };
    let mut window_io = None;
    if !streaming {
        window_io = Some(counter_segment(&mut outs));
    }
    if wl == Workload::OlapHot {
        solo(&mut outs, &mix, wl.query_clients(), HOT_FILL);
    }

    let watch = WriteWatch::new(base_total);
    let batches: Vec<IngestBatch> = if streaming {
        load::ingest_batches(catalog, &inp.stream, STREAM_BATCH_ROWS)
    } else {
        Vec::new()
    };
    // olap-uniform's timed client draws queries the counter segment did not;
    // olap-hot's replay the hot sets their fill cached.
    let timed_mix = QueryMix {
        seed: if wl == Workload::OlapUniform {
            args.seed ^ 0x7133
        } else {
            args.seed
        },
        ..mix
    };
    let stop_flag = AtomicBool::new(false);
    let mut acked = Vec::new();
    let cpu_start = process_cpu_ticks();
    let start_ns = now_ns();
    let stop = Stop {
        deadline_ns: if streaming {
            u64::MAX
        } else {
            start_ns + inp.timed_ns
        },
        answers: 0,
        flag: &stop_flag,
    };
    let (timed_outs, ingest_recs) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..wl.query_clients())
            .map(|c| {
                let (mix, stop) = (&timed_mix, &stop);
                let watch = streaming.then_some(&watch);
                scope.spawn(move || {
                    load::query_client(&served.addr, catalog, &inp.base, mix, c, stop, watch)
                })
            })
            .collect();
        let ingest_recs = if streaming {
            let recs = load::ingest_stream(
                &served.addr,
                &batches,
                STREAM_INTERVAL,
                &watch,
                &mut acked,
                &mut failures,
            );
            stop_flag.store(true, Ordering::SeqCst);
            recs
        } else {
            Vec::new()
        };
        let outs: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect();
        (outs, ingest_recs)
    });
    let cpu_ticks = process_cpu_ticks() - cpu_start;
    let phase_end_ns = timed_outs
        .iter()
        .flat_map(|o| &o.recs)
        .chain(&ingest_recs)
        .map(|r| r.end_ns)
        .max()
        .unwrap_or(start_ns + 1);
    outs.extend(timed_outs);
    if streaming {
        wait_drained(&served.engine, &mut failures);
        window_io = Some(counter_segment(&mut outs));
    }
    let window_io = window_io.expect("every workload runs its counter segment");

    // One id space for every client's queries.
    let mut table = QueryTable::default();
    let mut bodies = Bodies::new();
    let mut recs = Vec::new();
    for out in outs {
        let remap: Vec<u32> = out.table.queries.iter().map(|q| table.intern(q)).collect();
        for ((id, csv, hash), body) in out.bodies {
            bodies
                .entry((remap[id as usize], csv, hash))
                .or_insert(body);
        }
        recs.extend(out.recs.into_iter().map(|mut r| {
            r.id = remap[r.id as usize];
            r
        }));
        failures.extend(out.failures);
    }
    let ingest_span_ns = ingest_recs
        .iter()
        .map(|r| r.end_ns)
        .max()
        .map_or(0, |end| end - start_ns);
    recs.extend(ingest_recs);
    Ok(Leg {
        recs,
        table,
        bodies,
        phase_start_ns: start_ns,
        phase_end_ns,
        cpu_ticks,
        window_io,
        window_answers: COUNTER_SEGMENT,
        ingest_rows: watch.acked_rows.load(Ordering::SeqCst),
        ingest_sum: watch.acked_sum.load(Ordering::SeqCst),
        ingest_span_ns,
        stream_acked: acked,
        refresh_s: 0.0,
        refresh_io: IoSnapshot::default(),
        storage_bytes: 0,
        fact_rows: 0,
        steal_frac: 0.0,
        failures,
    })
}

/// Waits until the compactor has folded every resident delta row.
fn wait_drained(engine: &Engine, failures: &mut Vec<String>) {
    let give_up = now_ns() + 60_000_000_000;
    while engine.resident_delta_rows() > 0 {
        if now_ns() > give_up {
            failures.push("the compactor did not drain the delta tier within 60 s".to_string());
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Every distinct answer body of the traffic must equal `engine`'s
/// in-process answer to the same query. The answers come from `RolapEngine::query_batch`, whose
/// per-query results are those of `RolapEngine::query`.
fn check_answers(leg: &Leg, engine: &CubetreeEngine) -> Vec<String> {
    let mut ids: Vec<u32> = leg.bodies.keys().map(|(id, _, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut expected: HashMap<u32, Vec<QueryRow>> = HashMap::new();
    for chunk in ids.chunks(256) {
        let queries: Vec<SliceQuery> = chunk
            .iter()
            .map(|id| leg.table.queries[*id as usize].clone())
            .collect();
        match engine.query_batch(&queries) {
            Ok(batch) => expected.extend(
                chunk
                    .iter()
                    .copied()
                    .zip(batch.results.into_iter().map(normalize_rows)),
            ),
            Err(e) => return vec![format!("reference queries: {e}")],
        }
    }
    let mut failures = Vec::new();
    for ((id, csv, _), body) in &leg.bodies {
        let q = &leg.table.queries[*id as usize];
        match parse_rows(body, *csv) {
            Ok(rows) if same_rows(&rows, &expected[id]) => {}
            Ok(_) => failures.push(format!(
                "served answer to {q:?} (csv: {csv}) differs from the engine's"
            )),
            Err(e) => failures.push(format!("answer to {q:?}: {e}")),
        }
    }
    failures
}

/// Bit-identical rows (keys equal, aggregates equal to the last bit).
fn same_rows(a: &[QueryRow], b: &[QueryRow]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.key == y.key && x.agg.to_bits() == y.agg.to_bits())
}

/// One JSON query over the wire, parsed into rows (recorded as an untimed
/// request).
fn http_rows(
    conn: &mut Conn,
    catalog: &Catalog,
    q: &SliceQuery,
    leg: &mut Leg,
) -> Result<Vec<QueryRow>, String> {
    let body = query_body(catalog, q, false);
    let start_ns = now_ns();
    let mut rec = Rec::begin(Endpoint::Query, leg.table.intern(q), start_ns, start_ns, 0);
    rec.timed = false;
    let reply = conn.exchange("POST", "/query", body.as_bytes());
    rec.finish(reply.as_ref().ok());
    leg.recs.push(rec);
    let x = reply.map_err(|e| format!("probe {q:?}: {e}"))?;
    if x.status != 200 {
        return Err(format!("probe {q:?} answered {}", x.status));
    }
    parse_rows(&x.body, false)
}

/// An unsharded engine loaded from base ∪ acknowledged stream rows ∪ the
/// refresh increment: what the served engine must equal after the last
/// write.
fn reference_engine(inp: &Inputs, leg: &Leg) -> Result<Arc<CubetreeEngine>, String> {
    let mut all = inp.w.generate_fact();
    for (batch, _) in leg
        .stream_acked
        .iter()
        .enumerate()
        .filter(|(_, acked)| **acked)
    {
        let lo = batch * STREAM_BATCH_ROWS;
        for r in lo..(lo + STREAM_BATCH_ROWS).min(inp.stream.len()) {
            all.push(inp.stream.key(r), inp.stream.states[r]);
        }
    }
    for r in 0..inp.increment.len() {
        all.push(inp.increment.key(r), inp.increment.states[r]);
    }
    match engine::build(&inp.w, &all, Layout::Single, ct_obs::Recorder::disabled())? {
        Engine::Single(e) => Ok(e),
        Engine::Sharded(_) => unreachable!("built with the single layout"),
    }
}

/// Machine-wide stolen and total CPU jiffies (`/proc/stat`; zeros where it
/// is unreadable).
fn cpu_times() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// User + system CPU time of this process, dead threads included, in
/// `/proc` clock ticks (`USER_HZ`, 100 per second).
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.get(10).copied().unwrap_or(0) + fields.get(11).copied().unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout came from, when it is a git checkout (read from
/// `.git` directly so nothing outside the working directory is touched).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// The run's context and failure accounting, printed as one JSON line
/// before the result line.
fn record_json(args: &Args, leg: &Leg, setup_s: &[f64], measured: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = engine::pool_pages(engine::warehouse(args.seed).base_rows() as usize);
    let pool_pages = match args.workload.layout() {
        Layout::Single => pool,
        Layout::Sharded => (pool / engine::SHARDS).max(128) * engine::SHARDS,
    };
    let mut accounting = Vec::new();
    for ep in [Endpoint::Query, Endpoint::Ingest, Endpoint::Refresh] {
        let sent: Vec<&Rec> = leg.recs.iter().filter(|r| r.endpoint == ep).collect();
        let count = |f: &dyn Fn(u16) -> bool| sent.iter().filter(|r| f(r.status)).count();
        accounting.push(format!(
            "\"{ep:?}\": {{\"sent\": {}, \"ok\": {}, \"429\": {}, \"5xx\": {}, \"transport\": {}, \"failed_frac\": {}}}",
            sent.len(),
            count(&|s| s == 200),
            count(&|s| s == 429),
            count(&|s| s >= 500),
            count(&|s| s == 0),
            count(&|s| s != 200) as f64 / sent.len().max(1) as f64,
        ));
    }
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"git_rev\": \"{}\", \"sf\": {}, \"threads\": {}, \
         \"pool_pages\": {pool_pages}, \"pool_bytes\": {}, \"view_bytes\": {}, \
         \"answer_cache_bytes\": {}, \"setup_s\": {:?}, \"query_samples\": {}, \
         \"ingest_samples\": {}, \"steal_frac\": {:?}, \"failed_frac\": {}, \
         \"accounting\": {{{}}}, \"measured\": {measured}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        engine::SF,
        engine::THREADS,
        pool_pages * ct_storage::PAGE_SIZE,
        leg.storage_bytes,
        engine::server_config().cache.max_bytes,
        setup_s,
        leg.query_latencies_ms().len(),
        leg.ingest_latencies_ms().len(),
        leg.steal_frac,
        failed_count(leg) as f64 / leg.recs.len().max(1) as f64,
        accounting.join(", "),
    )
}
