//! Turning a pass's raw records into metrics: the end-to-end set of the
//! untraced run, and the per-layer set of the traced run with its span
//! analysis and reconciliation checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ct_common::SliceQuery;
use ct_obs::MetricsSnapshot;
use ct_storage::IoSnapshot;
use cubetree::engine::{CubetreeEngine, RolapEngine};
use cubetree::query::{execute_planned_query_partial, plan_generation_query};

use crate::engine::cost_model;
use crate::http::now_ns;
use crate::load::{Endpoint, Rec};
use crate::traced::{Call, EngineSpan, IoLedger};
use crate::Leg;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`; non-finite values print as 0.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile (0 for an empty set).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = values.fold((0usize, 0.0), |(n, s), v| (n + 1, s + v));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics the benchmark bounds besides `setup_s`: counters
/// and sizes, which stay steady from run to run on a small host shared with
/// other tenants. The wall-clock and memory figures of [`pass_metrics`] are
/// not bounded; they are printed in the record line's `measured` object and
/// reported by the traced run as `workload.*`.
const BOUNDED: [&str; 5] = [
    "pages_per_query",
    "sim_ms_per_query",
    "ingest_rows_per_s",
    "refresh_sim_s",
    "storage_bytes_per_row",
];

/// Everything one pass measures from outside the program.
pub fn pass_metrics(leg: &Leg) -> Vec<Metric> {
    let query = leg.query_latencies_ms();
    let ingest = leg.ingest_latencies_ms();
    let io = &leg.window_io;
    let answers = leg.window_answers as f64;
    vec![
        metric("query_qps", leg.qps(), "answers/s"),
        metric("query_p50_ms", percentile(&query, 50.0), "ms"),
        metric("query_p99_ms", percentile(&query, 99.0), "ms"),
        metric(
            "cpu_us_per_query",
            leg.cpu_ticks as f64 * 1e4 / leg.answered() as f64,
            "us",
        ),
        metric(
            "pages_per_query",
            (io.seq_reads + io.rand_reads) as f64 / answers,
            "pages",
        ),
        metric(
            "sim_ms_per_query",
            io.simulated_seconds(&cost_model()) * 1e3 / answers,
            "ms",
        ),
        metric(
            "ingest_rows_per_s",
            leg.ingest_rows as f64 / (leg.ingest_span_ns as f64 / 1e9),
            "rows/s",
        ),
        metric("ingest_ack_p50_ms", percentile(&ingest, 50.0), "ms"),
        metric("ingest_ack_p99_ms", percentile(&ingest, 99.0), "ms"),
        metric("refresh_s", leg.refresh_s, "s"),
        metric(
            "refresh_sim_s",
            leg.refresh_io.simulated_seconds(&cost_model()),
            "s",
        ),
        metric(
            "storage_bytes_per_row",
            leg.storage_bytes as f64 / leg.fact_rows as f64,
            "bytes",
        ),
        metric("peak_rss_mb", crate::peak_rss_mb(), "MiB"),
    ]
}

/// The end-to-end metrics of an untraced run: `setup_s` (median of the
/// set-ups) and each [`BOUNDED`] metric of the pass. Also returns every
/// [`pass_metrics`] value as a JSON object.
pub fn end_to_end(
    leg: &Leg,
    setup_s: &[f64],
    min_samples: usize,
) -> Result<(Vec<Metric>, String), String> {
    let (query, ingest) = (
        leg.query_latencies_ms().len(),
        leg.ingest_latencies_ms().len(),
    );
    if query < min_samples || ingest < min_samples {
        return Err(format!(
            "too few samples for a p99 with ten beyond it: {query} query, {ingest} ingest (need {min_samples})"
        ));
    }
    let measured = pass_metrics(leg);
    let mut out = vec![metric("setup_s", median(setup_s), "s")];
    out.extend(
        measured
            .iter()
            .filter(|m| BOUNDED.contains(&m.name.as_str()))
            .map(|m| metric(&m.name, m.value, m.unit)),
    );
    Ok((out, metrics_json(&measured)))
}

/// Mean per-query planning and execution time of a replay.
pub struct Replay {
    pub plan_us: f64,
    pub execute_us: f64,
}

/// Replays `queries` through the core API under one pin: plan with
/// `plan_generation_query`, then execute the chosen plan, timing each.
pub fn replay(engine: &CubetreeEngine, queries: &[SliceQuery]) -> Result<Replay, String> {
    let forest = engine.forest().ok_or("replay engine is not loaded")?;
    let catalog = RolapEngine::catalog(engine);
    let env = engine.env();
    let (pin, delta) = forest.pin_with_delta();
    let (mut plan_ns, mut exec_ns) = (0u64, 0u64);
    for q in queries {
        let t0 = now_ns();
        let plan =
            plan_generation_query(&pin, catalog, q).map_err(|e| format!("replay plan: {e}"))?;
        let t1 = now_ns();
        let rows = execute_planned_query_partial(&pin, delta.as_option(), env, catalog, q, &plan)
            .map_err(|e| format!("replay execute: {e}"))?
            .finish();
        std::hint::black_box(rows);
        let t2 = now_ns();
        plan_ns += t1 - t0;
        exec_ns += t2 - t1;
    }
    let n = queries.len().max(1) as f64;
    Ok(Replay {
        plan_us: plan_ns as f64 / 1e3 / n,
        execute_us: exec_ns as f64 / 1e3 / n,
    })
}

/// Everything the traced pass hands to the per-layer analysis.
pub struct TraceContext<'a> {
    pub leg: &'a Leg,
    pub spans: &'a [EngineSpan],
    pub ledger: &'a IoLedger,
    /// The engine's own I/O delta over the traced window.
    pub io_total: IoSnapshot,
    /// Recorder after set-up, and after the pass.
    pub setup: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
    pub generate_s: f64,
    pub replay: Replay,
    pub baseline_qps: f64,
    pub baseline_p50_ms: f64,
}

/// The span tree of one request: the client span (due → reply read), the
/// server span inside it (request write → first reply byte), and the engine
/// spans inside that.
struct Tree {
    latency_ns: u64,
    client_self_ns: u64,
    server_self_ns: u64,
    core_ns: u64,
    children: Vec<usize>,
}

const fn bit(call: Call) -> u8 {
    1 << (call as u8)
}

fn endpoint_of(call: Call) -> Option<Endpoint> {
    match call {
        Call::PlanCheck | Call::AnswerStamps | Call::ServeBatch => Some(Endpoint::Query),
        Call::Ingest => Some(Endpoint::Ingest),
        Call::Refresh => Some(Endpoint::Refresh),
        Call::CompactionDue | Call::CompactDelta => None,
    }
}

/// Attributes every request-level engine span to the request it served:
/// same route, same query, nested inside the request's server span, and
/// not yet holding a span of that kind. Returns per-request children and
/// the number of spans no request could take.
fn attribute(leg: &Leg, spans: &[EngineSpan]) -> (Vec<Vec<usize>>, usize) {
    let recs = &leg.recs;
    let mut order: Vec<usize> = (0..recs.len()).collect();
    order.sort_by_key(|&i| recs[i].start_ns);
    let starts: Vec<u64> = order.iter().map(|&i| recs[i].start_ns).collect();
    let mut children = vec![Vec::new(); recs.len()];
    let mut kinds = vec![0u8; recs.len()];
    let mut orphans = 0;
    for (si, span) in spans.iter().enumerate() {
        let Some(endpoint) = endpoint_of(span.call) else {
            continue;
        };
        let wanted: Vec<Option<u32>> = if endpoint == Endpoint::Query {
            span.queries.iter().map(|q| leg.table.id_of(q)).collect()
        } else {
            vec![None]
        };
        let hi = starts.partition_point(|&s| s <= span.start_ns);
        for id in wanted {
            let found = order[..hi].iter().rev().take(256).copied().find(|&ri| {
                let r = &recs[ri];
                r.endpoint == endpoint
                    && (endpoint != Endpoint::Query || Some(r.id) == id)
                    && span.end_ns <= r.first_ns
                    && kinds[ri] & bit(span.call) == 0
            });
            match found {
                Some(ri) => {
                    kinds[ri] |= bit(span.call);
                    children[ri].push(si);
                }
                None => orphans += 1,
            }
        }
    }
    (children, orphans)
}

fn trees(leg: &Leg, spans: &[EngineSpan], children: Vec<Vec<usize>>) -> Vec<Tree> {
    leg.recs
        .iter()
        .zip(children)
        .map(|(r, mut kids)| {
            kids.sort_by_key(|&s| spans[s].start_ns);
            let core_ns: u64 = kids
                .iter()
                .map(|&s| spans[s].end_ns - spans[s].start_ns)
                .sum();
            // Covered length of the server span (children may not overlap;
            // if they did, the union is smaller than their sum and the
            // reconciliation below fails).
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &s in &kids {
                let (a, b) = (spans[s].start_ns.max(reach), spans[s].end_ns);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            let server_ns = r.first_ns - r.start_ns;
            let latency_ns = r.end_ns - r.due_ns;
            Tree {
                latency_ns,
                client_self_ns: latency_ns - server_ns,
                server_self_ns: server_ns.saturating_sub(covered),
                core_ns,
                children: kids,
            }
        })
        .collect()
}

fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counters.get(name).copied().unwrap_or(0)
}

fn hist_sum(s: &MetricsSnapshot, name: &str) -> u64 {
    s.histograms.get(name).map_or(0, |h| h.sum)
}

fn hist_mean(s: &MetricsSnapshot, name: &str) -> Option<f64> {
    s.histograms
        .get(name)
        .filter(|h| h.count > 0)
        .map(|h| h.mean())
}

fn span_wall(s: &MetricsSnapshot, path: &str) -> f64 {
    s.spans.get(path).map_or(0.0, |sp| sp.wall_secs)
}

/// Fact-row payload bytes a write carries: four keys and one measure.
const ROW_BYTES: f64 = 5.0 * 8.0;

/// The per-layer metrics of the traced pass, after its reconciliation
/// checks. Any failed check is returned instead.
pub fn per_layer(ctx: &TraceContext<'_>) -> Result<Vec<Metric>, Vec<String>> {
    let leg = ctx.leg;
    let spans = ctx.spans;
    let (children, orphans) = attribute(leg, spans);
    let trees = trees(leg, spans, children);
    let mut failures = Vec::new();

    // Reconciliation 1: per request, client + server + core self times add
    // up to the client-measured latency.
    let mut worst_ns = 0u64;
    for t in &trees {
        let sum = t.client_self_ns + t.server_self_ns + t.core_ns;
        worst_ns = worst_ns.max(sum.abs_diff(t.latency_ns));
    }
    if worst_ns > 1_000 {
        failures.push(format!(
            "span self times miss the client latency by up to {worst_ns} ns (engine spans overlap)"
        ));
    }
    if orphans > 0 {
        failures.push(format!("{orphans} engine spans matched no request"));
    }
    // Reconciliation 2: the decorator's I/O ledger equals the engine's own
    // delta, and no page moved outside an engine call.
    if ctx.ledger.total() != ctx.io_total {
        failures.push(format!(
            "decorator I/O {:?} != engine I/O {:?}",
            ctx.ledger.total(),
            ctx.io_total
        ));
    }
    if ctx.ledger.gap != IoSnapshot::default() {
        failures.push(format!(
            "I/O outside every engine call: {:?}",
            ctx.ledger.gap
        ));
    }
    if !failures.is_empty() {
        return Err(failures);
    }

    let recs = &leg.recs;
    let us = |ns: u64| ns as f64 / 1e3;
    let of = |ep: Endpoint| {
        recs.iter()
            .zip(&trees)
            .filter(move |(r, _)| r.endpoint == ep && r.timed && r.ok())
            .map(|(_, t)| t)
    };
    let med = |v: Vec<f64>| median(&v);
    let span_us = |call: Call| {
        mean(
            spans
                .iter()
                .filter(|s| s.call == call)
                .map(|s| us(s.end_ns - s.start_ns)),
        )
    };
    let batches: Vec<&EngineSpan> = spans
        .iter()
        .filter(|s| s.call == Call::ServeBatch)
        .collect();
    let executed: u64 = batches.iter().map(|s| s.queries.len() as u64).sum();
    let mut batch_io = IoSnapshot::default();
    for s in &batches {
        batch_io.seq_reads += s.io.seq_reads;
        batch_io.rand_reads += s.io.rand_reads;
        batch_io.buffer_hits += s.io.buffer_hits;
    }
    let executed_rows: u64 = recs
        .iter()
        .zip(&trees)
        .filter(|(_, t)| {
            t.children
                .iter()
                .any(|&c| spans[c].call == Call::ServeBatch)
        })
        .map(|(r, _)| r.rows)
        .sum();
    let compactions: Vec<&EngineSpan> = spans
        .iter()
        .filter(|s| s.call == Call::CompactDelta && s.did_work)
        .collect();
    let live: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.timed && matches!(r.endpoint, Endpoint::Query | Endpoint::Ingest))
        .collect();
    let stalled = live
        .iter()
        .filter(|r| {
            compactions
                .iter()
                .any(|c| c.start_ns < r.end_ns && r.due_ns < c.end_ns)
        })
        .count();
    // Batch wait: from the end of request validation (the plan check on the
    // connection thread) to the batcher's first engine call for it.
    let waits: Vec<f64> = trees
        .iter()
        .filter_map(|t| {
            let plan = t
                .children
                .iter()
                .find(|&&c| spans[c].call == Call::PlanCheck)?;
            let batch = t
                .children
                .iter()
                .find(|&&c| matches!(spans[c].call, Call::AnswerStamps | Call::ServeBatch))?;
            Some(us(spans[*batch]
                .start_ns
                .saturating_sub(spans[*plan].end_ns)))
        })
        .collect();

    let (setup, after) = (ctx.setup, ctx.after);
    let delta = |name: &str| counter(after, name).saturating_sub(counter(setup, name));
    let answered = leg.answered() as f64;
    let hits = delta("cache.hits") as f64;
    let misses = delta("cache.misses") as f64;
    let touched = hist_sum(after, "core.query.touched_entries") as f64;
    let written_rows = recs
        .iter()
        .filter(|r| matches!(r.endpoint, Endpoint::Ingest | Endpoint::Refresh) && r.ok())
        .map(|r| r.rows)
        .sum::<u64>() as f64;
    let writes = ctx.io_total.seq_writes + ctx.io_total.rand_writes;
    let fail_frac = |ep: Endpoint| {
        let sent = recs.iter().filter(|r| r.endpoint == ep).count();
        ratio(
            recs.iter().filter(|r| r.endpoint == ep && !r.ok()).count() as f64,
            sent as f64,
        )
    };
    let traced_p50 = percentile(&leg.query_latencies_ms(), 50.0);
    let client_spans = recs.len();
    let engine_spans = spans.len();

    write_spans(leg, spans, &trees);

    let mut metrics = vec![
        metric(
            "client.self_us",
            med(of(Endpoint::Query).map(|t| us(t.client_self_ns)).collect()),
            "us",
        ),
        metric(
            "server.self_us",
            med(of(Endpoint::Query).map(|t| us(t.server_self_ns)).collect()),
            "us",
        ),
        metric(
            "server.batch_size",
            hist_mean(after, "server.batch.size").unwrap_or(0.0),
            "queries",
        ),
        metric("server.batch_wait_us", mean(waits.into_iter()), "us"),
        metric(
            "server.cache_hit_rate",
            ratio(hits, hits + misses),
            "fraction",
        ),
        metric(
            "server.cache_invalidations_per_query",
            ratio(delta("cache.invalidations") as f64, answered),
            "entries",
        ),
        metric(
            "server.ingest_self_us",
            med(of(Endpoint::Ingest).map(|t| us(t.server_self_ns)).collect()),
            "us",
        ),
        metric(
            "server.rejected",
            recs.iter().filter(|r| r.status == 429).count() as f64,
            "count",
        ),
        metric("core.plan_check_us", span_us(Call::PlanCheck), "us"),
        metric("core.answer_stamps_us", span_us(Call::AnswerStamps), "us"),
        metric(
            "core.serve_batch_us",
            ratio(
                batches.iter().map(|s| us(s.end_ns - s.start_ns)).sum(),
                executed as f64,
            ),
            "us",
        ),
        metric("core.plan_us", ctx.replay.plan_us, "us"),
        metric("core.execute_us", ctx.replay.execute_us, "us"),
        metric(
            "core.touched_entries_per_query",
            ratio(touched, executed as f64),
            "entries",
        ),
        metric(
            "core.rows_per_touched_entry",
            ratio(executed_rows as f64, touched),
            "ratio",
        ),
        metric(
            "core.delta_rows_per_query",
            ratio(
                hist_sum(after, "core.query.delta_rows") as f64,
                executed as f64,
            ),
            "rows",
        ),
        metric("core.ingest_us", span_us(Call::Ingest), "us"),
        metric("core.compactions", compactions.len() as f64, "count"),
        metric(
            "core.compact_s",
            mean(
                compactions
                    .iter()
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9),
            ),
            "s",
        ),
        metric(
            "core.stalled_frac",
            ratio(stalled as f64, live.len() as f64),
            "fraction",
        ),
        metric("core.refresh_s", span_us(Call::Refresh) / 1e6, "s"),
        metric(
            "core.gather_us",
            hist_mean(after, "shard.gather_us").unwrap_or(0.0),
            "us",
        ),
        metric(
            "core.fanout",
            hist_mean(after, "shard.fanout").unwrap_or(1.0),
            "shards",
        ),
        metric(
            "core.shared_scans",
            delta("query.sched.shared_scans") as f64,
            "count",
        ),
        metric(
            "rtree.merge_entries",
            (delta("rtree.merge.old_entries")
                + delta("rtree.merge.delta_entries")
                + delta("rtree.merge.out_entries")) as f64,
            "entries",
        ),
        metric(
            "rtree.pack_leaves",
            counter(setup, "rtree.pack.leaves") as f64,
            "pages",
        ),
        metric(
            "storage.seq_reads_per_query",
            ratio(batch_io.seq_reads as f64, executed as f64),
            "pages",
        ),
        metric(
            "storage.rand_reads_per_query",
            ratio(batch_io.rand_reads as f64, executed as f64),
            "pages",
        ),
        metric("storage.buffer_hit_ratio", batch_io.hit_ratio(), "fraction"),
        metric(
            "storage.evictions",
            delta("storage.buffer.evictions") as f64,
            "count",
        ),
        metric(
            "storage.prefetch_used_frac",
            ratio(
                delta("storage.buffer.prefetch.used") as f64,
                delta("storage.buffer.prefetch.pages") as f64,
            ),
            "fraction",
        ),
        metric(
            "storage.write_pages_seq",
            ctx.io_total.seq_writes as f64,
            "pages",
        ),
        metric(
            "storage.write_pages_rand",
            ctx.io_total.rand_writes as f64,
            "pages",
        ),
        metric(
            "storage.write_amp",
            ratio(
                (writes * ct_storage::PAGE_SIZE as u64) as f64,
                written_rows * ROW_BYTES,
            ),
            "ratio",
        ),
        metric(
            "storage.sort_spilled_records",
            counter(after, "storage.sort.spilled_records") as f64,
            "records",
        ),
        metric("setup.generate_s", ctx.generate_s, "s"),
        metric(
            "setup.compute_views_s",
            span_wall(setup, "load/compute_views"),
            "s",
        ),
        metric("setup.pack_s", span_wall(setup, "load/pack"), "s"),
        metric(
            "workload.ingest_lateness_ms",
            mean(
                recs.iter()
                    .filter(|r| r.endpoint == Endpoint::Ingest)
                    .map(|r| (r.start_ns - r.due_ns) as f64 / 1e6),
            ),
            "ms",
        ),
        metric("failed_frac.query", fail_frac(Endpoint::Query), "fraction"),
        metric(
            "failed_frac.ingest",
            fail_frac(Endpoint::Ingest),
            "fraction",
        ),
        metric(
            "failed_frac.refresh",
            fail_frac(Endpoint::Refresh),
            "fraction",
        ),
        metric(
            "trace.overhead_qps_frac",
            ratio(ctx.baseline_qps, leg.qps()) - 1.0,
            "fraction",
        ),
        metric(
            "trace.overhead_p50_frac",
            ratio(traced_p50, ctx.baseline_p50_ms) - 1.0,
            "fraction",
        ),
        metric(
            "trace.spans",
            (2 * client_spans + engine_spans) as f64,
            "count",
        ),
        metric("trace.reconcile_max_err_us", us(worst_ns), "us"),
        metric(
            "trace.io_overlap_pages",
            ctx.ledger.overlap.total_io() as f64,
            "pages",
        ),
    ];
    // The pass's unbounded wall-clock figures, traced.
    metrics.extend(
        pass_metrics(leg)
            .into_iter()
            .filter(|m| !BOUNDED.contains(&m.name.as_str()))
            .map(|m| Metric {
                name: format!("workload.{}", m.name),
                ..m
            }),
    );
    Ok(metrics)
}

/// Writes the span tree as JSON lines under `.servebench_out/`: one client
/// span and one server span per request, and every engine span with the
/// requests it served.
fn write_spans(leg: &Leg, spans: &[EngineSpan], trees: &[Tree]) {
    let mut served_by: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (ri, t) in trees.iter().enumerate() {
        for &s in &t.children {
            served_by.entry(s).or_default().push(ri);
        }
    }
    let mut out = String::new();
    for (ri, r) in leg.recs.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\": \"c{ri}\", \"name\": \"client.{:?}\", \"start\": {}, \"end\": {}, \"parent\": null, \"requests\": [{ri}]}}",
            r.endpoint, r.due_ns, r.end_ns
        );
        let _ = writeln!(
            out,
            "{{\"id\": \"s{ri}\", \"name\": \"server\", \"start\": {}, \"end\": {}, \"parent\": \"c{ri}\", \"requests\": [{ri}]}}",
            r.start_ns, r.first_ns
        );
    }
    for (si, s) in spans.iter().enumerate() {
        let reqs = served_by.get(&si).cloned().unwrap_or_default();
        let parents: Vec<String> = reqs.iter().map(|r| format!("\"s{r}\"")).collect();
        let ids: Vec<String> = reqs.iter().map(|r| r.to_string()).collect();
        let _ = writeln!(
            out,
            "{{\"id\": \"e{si}\", \"name\": \"core.{:?}\", \"start\": {}, \"end\": {}, \"parent\": [{}], \"requests\": [{}], \"pages\": {}}}",
            s.call,
            s.start_ns,
            s.end_ns,
            parents.join(", "),
            ids.join(", "),
            s.io.total_io()
        );
    }
    let dir = std::path::Path::new(".servebench_out");
    let path = dir.join(format!("spans-{}.jsonl", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, out)) {
        eprintln!(
            "servebench: could not write spans to {}: {e}",
            path.display()
        );
    } else {
        eprintln!("servebench: spans written to {}", path.display());
    }
}
