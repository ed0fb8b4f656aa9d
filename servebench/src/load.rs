//! Load generation: closed-loop `/query` clients and the open-loop
//! `/ingest` stream. Every request leaves a [`Rec`] with its client-side
//! timestamps; nothing is aggregated while the clock runs.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use ct_common::query::QueryKey;
use ct_common::{AttrId, Catalog, SliceQuery};
use ct_cube::Relation;
use ct_workload::serving::query_body;
use ct_workload::QueryGenerator;

use crate::http::{now_ns, parse_rows, row_count, Conn, Exchange};

/// Which route a request went to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Query,
    Ingest,
    Refresh,
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Rec {
    pub endpoint: Endpoint,
    /// `/query`: the query's id in the run's [`QueryTable`]; `/ingest`:
    /// the batch index.
    pub id: u32,
    /// When the request was due: its scheduled time in an open loop, its
    /// start in a closed loop. Latency is measured from here.
    pub due_ns: u64,
    pub start_ns: u64,
    pub first_ns: u64,
    pub end_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// Rows in the answer (`/query`) or rows sent (`/ingest`).
    pub rows: u64,
    /// Counts toward the timed metrics (false for the counter segment, the
    /// cache fill and the checks' own queries).
    pub timed: bool,
}

impl Rec {
    /// A request about to be sent at `start_ns` (due at `due_ns`).
    pub fn begin(endpoint: Endpoint, id: u32, due_ns: u64, start_ns: u64, rows: u64) -> Rec {
        Rec {
            endpoint,
            id,
            due_ns,
            start_ns,
            first_ns: start_ns,
            end_ns: start_ns,
            status: 0,
            rows,
            timed: true,
        }
    }

    /// Completes the record from a reply, or from a transport error.
    pub fn finish(&mut self, reply: Option<&Exchange>) {
        match reply {
            Some(x) => {
                self.first_ns = x.first_ns;
                self.end_ns = x.end_ns;
                self.status = x.status;
            }
            None => {
                self.end_ns = now_ns();
                self.first_ns = self.end_ns;
            }
        }
    }

    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }

    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// Distinct queries of a run, interned to dense ids.
#[derive(Default)]
pub struct QueryTable {
    pub queries: Vec<SliceQuery>,
    index: HashMap<QueryKey, u32>,
}

impl QueryTable {
    pub fn intern(&mut self, q: &SliceQuery) -> u32 {
        let key = q.cache_key();
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = self.queries.len() as u32;
        self.queries.push(q.clone());
        self.index.insert(key, id);
        id
    }

    pub fn id_of(&self, q: &SliceQuery) -> Option<u32> {
        self.index.get(&q.cache_key()).copied()
    }
}

/// Distinct answer bodies per `(query id, csv, body hash)`, kept for the
/// after-run answer check.
pub type Bodies = HashMap<(u32, bool, u64), Vec<u8>>;

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// The query mix of one closed-loop client: the serving generator's default
/// (half the requests drill into the top lattice node, a quarter ask for
/// CSV), over the `(partkey, suppkey, custkey)` lattice.
pub struct QueryMix {
    pub skew: f64,
    pub seed: u64,
    /// Every n-th request is a grand-total probe instead (0 = none).
    pub probe_every: u64,
    /// Keep distinct answer bodies for the after-run check.
    pub keep_bodies: bool,
}

/// Acknowledged writes, shared between the ingest stream and the probes
/// that check freshness against it.
pub struct WriteWatch {
    pub base_total: i64,
    /// Σ measure of rows whose `/ingest` was acknowledged.
    pub acked_sum: AtomicI64,
    pub acked_rows: AtomicU64,
    /// Σ measure of rows whose `/ingest` was sent.
    pub sent_sum: AtomicI64,
}

impl WriteWatch {
    pub fn new(base_total: i64) -> WriteWatch {
        WriteWatch {
            base_total,
            acked_sum: AtomicI64::new(0),
            acked_rows: AtomicU64::new(0),
            sent_sum: AtomicI64::new(0),
        }
    }
}

/// When a closed-loop client stops.
pub struct Stop<'a> {
    /// Stop at this time, once at least `answers` answers are in...
    pub deadline_ns: u64,
    pub answers: u64,
    /// ...or as soon as this flag is set.
    pub flag: &'a AtomicBool,
}

/// What one query client leaves behind.
#[derive(Default)]
pub struct ClientOut {
    pub recs: Vec<Rec>,
    pub table: QueryTable,
    pub bodies: Bodies,
    pub failures: Vec<String>,
}

/// The query every freshness probe sends: per-supplier totals, summed by
/// the client into the grand total (the wire needs one attribute).
pub fn grand_total_query(catalog: &Catalog) -> SliceQuery {
    let supp = catalog
        .attr_by_name("suppkey")
        .expect("TPC-D schema has suppkey");
    SliceQuery::new(vec![supp], vec![])
}

/// Runs one closed-loop `/query` client until `stop`.
#[allow(clippy::too_many_arguments)]
pub fn query_client(
    addr: &str,
    catalog: &Catalog,
    base: &[AttrId],
    mix: &QueryMix,
    client: usize,
    stop: &Stop<'_>,
    watch: Option<&WriteWatch>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.failures
                .push(format!("query client {client}: connect: {e}"));
            return out;
        }
    };
    let top_mask = (1usize << base.len()) - 1;
    let mut generator =
        QueryGenerator::new(catalog, base.to_vec(), mix.seed + client as u64).with_skew(mix.skew);
    // The serving generator's mix stream (ct_workload::serving), so the
    // drill-down and CSV choices match its default workload request for
    // request.
    let mut state = mix.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1));
    let mut next_mix = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let probe_query = grand_total_query(catalog);
    let mut sent = 0u64;
    let mut answered = 0u64;
    loop {
        if stop.flag.load(Ordering::SeqCst)
            || (now_ns() >= stop.deadline_ns && answered >= stop.answers)
        {
            break;
        }
        sent += 1;
        let probe = mix.probe_every > 0 && sent.is_multiple_of(mix.probe_every);
        let (q, csv) = if probe {
            (probe_query.clone(), false)
        } else {
            let q = if next_mix() < 0.5 {
                generator.next_query_on(top_mask)
            } else {
                generator.next_query()
            };
            (q, next_mix() < 0.25)
        };
        let id = out.table.intern(&q);
        let body = query_body(catalog, &q, csv);
        let floor = watch.map(|w| w.acked_sum.load(Ordering::SeqCst));
        let start_ns = now_ns();
        let mut rec = Rec::begin(Endpoint::Query, id, start_ns, start_ns, 0);
        match conn.exchange("POST", "/query", body.as_bytes()) {
            Ok(x) => {
                rec.finish(Some(&x));
                if x.status == 200 {
                    answered += 1;
                    rec.rows = row_count(&x.body, csv);
                    if let (Some(watch), Some(floor)) = (watch, floor) {
                        if probe {
                            let ceiling = watch.sent_sum.load(Ordering::SeqCst);
                            check_probe(
                                &x.body,
                                watch.base_total,
                                floor,
                                ceiling,
                                &mut out.failures,
                            );
                        }
                    }
                    if mix.keep_bodies {
                        let hash = hash_bytes(&x.body);
                        out.bodies.entry((id, csv, hash)).or_insert(x.body);
                    }
                }
            }
            Err(e) => {
                rec.finish(None);
                out.failures
                    .push(format!("query client {client}: transport error: {e}"));
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => {
                        out.recs.push(rec);
                        break;
                    }
                }
            }
        }
        out.recs.push(rec);
    }
    out
}

/// A grand-total probe must include every row acknowledged before it was
/// sent, and nothing beyond what had been sent by the time it returned.
fn check_probe(body: &[u8], base: i64, floor: i64, ceiling: i64, failures: &mut Vec<String>) {
    match parse_rows(body, false) {
        Ok(rows) => {
            let total: f64 = rows.iter().map(|r| r.agg).sum();
            if total < (base + floor) as f64 || total > (base + ceiling) as f64 {
                failures.push(format!(
                    "freshness probe saw total {total}, outside [{}, {}] (base + acked, base + sent)",
                    base + floor,
                    base + ceiling
                ));
            }
        }
        Err(e) => failures.push(format!("freshness probe: {e}")),
    }
}

/// One pre-rendered `/ingest` request.
pub struct IngestBatch {
    pub body: String,
    pub rows: u64,
    pub sum: i64,
}

/// Renders `rows` (a fact relation) as `/ingest` bodies of `per_batch` rows.
pub fn ingest_batches(catalog: &Catalog, rows: &Relation, per_batch: usize) -> Vec<IngestBatch> {
    let arity = rows.attrs.len();
    let names: Vec<String> = rows
        .attrs
        .iter()
        .map(|a| format!("\"{}\"", catalog.attr(*a).name))
        .collect();
    (0..rows.len())
        .step_by(per_batch)
        .map(|lo| {
            let hi = (lo + per_batch).min(rows.len());
            let (body, sum) = fact_body(&names, arity, rows, lo..hi);
            IngestBatch {
                body,
                rows: (hi - lo) as u64,
                sum,
            }
        })
        .collect()
}

/// Renders rows `range` of a fact relation as an `/ingest` or `/refresh`
/// body; returns it with the rows' measure sum.
pub fn fact_body(
    names: &[String],
    arity: usize,
    rows: &Relation,
    range: std::ops::Range<usize>,
) -> (String, i64) {
    let mut body = format!("{{\"attrs\": [{}], \"rows\": [", names.join(", "));
    let mut sum = 0i64;
    for r in range.clone() {
        if r > range.start {
            body.push_str(", ");
        }
        body.push('[');
        for k in &rows.keys[r * arity..(r + 1) * arity] {
            body.push_str(&k.to_string());
            body.push_str(", ");
        }
        let m = rows.states[r].sum;
        sum += m;
        body.push_str(&m.to_string());
        body.push(']');
    }
    body.push_str("]}");
    (body, sum)
}

/// The whole relation as one `/refresh` body, with its measure sum.
pub fn refresh_body(catalog: &Catalog, rows: &Relation) -> (String, i64) {
    let names: Vec<String> = rows
        .attrs
        .iter()
        .map(|a| format!("\"{}\"", catalog.attr(*a).name))
        .collect();
    fact_body(&names, rows.attrs.len(), rows, 0..rows.len())
}

/// Sends `batches` open loop, one every `interval`, timing each from its
/// scheduled send. Records which batches were acknowledged in `acked`.
pub fn ingest_stream(
    addr: &str,
    batches: &[IngestBatch],
    interval: Duration,
    watch: &WriteWatch,
    acked: &mut Vec<bool>,
    failures: &mut Vec<String>,
) -> Vec<Rec> {
    let mut recs = Vec::with_capacity(batches.len());
    acked.clear();
    acked.resize(batches.len(), false);
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("ingest client: connect: {e}"));
            return recs;
        }
    };
    let step = interval.as_nanos() as u64;
    let t0 = now_ns();
    for (i, batch) in batches.iter().enumerate() {
        let due_ns = t0 + step * i as u64;
        let now = now_ns();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        watch.sent_sum.fetch_add(batch.sum, Ordering::SeqCst);
        let mut rec = Rec::begin(Endpoint::Ingest, i as u32, due_ns, now_ns(), batch.rows);
        match conn.exchange("POST", "/ingest", batch.body.as_bytes()) {
            Ok(x) => {
                rec.finish(Some(&x));
                if x.status == 200 {
                    watch.acked_sum.fetch_add(batch.sum, Ordering::SeqCst);
                    watch.acked_rows.fetch_add(batch.rows, Ordering::SeqCst);
                    acked[i] = true;
                }
            }
            Err(e) => {
                rec.finish(None);
                failures.push(format!("ingest client: transport error: {e}"));
                match Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => {
                        recs.push(rec);
                        break;
                    }
                }
            }
        }
        recs.push(rec);
    }
    recs
}
