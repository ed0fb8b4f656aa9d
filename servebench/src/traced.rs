//! The engine decorator of the traced run: a [`ServingEngine`] that forwards
//! every call to the real engine and records a span around each call the
//! server makes into the core layer.
//!
//! Page I/O is attributed with a sweep instead of per-call snapshot pairs,
//! because calls overlap (the compactor merges while the batcher serves).
//! Every start and end of a call that may touch pages is an event; at each
//! event the engine's global [`IoSnapshot`] is read under one lock, and the
//! delta since the previous event is charged to the single call running in
//! between, to an *overlap* bucket when several were, or to a *gap* bucket
//! when none was. The buckets therefore add up to the engine's own delta
//! exactly, and a non-zero gap means some page traffic happened outside
//! every engine call the server made.

use std::sync::{Arc, Mutex};

use ct_common::{Catalog, Result, SliceQuery};
use ct_cube::Relation;
use ct_storage::IoSnapshot;
use cubetree::delta::{DeltaConfig, DeltaStats};
use cubetree::{AnswerStamp, ServedAnswer, ServingEngine, ViewInfo};

use crate::http::now_ns;

/// The engine calls the decorator records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    PlanCheck,
    AnswerStamps,
    ServeBatch,
    Ingest,
    CompactionDue,
    CompactDelta,
    Refresh,
}

impl Call {
    /// Calls that may read or write pages take part in the I/O sweep.
    fn does_io(self) -> bool {
        matches!(
            self,
            Call::ServeBatch | Call::Ingest | Call::CompactDelta | Call::Refresh
        )
    }
}

/// One recorded engine call.
pub struct EngineSpan {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The queries the call received (one for a probe or plan check, the
    /// whole batch for `serve_batch`).
    pub queries: Vec<SliceQuery>,
    /// Page I/O charged to this call alone by the sweep.
    pub io: IoSnapshot,
    /// `compact_delta` returned `true` (something was folded).
    pub did_work: bool,
}

#[derive(Default)]
struct Sweep {
    last: Option<IoSnapshot>,
    /// Spans of the I/O calls running now (indices into `spans`).
    active: Vec<usize>,
    overlap: IoSnapshot,
    gap: IoSnapshot,
    spans: Vec<EngineSpan>,
    /// Set by [`TracedEngine::finish`]; later calls are forwarded only.
    closed: bool,
}

fn add(into: &mut IoSnapshot, d: &IoSnapshot) {
    into.seq_reads += d.seq_reads;
    into.rand_reads += d.rand_reads;
    into.seq_writes += d.seq_writes;
    into.rand_writes += d.rand_writes;
    into.buffer_hits += d.buffer_hits;
    into.tuples += d.tuples;
}

/// What the sweep charged, for the reconciliation check.
pub struct IoLedger {
    /// Σ of every span's own charge.
    pub spans: IoSnapshot,
    /// Charged while several I/O calls overlapped.
    pub overlap: IoSnapshot,
    /// Page traffic while no I/O call was running.
    pub gap: IoSnapshot,
}

impl IoLedger {
    /// Everything the sweep saw between its first and last event.
    pub fn total(&self) -> IoSnapshot {
        let mut t = self.spans;
        add(&mut t, &self.overlap);
        add(&mut t, &self.gap);
        t
    }
}

/// The span-recording decorator.
pub struct TracedEngine {
    inner: Arc<dyn ServingEngine>,
    sweep: Mutex<Sweep>,
}

impl TracedEngine {
    pub fn new(inner: Arc<dyn ServingEngine>) -> TracedEngine {
        TracedEngine {
            inner,
            sweep: Mutex::new(Sweep::default()),
        }
    }

    /// Reads the engine's counters as a sweep event and charges the delta
    /// since the previous event. Called once when the traced window opens
    /// and once when it closes, so the ledger covers the whole window.
    pub fn mark(&self) -> IoSnapshot {
        let mut sweep = self.sweep.lock().expect("sweep lock poisoned");
        self.charge(&mut sweep)
    }

    fn charge(&self, sweep: &mut Sweep) -> IoSnapshot {
        let now = self.inner.io_snapshot();
        if let Some(last) = sweep.last {
            let delta = now.since(&last);
            match sweep.active.as_slice() {
                [] => add(&mut sweep.gap, &delta),
                [one] => {
                    let one = *one;
                    add(&mut sweep.spans[one].io, &delta);
                }
                _ => add(&mut sweep.overlap, &delta),
            }
        }
        sweep.last = Some(now);
        now
    }

    fn record<T>(
        &self,
        call: Call,
        queries: Vec<SliceQuery>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        let index;
        {
            let mut sweep = self.sweep.lock().expect("sweep lock poisoned");
            if sweep.closed {
                drop(sweep);
                return (f(), None);
            }
            if call.does_io() {
                self.charge(&mut sweep);
            }
            let start_ns = now_ns();
            index = sweep.spans.len();
            sweep.spans.push(EngineSpan {
                call,
                start_ns,
                end_ns: start_ns,
                queries,
                io: IoSnapshot::default(),
                did_work: false,
            });
            if call.does_io() {
                sweep.active.push(index);
            }
        }
        let out = f();
        let end_ns = now_ns();
        let mut sweep = self.sweep.lock().expect("sweep lock poisoned");
        if sweep.closed {
            return (out, None);
        }
        if call.does_io() {
            self.charge(&mut sweep);
            sweep.active.retain(|&i| i != index);
        }
        sweep.spans[index].end_ns = end_ns;
        (out, Some(index))
    }

    /// Takes the recorded spans and the I/O ledger (ends the trace).
    pub fn finish(&self) -> (Vec<EngineSpan>, IoLedger) {
        let mut sweep = self.sweep.lock().expect("sweep lock poisoned");
        sweep.closed = true;
        let spans = std::mem::take(&mut sweep.spans);
        let mut charged = IoSnapshot::default();
        for s in &spans {
            add(&mut charged, &s.io);
        }
        let ledger = IoLedger {
            spans: charged,
            overlap: sweep.overlap,
            gap: sweep.gap,
        };
        (spans, ledger)
    }
}

impl ServingEngine for TracedEngine {
    fn loaded(&self) -> bool {
        self.inner.loaded()
    }

    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }

    fn recorder(&self) -> &ct_obs::Recorder {
        self.inner.recorder()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn plan_check(&self, q: &SliceQuery) -> Result<()> {
        self.record(Call::PlanCheck, vec![q.clone()], || {
            self.inner.plan_check(q)
        })
        .0
    }

    fn views(&self) -> Result<(u64, Vec<ViewInfo>)> {
        self.inner.views()
    }

    fn serve_batch(
        &self,
        queries: &[SliceQuery],
    ) -> (u64, Vec<std::result::Result<ServedAnswer, String>>) {
        self.record(Call::ServeBatch, queries.to_vec(), || {
            self.inner.serve_batch(queries)
        })
        .0
    }

    fn answer_stamps(&self, q: &SliceQuery) -> Vec<AnswerStamp> {
        self.record(Call::AnswerStamps, vec![q.clone()], || {
            self.inner.answer_stamps(q)
        })
        .0
    }

    fn refresh(&self, delta: &Relation) -> Result<()> {
        self.record(Call::Refresh, Vec::new(), || self.inner.refresh(delta))
            .0
    }

    fn ingest(&self, rows: &Relation) -> Result<u64> {
        self.record(Call::Ingest, Vec::new(), || self.inner.ingest(rows))
            .0
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        self.inner.delta_stats()
    }

    fn compaction_due(&self, config: &DeltaConfig) -> bool {
        self.record(Call::CompactionDue, Vec::new(), || {
            self.inner.compaction_due(config)
        })
        .0
    }

    fn compact_delta(&self) -> Result<bool> {
        let (out, index) = self.record(Call::CompactDelta, Vec::new(), || {
            self.inner.compact_delta()
        });
        if let (Ok(true), Some(index)) = (&out, index) {
            let mut sweep = self.sweep.lock().expect("sweep lock poisoned");
            if let Some(span) = sweep.spans.get_mut(index) {
                span.did_work = true;
            }
        }
        out
    }

    fn metrics_json(&self) -> String {
        self.inner.metrics_json()
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.inner.io_snapshot()
    }
}
