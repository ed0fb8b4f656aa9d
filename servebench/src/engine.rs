//! Set-up: TPC-D generation, view computation and packing, and the
//! `ct-server` in front of the engine.

use std::sync::Arc;
use std::time::Duration;

use ct_common::CostModel;
use ct_cube::Relation;
use ct_server::compactor::IngestConfig;
use ct_server::{CtServer, ServerConfig, ServerHandle};
use ct_storage::IoSnapshot;
use ct_tpcd::{TpcdConfig, TpcdWarehouse};
use ct_workload::paper_configs;
use cubetree::delta::DeltaConfig;
use cubetree::engine::{CubetreeEngine, RolapEngine};
use cubetree::{ServingEngine, ShardSpec, ShardedConfig, ShardedEngine};

use crate::http::{now_ns, Conn};
use crate::traced::TracedEngine;

/// TPC-D scale factor of every workload (600,121 base fact rows).
pub const SF: f64 = 0.1;
/// Build, refresh and batch worker threads of the engine.
pub const THREADS: usize = 2;
/// Shards of the partitioned engine (hash on `partkey`).
pub const SHARDS: usize = 2;
/// Buffer pool share of the estimated data size (the repository's default
/// `pool_frac`: the paper's 32 MB of RAM against its 602 MB warehouse).
const POOL_FRAC: f64 = 32.0 / 602.0;

/// Resident delta groups that trigger a background compaction, and the age
/// that folds a smaller remainder. At the 2,000 rows/s the workloads ingest,
/// the row threshold is crossed every ~1.25 s, before any row reaches the
/// age limit, so the compactor cycles on size while the stream runs and on
/// age once it stops.
const COMPACT_ROWS: u64 = 2_500;
const COMPACT_AGE: Duration = Duration::from_millis(1_500);

/// How the engine is laid out.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    Single,
    Sharded,
}

/// A loaded engine, kept concrete so the benchmark can read what the
/// serving trait does not expose (storage bytes, the forest for replays).
#[derive(Clone)]
pub enum Engine {
    Single(Arc<CubetreeEngine>),
    Sharded(Arc<ShardedEngine>),
}

impl Engine {
    pub fn serving(&self) -> Arc<dyn ServingEngine> {
        match self {
            Engine::Single(e) => e.clone(),
            Engine::Sharded(e) => e.clone(),
        }
    }

    /// Bytes of the materialized views (current generation).
    pub fn storage_bytes(&self) -> u64 {
        match self {
            Engine::Single(e) => e.storage_bytes(),
            Engine::Sharded(e) => e.storage_bytes(),
        }
    }

    pub fn io(&self) -> IoSnapshot {
        self.serving().io_snapshot()
    }

    pub fn resident_delta_rows(&self) -> u64 {
        self.serving()
            .delta_stats()
            .map_or(0, |s| s.resident_rows())
    }

    pub fn recorder(&self) -> ct_obs::Recorder {
        self.serving().recorder().clone()
    }
}

/// The simulated-disk cost model every engine here is built with (the
/// engine configuration's default).
pub fn cost_model() -> CostModel {
    CostModel::default()
}

pub fn warehouse(seed: u64) -> TpcdWarehouse {
    TpcdWarehouse::new(TpcdConfig {
        scale_factor: SF,
        seed,
    })
}

/// Buffer-pool pages for `fact_rows` (whole engine; shards split it).
pub fn pool_pages(fact_rows: usize) -> usize {
    let bytes = (fact_rows as f64 * 48.0 * POOL_FRAC) as usize;
    (bytes / ct_storage::PAGE_SIZE).max(128)
}

/// Builds and loads an engine over `fact`.
pub fn build(
    w: &TpcdWarehouse,
    fact: &Relation,
    layout: Layout,
    recorder: ct_obs::Recorder,
) -> Result<Engine, String> {
    let mut cfg = paper_configs(w)
        .cubetree
        .with_threads(THREADS)
        .with_recorder(recorder);
    let pool = pool_pages(fact.len());
    let err = |e: ct_common::CtError| format!("engine build: {e}");
    Ok(match layout {
        Layout::Single => {
            cfg.pool_pages = pool;
            let mut e = CubetreeEngine::new(w.catalog().clone(), cfg).map_err(err)?;
            e.load(fact).map_err(err)?;
            Engine::Single(Arc::new(e))
        }
        Layout::Sharded => {
            cfg.pool_pages = (pool / SHARDS).max(128);
            let spec = ShardSpec::new(SHARDS).with_partition_attr(w.attrs().partkey);
            let mut e = ShardedEngine::new(w.catalog().clone(), ShardedConfig::new(cfg, spec))
                .map_err(err)?;
            e.load(fact).map_err(err)?;
            Engine::Sharded(Arc::new(e))
        }
    })
}

pub fn server_config() -> ServerConfig {
    let delta = DeltaConfig {
        max_rows: COMPACT_ROWS,
        max_age: COMPACT_AGE,
        ..DeltaConfig::default()
    };
    ServerConfig {
        ingest: IngestConfig {
            delta,
            ..IngestConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A served engine: the engine, the decorator when tracing, and the server.
pub struct Served {
    pub engine: Engine,
    pub traced: Option<Arc<TracedEngine>>,
    pub server: ServerHandle,
    pub addr: String,
}

/// Wall seconds of one set-up, split by stage.
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
}

/// Generates the base data, builds the engine, starts the server and waits
/// until `/healthz` answers: the set-up a user pays before the first query.
pub fn set_up(
    w: &TpcdWarehouse,
    layout: Layout,
    trace: bool,
) -> Result<(Served, Relation, SetupTimes), String> {
    let t0 = now_ns();
    let fact = w.generate_fact();
    let generated = now_ns();
    let recorder = if trace {
        ct_obs::Recorder::enabled()
    } else {
        ct_obs::Recorder::disabled()
    };
    let engine = build(w, &fact, layout, recorder)?;
    let traced = trace.then(|| Arc::new(TracedEngine::new(engine.serving())));
    let front: Arc<dyn ServingEngine> = match &traced {
        Some(t) => t.clone(),
        None => engine.serving(),
    };
    let server = CtServer::start(front, server_config()).map_err(|e| format!("server: {e}"))?;
    let addr = server.addr().to_string();
    let mut conn = Conn::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let health = conn
        .exchange("GET", "/healthz", b"")
        .map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz answered {}", health.status));
    }
    let done = now_ns();
    let times = SetupTimes {
        total_s: (done - t0) as f64 / 1e9,
        generate_s: (generated - t0) as f64 / 1e9,
    };
    Ok((
        Served {
            engine,
            traced,
            server,
            addr,
        },
        fact,
        times,
    ))
}

/// Flushes every engine file under the temp directory to disk, so that
/// write-back of set-up and refresh output does not run inside a timed
/// phase.
pub fn settle_files() {
    fn walk(dir: &std::path::Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path);
            } else if let Ok(f) = std::fs::File::open(&path) {
                let _ = f.sync_all();
            }
        }
    }
    walk(&std::env::temp_dir());
}
