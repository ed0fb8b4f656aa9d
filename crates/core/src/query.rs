//! Slice-query planning and execution over a Cubetree forest, plus the
//! rollup aggregation helper shared with the conventional engine.
//!
//! Planning follows the paper's observations in §3.3: a query may be
//! answerable from several materialized views ("other parameters like the
//! existence of an index … should be taken into account"). The planner
//! scores every placement that *derives* the query's lattice node by the
//! leaf pages its search must scan. A placement's physical sort order is
//! its reversed projection (§2.3), so the predicates on its leading sort
//! attributes select one contiguous leaf run; the run's length is the
//! placement's leaf pages divided by those attributes' cardinalities. That
//! is what the paper's multi-sort-order replicas are for: a small view
//! sorted on the wrong attribute is read end to end, while a large replica
//! sorted on the sliced attribute is read for a leaf or two. Ties go to
//! fewer expected matching tuples, then to the longer sort prefix.

use crate::delta::DeltaSnapshot;
use crate::forest::{CubetreeForest, Generation};
use crate::jobs::{run_jobs, Job};
use crate::sched::SchedSummary;
use ct_common::query::QueryRow;
use ct_common::{
    AggFn, AggState, AttrId, Catalog, CtError, Hierarchy, Rect, Result, SliceQuery, ViewDef,
    ViewId, COORD_MAX,
};
use std::collections::HashMap;
use std::sync::Mutex;

/// Leaf pages prefetched ahead of a confirmed sequential sweep in the
/// batched executor (see [`ct_rtree::PackedRTree::search_with_readahead`]).
pub const READAHEAD_WINDOW: usize = 8;

/// Streaming group-by aggregator with hierarchy rollup and residual
/// predicate checking.
///
/// Feed it raw `(key, state)` pairs from any materialized source whose
/// projection derives the query's attributes; it translates keys through
/// dimension hierarchies, re-checks every predicate (cheap and safe — the
/// access path may have already applied some), groups by the query's
/// `group_by` list and merges aggregate states.
pub struct RollupAggregator<'a> {
    group_resolvers: Vec<Resolver<'a>>,
    pred_resolvers: Vec<(Resolver<'a>, u64)>,
    range_resolvers: Vec<(Resolver<'a>, u64, u64)>,
    groups: HashMap<Vec<u64>, AggState>,
    accepted: u64,
}

/// Source column index plus the hierarchy chain that maps it to a query
/// attribute.
type Resolver<'a> = (usize, Vec<&'a Hierarchy>);

impl<'a> RollupAggregator<'a> {
    /// Creates an aggregator for `query` over rows whose key columns are
    /// `source_attrs`.
    ///
    /// # Errors
    /// [`CtError::Unsupported`] if a query attribute is not derivable from
    /// `source_attrs`.
    pub fn new(
        catalog: &'a Catalog,
        source_attrs: &[AttrId],
        query: &SliceQuery,
    ) -> Result<Self> {
        let resolve = |target: AttrId| -> Result<(usize, Vec<&'a Hierarchy>)> {
            let (src, path) = catalog.derivation_path(source_attrs, target).ok_or_else(|| {
                CtError::unsupported(format!(
                    "query attribute {} not derivable from the chosen view",
                    catalog.attr(target).name
                ))
            })?;
            let col = source_attrs.iter().position(|&a| a == src).expect("src in list");
            Ok((col, path))
        };
        let group_resolvers =
            query.group_by.iter().map(|&a| resolve(a)).collect::<Result<Vec<_>>>()?;
        let pred_resolvers = query
            .predicates
            .iter()
            .map(|&(a, v)| Ok((resolve(a)?, v)))
            .collect::<Result<Vec<_>>>()?;
        let range_resolvers = query
            .ranges
            .iter()
            .map(|&(a, lo, hi)| Ok((resolve(a)?, lo, hi)))
            .collect::<Result<Vec<_>>>()?;
        Ok(RollupAggregator {
            group_resolvers,
            pred_resolvers,
            range_resolvers,
            groups: HashMap::new(),
            accepted: 0,
        })
    }

    /// Offers one source row; rows failing a predicate are skipped.
    pub fn accept(&mut self, key: &[u64], state: &AggState) {
        for ((col, path), want) in &self.pred_resolvers {
            let mut v = key[*col];
            for h in path {
                v = h.apply(v);
            }
            if v != *want {
                return;
            }
        }
        for ((col, path), lo, hi) in &self.range_resolvers {
            let mut v = key[*col];
            for h in path {
                v = h.apply(v);
            }
            if v < *lo || v > *hi {
                return;
            }
        }
        let mut group = Vec::with_capacity(self.group_resolvers.len());
        for (col, path) in &self.group_resolvers {
            let mut v = key[*col];
            for h in path {
                v = h.apply(v);
            }
            group.push(v);
        }
        self.accepted += 1;
        self.groups.entry(group).or_insert_with(AggState::identity).merge(state);
    }

    /// Rows that passed the predicates.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Merges another aggregator's groups into this one. Both must have
    /// been created for the *same query* (their group keys are then in the
    /// same `group_by` order); the sources may differ — this is how a tree
    /// scan absorbs the resident delta tier's aggregate states.
    pub fn absorb(&mut self, other: RollupAggregator<'_>) {
        self.accepted += other.accepted;
        for (key, state) in other.groups {
            self.groups.entry(key).or_insert_with(AggState::identity).merge(&state);
        }
    }

    /// Finalizes the groups under aggregate `f`. For deletion-safe
    /// aggregates, groups whose count reached zero were annihilated by
    /// retractions and are omitted (the group no longer exists).
    pub fn finish(self, f: AggFn) -> Vec<QueryRow> {
        self.groups
            .into_iter()
            .filter(|(_, state)| !(f.deletion_safe() && state.is_annihilated()))
            .map(|(key, state)| QueryRow { key, agg: state.finalize(f) })
            .collect()
    }
}

/// A planned access path into the forest.
#[derive(Clone, Debug)]
pub struct ForestPlan {
    /// Index into [`CubetreeForest::placements`].
    pub placement: usize,
    /// Expected matching tuples (the first tie-break after leaf pages).
    pub est_tuples: f64,
    /// Length of the physical-sort-order prefix covered by predicates.
    pub sort_prefix: usize,
}

/// Chooses the cheapest placement able to answer `q`, planning against the
/// current generation. Convenience wrapper over
/// [`plan_generation_query`] for callers that do not hold a pin.
pub fn plan_forest_query(
    forest: &CubetreeForest,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<ForestPlan> {
    plan_generation_query(&forest.pin(), catalog, q)
}

/// Chooses the cheapest placement able to answer `q` within one pinned
/// generation (entry and leaf counts, and therefore cost estimates, are
/// per-generation state).
///
/// # Errors
/// [`CtError::Unsupported`] if no placement derives the query's node.
pub fn plan_generation_query(
    gen: &Generation,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<ForestPlan> {
    plan_query_with_entries(gen.placements(), |id| gen.extent_of(id), catalog, q)
}

/// The planner's estimate for one placement (see [`placement_cost`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementCost {
    /// Leaf pages the search must scan: the primary cost.
    pub leaf_pages: f64,
    /// Expected matching tuples.
    pub est_tuples: f64,
    /// Length of the physical-sort-order prefix covered by predicates.
    pub sort_prefix: usize,
}

/// Scores `placement` for `q`, given its `(entries, leaf pages)`; `None` if
/// the placement cannot derive the query's node.
///
/// The physical sort order is the reversed projection (§2.3), so the
/// entries matching the predicates on its leading sort attributes form one
/// contiguous leaf run. The run holds `entries / Π card(prefix attr)`
/// entries — a bounded range contributes its span fraction and ends the
/// prefix — packed at the placement's entries per leaf page; that many
/// leaves (rounded up, at least one) is what the search reads.
pub fn placement_cost(
    placement: &crate::forest::PlacedView,
    (entries, leaves): (u64, u64),
    catalog: &Catalog,
    q: &SliceQuery,
) -> Option<PlacementCost> {
    let def = &placement.def;
    if !catalog.derivable_from(&q.node(), &def.projection) {
        return None;
    }
    // How many times a predicate on `a` cuts the entries down: its
    // cardinality for a point, the span fraction for a bounded range.
    let reduction = |lo: u64, hi: u64, a: AttrId| {
        let card = catalog.attr(a).cardinality.max(1) as f64;
        let span = (hi.saturating_sub(lo) + 1) as f64;
        (card / span).max(1.0)
    };
    // Selectivity from predicates on attributes the view stores directly.
    let selectivity: f64 = def
        .projection
        .iter()
        .filter_map(|&a| q.range_of(a).map(|(lo, hi)| reduction(lo, hi, a)))
        .product();
    let entries = entries as f64;
    let est_tuples = (entries / selectivity).max(1.0);
    // Count how many leading sort attributes the query pins; a bounded
    // range keeps the run contiguous but ends the prefix.
    let mut sort_prefix = 0usize;
    let mut prefix_selectivity = 1.0f64;
    for &a in def.projection.iter().rev() {
        let Some((lo, hi)) = q.range_of(a) else { break };
        sort_prefix += 1;
        prefix_selectivity *= reduction(lo, hi, a);
        if lo != hi {
            break;
        }
    }
    let entries_per_leaf = (entries / leaves.max(1) as f64).max(1.0);
    let leaf_pages = (entries / prefix_selectivity / entries_per_leaf).ceil().max(1.0);
    Some(PlacementCost { leaf_pages, est_tuples, sort_prefix })
}

/// The planner core, over an explicit `(entries, leaf pages)` source: picks
/// the placement with the fewest estimated leaf pages ([`placement_cost`]),
/// breaking ties by fewer matching tuples, then by the longer sort prefix.
///
/// The sharded engine plans each query *once* against the extents summed
/// across every shard's pinned generation, then executes the chosen
/// placement on all of them: per-shard planning could legitimately pick
/// different views on different shards (extents diverge; empty shards tie
/// everywhere), and views carry their own aggregate functions, so gathered
/// partials must all come from one placement to be coherent.
///
/// # Errors
/// [`CtError::Unsupported`] if no placement derives the query's node.
pub fn plan_query_with_entries(
    placements: &[crate::forest::PlacedView],
    extent_of: impl Fn(ViewId) -> (u64, u64),
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<ForestPlan> {
    let rank = |c: &PlacementCost| (c.leaf_pages, c.est_tuples, std::cmp::Reverse(c.sort_prefix));
    let mut best: Option<(usize, PlacementCost)> = None;
    for (i, p) in placements.iter().enumerate() {
        let Some(cost) = placement_cost(p, extent_of(p.def.id), catalog, q) else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| rank(&cost) < rank(b)) {
            best = Some((i, cost));
        }
    }
    best.map(|(placement, c)| ForestPlan {
        placement,
        est_tuples: c.est_tuples,
        sort_prefix: c.sort_prefix,
    })
    .ok_or_else(|| CtError::unsupported("no materialized view can answer this query".to_string()))
}

/// The search region of `q` over a placement with definition `def` in a
/// `dims`-dimensional tree: direct predicates pin their axis, open
/// attributes span `[1, COORD_MAX]`, padding axes pin to 0 (paper Figure 4).
pub(crate) fn query_region(def: &ViewDef, dims: usize, q: &SliceQuery) -> Rect {
    let arity = def.arity();
    let mut lo = vec![0u64; dims];
    let mut hi = vec![0u64; dims];
    for (axis, attr) in def.projection.iter().enumerate() {
        match q.range_of(*attr) {
            Some((l, h)) => {
                lo[axis] = l.max(1);
                hi[axis] = h.min(COORD_MAX);
            }
            None => {
                lo[axis] = 1;
                hi[axis] = COORD_MAX;
            }
        }
    }
    for axis in arity..dims {
        lo[axis] = 0;
        hi[axis] = 0;
    }
    Rect::new(&lo, &hi)
}

/// Feeds the resident delta snapshot through a fresh aggregator for `q`.
/// The delta rows are fact-grained (keyed by the full fact schema), so any
/// query answerable from a materialized view is answerable from them too —
/// the aggregator re-applies predicates and hierarchy rollups, and the
/// result absorbs into a tree-scan aggregator for the same query.
fn delta_aggregator<'a>(
    delta: &DeltaSnapshot,
    catalog: &'a Catalog,
    q: &SliceQuery,
) -> Result<RollupAggregator<'a>> {
    let mut agg = RollupAggregator::new(catalog, delta.attrs(), q)?;
    for (key, state) in delta.rows() {
        agg.accept(key, state);
    }
    Ok(agg)
}

/// Plans and executes `q` against the forest's current generation, merged
/// with the resident delta tier (pinned atomically together). `env` is
/// charged the CPU tuple cost of the entries the search touches; delta rows
/// are in-memory and charge no page I/O.
pub fn execute_forest_query(
    forest: &CubetreeForest,
    env: &ct_storage::StorageEnv,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<Vec<QueryRow>> {
    let (pin, delta) = forest.pin_with_delta();
    execute_query_with_delta(&pin, delta.as_option(), env, catalog, q)
}

/// Plans and executes `q` against one pinned generation. The snapshot's
/// trees and files stay readable even if an update commits meanwhile.
pub fn execute_generation_query(
    gen: &Generation,
    env: &ct_storage::StorageEnv,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<Vec<QueryRow>> {
    execute_query_with_delta(gen, None, env, catalog, q)
}

/// Plans and executes `q` against one pinned generation, merging the tree
/// scan with a resident-delta snapshot taken under the same generation lock
/// (see [`CubetreeForest::pin_with_delta`]). With `delta` `None` this is
/// exactly the historical tree-only executor, bit for bit.
pub fn execute_query_with_delta(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &ct_storage::StorageEnv,
    catalog: &Catalog,
    q: &SliceQuery,
) -> Result<Vec<QueryRow>> {
    Ok(execute_query_partial(gen, delta, env, catalog, q)?.finish())
}

/// One executed query's *unfinalized* aggregate groups: the scatter-gather
/// unit of the sharded engine. Partial answers for the same query from
/// different shards (or any disjoint sources) merge with
/// [`PartialAnswer::absorb`]; [`PartialAnswer::finish`] is then called
/// exactly once, so AVG finalization and retraction annihilation happen
/// after every source has contributed. Because [`ct_common::AggState::merge`]
/// is associative and commutative over integers, the finalized rows are
/// bit-identical however the sources were partitioned.
pub struct PartialAnswer<'a> {
    agg: RollupAggregator<'a>,
    agg_fn: AggFn,
}

impl<'a> PartialAnswer<'a> {
    /// Merges another shard's partial answer for the *same query*.
    pub fn absorb(&mut self, other: PartialAnswer<'_>) {
        debug_assert_eq!(
            self.agg_fn, other.agg_fn,
            "partial answers for one query must share an aggregate function"
        );
        self.agg.absorb(other.agg);
    }

    /// Finalizes the gathered groups (AVG division, annihilated-group
    /// filtering) into result rows. Call once, after every absorb.
    pub fn finish(self) -> Vec<QueryRow> {
        self.agg.finish(self.agg_fn)
    }
}

/// The single-query executor in partial form: identical planning, tree
/// scan, metrics and delta merging to [`execute_query_with_delta`], but the
/// groups come back unfinalized so a sharded caller can gather partials
/// from several forests before one [`PartialAnswer::finish`].
pub fn execute_query_partial<'a>(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &ct_storage::StorageEnv,
    catalog: &'a Catalog,
    q: &SliceQuery,
) -> Result<PartialAnswer<'a>> {
    let plan = plan_generation_query(gen, catalog, q)?;
    execute_planned_query_partial(gen, delta, env, catalog, q, &plan)
}

/// [`execute_query_partial`] with the access path already chosen. The
/// sharded engine plans once across all shards (see
/// [`plan_query_with_entries`]) and then runs the *same* placement on every
/// shard — placements are identical across shard forests, so the index is
/// portable.
pub fn execute_planned_query_partial<'a>(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &ct_storage::StorageEnv,
    catalog: &'a Catalog,
    q: &SliceQuery,
    plan: &ForestPlan,
) -> Result<PartialAnswer<'a>> {
    // Root phase: successive queries accumulate under one "query" span whose
    // I/O delta reconciles against the global counters.
    let _phase = env.phase("query");
    let placement = &gen.placements()[plan.placement];
    let tree = gen.tree(placement.tree);
    let region = query_region(&placement.def, tree.dims(), q);
    let arity = placement.def.arity();
    let mut agg = RollupAggregator::new(catalog, &placement.def.projection, q)?;
    let want = placement.def.id.0;
    let mut touched = 0u64;
    tree.search(&region, |view, point, state| {
        touched += 1;
        if view == want {
            agg.accept(&point.coords()[..arity], state);
        }
        true
    })?;
    env.stats().add_tuples(touched);
    let recorder = env.recorder();
    if recorder.is_enabled() {
        recorder.observe("core.query.touched_entries", touched);
        recorder.add(&format!("core.query.by_view.v{}", placement.def.id.0), 1);
    }
    if let Some(d) = delta.and_then(DeltaSnapshot::as_option) {
        agg.absorb(delta_aggregator(d, catalog, q)?);
        if recorder.is_enabled() {
            recorder.add("core.query.delta_merged", 1);
            recorder.observe("core.query.delta_rows", d.groups());
        }
    }
    Ok(PartialAnswer { agg, agg_fn: placement.def.agg })
}

/// Results of one scheduled batch execution.
pub struct BatchOutput {
    /// Per-query result rows, positionally aligned with the input batch.
    pub results: Vec<Vec<QueryRow>>,
    /// What the scheduler did with the batch.
    pub sched: SchedSummary,
}

/// Plans, schedules and executes a whole batch against the forest.
///
/// The batch is partitioned into per-tree groups (see [`crate::sched`]);
/// groups run concurrently on the environment's worker budget while queries
/// inside a group sweep their tree's leaf runs in packed order with
/// readahead. Consecutive queries with identical placement and region share
/// one leaf pass: the tree is searched once and every rider's aggregator is
/// fed from it (safe because [`RollupAggregator`] re-checks all predicates),
/// with the touched-tuple cost charged once for the pass.
///
/// Per-query results and counters are identical to running the sequential
/// executor query by query; only execution order (and therefore interleaved
/// I/O attribution at `threads > 1`) differs. Execution errors surface with
/// the lowest batch index among failing *groups* — planning errors, the
/// common case, are reported for the first offending query exactly like the
/// sequential loop.
pub fn execute_forest_query_batch(
    forest: &CubetreeForest,
    env: &ct_storage::StorageEnv,
    catalog: &Catalog,
    queries: &[SliceQuery],
) -> Result<BatchOutput> {
    // One pin around the whole batch: every query in it answers from the
    // same generation, merged with the delta resident at pin time.
    let (pin, delta) = forest.pin_with_delta();
    execute_generation_query_batch_with_delta(&pin, delta.as_option(), env, catalog, queries)
}

/// Plans, schedules and executes a whole batch against one pinned
/// generation — the form [`execute_forest_query_batch`] delegates to.
///
/// Callers that need to attribute the answers to a specific committed
/// generation (the serving layer stamps every HTTP response with the
/// generation it answered from) pin the forest themselves, read
/// [`Generation::number`], and execute through this entry point, so the
/// stamp and the answers are guaranteed to come from the same snapshot.
///
/// Every rider of a shared scan additionally absorbs the delta snapshot's
/// groups for its own query (each rider re-applies its own predicates over
/// the delta rows, exactly as it does over the shared tree scan). With
/// `delta` `None` only the pinned trees are read.
pub fn execute_generation_query_batch_with_delta(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &ct_storage::StorageEnv,
    catalog: &Catalog,
    queries: &[SliceQuery],
) -> Result<BatchOutput> {
    let (partials, sched) =
        execute_generation_query_batch_partial(gen, delta, env, catalog, queries)?;
    let results = partials.into_iter().map(PartialAnswer::finish).collect();
    Ok(BatchOutput { results, sched })
}

/// The batched executor in partial form: the scheduled per-tree sweeps,
/// shared scans, readahead and delta merging of
/// [`execute_generation_query_batch_with_delta`], returning one unfinalized
/// [`PartialAnswer`] per query (positionally aligned with the batch) for a
/// sharded caller to gather before finishing.
pub fn execute_generation_query_batch_partial<'a>(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &ct_storage::StorageEnv,
    catalog: &'a Catalog,
    queries: &[SliceQuery],
) -> Result<(Vec<PartialAnswer<'a>>, SchedSummary)> {
    let plans = queries
        .iter()
        .map(|q| plan_generation_query(gen, catalog, q))
        .collect::<Result<Vec<_>>>()?;
    execute_planned_query_batch_partial(gen, delta, env, catalog, queries, &plans)
}

/// [`execute_generation_query_batch_partial`] with every access path
/// already chosen (one plan per query, positionally aligned). See
/// [`plan_query_with_entries`] for why the sharded engine must plan
/// centrally.
pub fn execute_planned_query_batch_partial<'a>(
    gen: &Generation,
    delta: Option<&DeltaSnapshot>,
    env: &ct_storage::StorageEnv,
    catalog: &'a Catalog,
    queries: &[SliceQuery],
    plans: &[ForestPlan],
) -> Result<(Vec<PartialAnswer<'a>>, SchedSummary)> {
    let delta = delta.and_then(DeltaSnapshot::as_option);
    // One root "query" phase around the whole batch, opened and dropped on
    // the calling thread so root phases never overlap and the I/O delta
    // reconciles against the global counters.
    let phase = env.phase("query");
    let (groups, sched) = crate::sched::schedule_planned(gen, queries, plans)?;
    let recorder = env.recorder().clone();
    if recorder.is_enabled() {
        recorder.add("query.sched.batches", 1);
        recorder.add("query.sched.groups", sched.groups);
        recorder.add("query.sched.reordered", sched.reordered);
        recorder.add("query.sched.shared_scans", sched.shared_scans);
    }
    let slots: Vec<Mutex<Option<PartialAnswer<'a>>>> =
        queries.iter().map(|_| Mutex::new(None)).collect();
    let mut jobs: Vec<Job<'_>> = Vec::with_capacity(groups.len());
    for group in groups {
        let slots = &slots;
        let recorder = recorder.clone();
        jobs.push(Box::new(move || {
            // Wall-only span: concurrent groups cannot split the shared I/O
            // counters, so per-group spans time only.
            let _span = recorder.span(&format!("query/tree{}", group.tree));
            let tree = gen.tree(group.tree);
            let mut i = 0;
            while i < group.queries.len() {
                // Extend the shared-scan unit over identical scans.
                let mut j = i + 1;
                while j < group.queries.len()
                    && group.queries[j].plan.placement == group.queries[i].plan.placement
                    && group.queries[j].region == group.queries[i].region
                {
                    j += 1;
                }
                let unit = &group.queries[i..j];
                let placement = &gen.placements()[unit[0].plan.placement];
                let arity = placement.def.arity();
                let want = placement.def.id.0;
                let mut aggs = unit
                    .iter()
                    .map(|sq| {
                        RollupAggregator::new(
                            catalog,
                            &placement.def.projection,
                            &queries[sq.index],
                        )
                    })
                    .collect::<Result<Vec<_>>>()?;
                let mut touched = 0u64;
                tree.search_with_readahead(&unit[0].region, READAHEAD_WINDOW, |view, point, state| {
                    touched += 1;
                    if view == want {
                        for agg in aggs.iter_mut() {
                            agg.accept(&point.coords()[..arity], state);
                        }
                    }
                    true
                })?;
                // One leaf pass, charged once however many queries rode it.
                env.stats().add_tuples(touched);
                if recorder.is_enabled() {
                    // Identical scans touch identical entries, so per-query
                    // metric values match the sequential executor's.
                    for _ in unit {
                        recorder.observe("core.query.touched_entries", touched);
                        recorder.add(&format!("core.query.by_view.v{want}"), 1);
                    }
                }
                for (sq, mut agg) in unit.iter().zip(aggs) {
                    if let Some(d) = delta {
                        agg.absorb(delta_aggregator(d, catalog, &queries[sq.index])?);
                        if recorder.is_enabled() {
                            recorder.add("core.query.delta_merged", 1);
                            recorder.observe("core.query.delta_rows", d.groups());
                        }
                    }
                    *slots[sq.index].lock().unwrap_or_else(|p| p.into_inner()) =
                        Some(PartialAnswer { agg, agg_fn: placement.def.agg });
                }
                i = j;
            }
            Ok(())
        }));
    }
    run_jobs(env.parallelism().threads, jobs)?;
    drop(phase);
    let partials = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .ok_or_else(|| CtError::invalid("batch execution left a query unanswered"))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((partials, sched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::ViewDef;
    use ct_cube::Relation;
    use ct_rtree::LeafFormat;
    use ct_storage::StorageEnv;

    /// Small warehouse: 3 fact attrs, views {psc, ps, c, none} + replicas.
    fn setup() -> (StorageEnv, Catalog, CubetreeForest, [AttrId; 3]) {
        let env = StorageEnv::new("forest-query").unwrap();
        let mut cat = Catalog::new();
        let p = cat.add_attr("partkey", 8);
        let s = cat.add_attr("suppkey", 4);
        let c = cat.add_attr("custkey", 6);
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 99u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.extend_from_slice(&[x % 8 + 1, (x >> 13) % 4 + 1, (x >> 27) % 6 + 1]);
            measures.push(((x >> 40) % 20) as i64 + 1);
        }
        let fact = Relation::from_fact(vec![p, s, c], keys, &measures);
        let views = vec![
            ViewDef::new(0, vec![p, s, c], ct_common::AggFn::Sum),
            ViewDef::new(1, vec![p, s], ct_common::AggFn::Sum),
            ViewDef::new(2, vec![c], ct_common::AggFn::Sum),
            ViewDef::new(3, vec![], ct_common::AggFn::Sum),
        ];
        let replicas = vec![
            (ct_common::ViewId(0), vec![s, c, p]),
            (ct_common::ViewId(0), vec![c, p, s]),
        ];
        let forest = CubetreeForest::build(
            &env,
            &cat,
            &fact,
            &views,
            &replicas,
            LeafFormat::Compressed,
        )
        .unwrap();
        (env, cat, forest, [p, s, c])
    }

    /// Brute-force reference answer straight from the fact relation.
    fn reference(
        fact: &Relation,
        q: &SliceQuery,
    ) -> Vec<QueryRow> {
        let mut groups: HashMap<Vec<u64>, AggState> = HashMap::new();
        'rows: for i in 0..fact.len() {
            let key = fact.key(i);
            for (a, v) in &q.predicates {
                let col = fact.col_of(*a).unwrap();
                if key[col] != *v {
                    continue 'rows;
                }
            }
            let g: Vec<u64> =
                q.group_by.iter().map(|a| key[fact.col_of(*a).unwrap()]).collect();
            groups.entry(g).or_insert_with(AggState::identity).merge(&fact.states[i]);
        }
        let mut rows: Vec<QueryRow> = groups
            .into_iter()
            .map(|(key, st)| QueryRow { key, agg: st.finalize(AggFn::Sum) })
            .collect();
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        rows
    }

    fn fact_of(env: &StorageEnv) -> Relation {
        // Regenerate the same fact data the setup used.
        let _ = env;
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 99u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            keys.extend_from_slice(&[x % 8 + 1, (x >> 13) % 4 + 1, (x >> 27) % 6 + 1]);
            measures.push(((x >> 40) % 20) as i64 + 1);
        }
        Relation::from_fact(vec![AttrId(0), AttrId(1), AttrId(2)], keys, &measures)
    }

    #[test]
    fn exact_view_slice_matches_reference() {
        let (env, cat, forest, [p, s, _]) = setup();
        let fact = fact_of(&env);
        let q = SliceQuery::new(vec![s], vec![(p, 3)]);
        let mut got = execute_forest_query(&forest, &env, &cat, &q).unwrap();
        got.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(got, reference(&fact, &q));
    }

    #[test]
    fn unmaterialized_node_answered_by_rollup() {
        let (env, cat, forest, [p, s, c]) = setup();
        let fact = fact_of(&env);
        // Node {p, c} is not materialized; must roll up from psc (a replica).
        let q = SliceQuery::new(vec![p], vec![(c, 2)]);
        let mut got = execute_forest_query(&forest, &env, &cat, &q).unwrap();
        got.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(got, reference(&fact, &q));
        let _ = s;
    }

    #[test]
    fn planner_prefers_replica_with_matching_sort_order() {
        let (_env, cat, forest, [p, s, c]) = setup();
        // Slice on partkey: the replica with projection (s,c,p) sorts by
        // (p,c,s), so partkey is its leading sort attribute.
        let q = SliceQuery::new(vec![s, c], vec![(p, 1)]);
        let plan = plan_forest_query(&forest, &cat, &q).unwrap();
        let chosen = &forest.placements()[plan.placement].def;
        assert_eq!(
            *chosen.projection.last().unwrap(),
            p,
            "expected a placement whose last (leading-sort) attribute is partkey, got {:?}",
            chosen.projection
        );
        assert_eq!(plan.sort_prefix, 1);
    }

    #[test]
    fn planner_prefers_small_exact_view() {
        let (_env, cat, forest, [_, _, c]) = setup();
        let q = SliceQuery::new(vec![], vec![(c, 4)]);
        let plan = plan_forest_query(&forest, &cat, &q).unwrap();
        let chosen = &forest.placements()[plan.placement].def;
        assert_eq!(chosen.projection, vec![c], "V{{c}} is the cheapest source");
    }

    #[test]
    fn none_view_scalar_query() {
        let (env, cat, forest, _) = setup();
        let fact = fact_of(&env);
        let q = SliceQuery::new(vec![], vec![]);
        let got = execute_forest_query(&forest, &env, &cat, &q).unwrap();
        assert_eq!(got.len(), 1);
        let expect: i64 = fact.states.iter().map(|s| s.sum).sum();
        assert_eq!(got[0].agg, expect as f64);
        // And the planner must have used the 1-row none view.
        let plan = plan_forest_query(&forest, &cat, &q).unwrap();
        assert!(forest.placements()[plan.placement].def.projection.is_empty());
    }

    #[test]
    fn every_slice_type_matches_reference() {
        let (env, cat, forest, attrs) = setup();
        let fact = fact_of(&env);
        // All 27 slice types of the 3-attr lattice, with fixed values 1..2.
        for node_mask in 0..8usize {
            let node: Vec<AttrId> =
                (0..3).filter(|i| node_mask & (1 << i) != 0).map(|i| attrs[i]).collect();
            for fix_mask in 0..(1 << node.len()) {
                let mut group_by = Vec::new();
                let mut predicates = Vec::new();
                for (j, &a) in node.iter().enumerate() {
                    if fix_mask & (1 << j) != 0 {
                        predicates.push((a, (j as u64 % 2) + 1));
                    } else {
                        group_by.push(a);
                    }
                }
                let q = SliceQuery::new(group_by, predicates);
                let mut got = execute_forest_query(&forest, &env, &cat, &q).unwrap();
                got.sort_by(|a, b| a.key.cmp(&b.key));
                assert_eq!(got, reference(&fact, &q), "query {:?}", q.display(&cat));
            }
        }
    }

    #[test]
    fn update_then_query_reflects_delta() {
        let (env, cat, forest, [p, s, c]) = setup();
        let fact = fact_of(&env);
        // Delta: 50 rows over the same key space.
        let mut keys = Vec::new();
        let mut measures = Vec::new();
        let mut x = 12345u64;
        for _ in 0..50 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            keys.extend_from_slice(&[x % 8 + 1, (x >> 17) % 4 + 1, (x >> 29) % 6 + 1]);
            measures.push(((x >> 45) % 9) as i64 + 1);
        }
        let delta = Relation::from_fact(vec![p, s, c], keys.clone(), &measures);
        forest.update(&env, &cat, &delta).unwrap();
        // Reference over fact ∪ delta.
        let mut combined_keys = fact.keys.clone();
        combined_keys.extend_from_slice(&keys);
        let mut combined_measures: Vec<i64> = fact.states.iter().map(|st| st.sum).collect();
        combined_measures.extend_from_slice(&measures);
        let combined = Relation::from_fact(vec![p, s, c], combined_keys, &combined_measures);
        for q in [
            SliceQuery::new(vec![s], vec![(p, 1)]),
            SliceQuery::new(vec![], vec![]),
            SliceQuery::new(vec![p], vec![(c, 3)]),
            SliceQuery::new(vec![], vec![(c, 5)]),
        ] {
            let mut got = execute_forest_query(&forest, &env, &cat, &q).unwrap();
            got.sort_by(|a, b| a.key.cmp(&b.key));
            assert_eq!(got, reference(&combined, &q), "query {:?}", q.display(&cat));
        }
    }

    #[test]
    fn underivable_query_is_rejected() {
        let (_env, mut cat, forest, _) = setup();
        let alien = cat.add_attr("alien", 5);
        let q = SliceQuery::new(vec![alien], vec![]);
        assert!(plan_forest_query(&forest, &cat, &q).is_err());
    }
}
