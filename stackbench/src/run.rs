//! One benchmark run: set-up, the closed loop, the output checks and the
//! end-to-end metrics.
//!
//! The loop is closed: one client, one thread. Each batch is planned by
//! the scenario generator outside the timed region, then submitted to
//! the shard router and drained; the client confirms the returned ids
//! to the generator and plans the next one. Every `refresh_every`
//! batches it runs a delta epoch and polls one whole-tree subscriber;
//! [`RESTARTS`] times per repetition it syncs, crashes one partition,
//! reads its WAL file and restarts it through recovery.
//!
//! Every call's CPU time is corrected for the host's speed around it
//! ([`crate::speed`]). An untraced run repeats set-up and loop
//! [`REPETITIONS`] times from the same seed. The repetitions make the
//! same calls on the same states (checked: their final hierarchies are
//! identical), so each timing metric is computed over the calls' medians
//! across the repetitions: a call that something besides the host's speed
//! slowed in one repetition (an interrupt, a stray fsync stall) does not
//! move it.

use crate::host;
use crate::json::{num, quote};
use crate::layers;
use crate::replay::{replay, PartitionLog, ReplayTotals};
use crate::speed::{self, Elapsed, Mark, SpeedProbe};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Config, END_TO_END, MIN_PTS, REPETITIONS, RESTARTS};
use idb_clustering::{cluster_tree, BubbleOrdering, ClusterNode, MergedRef, ReachabilityPlot};
use idb_core::{FsCheckpoints, Health};
use idb_delta::{router_epoch, DeltaEngine, EpochReport, Interest, SubscriptionId, TreeReplica};
use idb_geometry::Parallelism;
use idb_obs::Obs;
use idb_shard::{route_point, GlobalId, ShardRouter};
use idb_store::{Batch, FileSink, PointId, PointStore, TierCounters, COLD_DIR_ENV};
use idb_synth::{ScenarioEngine, ScenarioKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The service under test: file-backed WAL and checkpoints per partition.
pub type Router = ShardRouter<FileSink, FsCheckpoints>;

/// Epochs of a traced run that also time the from-scratch clustering
/// pipeline on the same state (evenly spaced; the reference doubles an
/// epoch's cost, so it is sampled rather than run every epoch).
const SCRATCH_SAMPLES: usize = 32;

/// Epochs whose hierarchy is scored against the generator's labels
/// (evenly spaced, the last included). One final hierarchy's F score
/// varies by a few percent from seed to seed; the mean over a repetition
/// does not.
const FSCORE_SAMPLES: usize = 16;

/// A directory removed (with everything in it) when dropped.
#[derive(Debug)]
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` afresh, removing whatever was there.
    fn create(path: PathBuf) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn io_err(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn partition_dir(dir: &Path, p: u32) -> PathBuf {
    dir.join(format!("p{p}"))
}

fn wal_path(dir: &Path, p: u32) -> PathBuf {
    partition_dir(dir, p).join("wal.idbw")
}

/// What the caller asked for.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub config: Config,
    pub trace: bool,
    /// Scratch space and trace output live under here.
    pub out: PathBuf,
}

/// Per-batch freshness accounting: a subscriber sees a batch's effect
/// only after the next epoch and poll, so an epoch's freshness sample is
/// the latency of every batch since the previous epoch plus the epoch
/// and the poll themselves.
#[derive(Debug, Default)]
pub struct Freshness {
    pending_ms: f64,
}

impl Freshness {
    /// A batch finished with latency `ms`.
    pub fn batch(&mut self, ms: f64) {
        self.pending_ms += ms;
    }

    /// An epoch plus its poll took `refresh_ms`; closes and returns the
    /// sample, in milliseconds.
    pub fn epoch(&mut self, refresh_ms: f64) -> f64 {
        let sample = self.pending_ms + refresh_ms;
        self.pending_ms = 0.0;
        sample
    }
}

/// One epoch's delta-layer counters.
#[derive(Debug, Clone, Copy)]
pub struct EpochStat {
    pub touched: usize,
    pub total: usize,
    pub resynced: bool,
    pub deltas: usize,
    pub components: usize,
    pub reused: usize,
}

impl EpochStat {
    fn of(r: &EpochReport) -> Self {
        Self {
            touched: r.touched,
            total: r.total,
            resynced: r.resynced,
            deltas: r.deltas.len(),
            components: r.tree.components,
            reused: r.tree.reused,
        }
    }
}

/// Everything one repetition of the loop measured. The per-call series
/// are in ms, corrected to the reference host speed ([`speed::corrected`]).
#[derive(Debug, Default)]
pub struct LoopMeasures {
    /// Per batch: `submit` start to `drain` return, in batch order.
    pub batch_ms: Vec<f64>,
    /// Per epoch: see [`Freshness`].
    pub fresh_ms: Vec<f64>,
    /// Per epoch: `router_epoch` + `poll`.
    pub refresh_ms: Vec<f64>,
    /// Per restart: read the WAL file, then `restart_partition`.
    pub recovery_ms: Vec<f64>,
    /// Per restart: `sync_all` through `restart_partition`.
    pub restart_ms: Vec<f64>,
    /// Median speed-probe time over the reference time: how much slower
    /// than at full speed the host ran this repetition.
    pub slowdown: f64,
    /// Time spent inside calls into the system (submit, drain, epoch,
    /// poll, sync, kill, WAL read, restart), uncorrected.
    pub system: Elapsed,
    pub attempted: u64,
    pub failed: u64,
    /// Point inserts + deletes of acknowledged batches.
    pub acked_ops: u64,
    pub inserts: u64,
    /// Change in `wchar` over the loop.
    pub wchar: u64,
    /// `VmHWM` right after the loop, before the output checks allocate;
    /// it is reset before the repetition's set-up, so it covers set-up and
    /// loop.
    pub peak_rss_kib: u64,
    /// Wall time of the whole loop, generator and bookkeeping included
    /// (what `--seconds` is calibrated against).
    pub wall: Duration,
    pub epochs: Vec<EpochStat>,
    pub replayed: Vec<usize>,
    /// Tier traffic, summed over every partition incarnation.
    pub tier: TierCounters,
    /// Shard queue entries right after each submit (traced runs).
    pub queue_depth: Vec<usize>,
    /// F score of the leaf clusters at the scored epochs (the last
    /// repetition only: the others end in the same states).
    pub fscore: Vec<f64>,
}

/// Tail percentile of `samples` by the tail rule.
fn tail(samples: &[f64]) -> f64 {
    stats::percentile(samples, stats::tail_rule(samples.len()))
}

/// Call by call, the median over the repetitions: element `k` is the
/// median time of the `k`-th call of `series`.
#[must_use]
pub fn per_call_median(
    reps: &[LoopMeasures],
    series: impl Fn(&LoopMeasures) -> &[f64],
) -> Vec<f64> {
    let calls = reps.iter().map(|r| series(r).len()).min().unwrap_or(0);
    (0..calls)
        .map(|k| stats::median(&reps.iter().map(|r| series(r)[k]).collect::<Vec<_>>()))
        .collect()
}

/// The running service plus its single subscriber.
struct Service {
    router: Router,
    engine: DeltaEngine,
    sub: SubscriptionId,
    replica: TreeReplica,
}

/// A run's repetitions: what each measured, plus the last one's
/// generator and service for the output checks.
struct Episode {
    svc: Service,
    scenario: ScenarioEngine,
    initial: Batch,
    /// One construction per repetition.
    setup_s: Vec<f64>,
    reps: Vec<LoopMeasures>,
    /// Digest of each repetition's final hierarchy.
    rep_digests: Vec<String>,
    /// Per partition, what its replay needs (traced runs).
    logs: Vec<PartitionLog>,
}

/// What a traced loop carries besides the spans.
struct TraceState<'a> {
    tracer: &'a mut Tracer,
    stride: usize,
    logs: Vec<PartitionLog>,
}

fn add_tier(acc: &mut TierCounters, c: TierCounters) {
    acc.hits += c.hits;
    acc.misses += c.misses;
    acc.cold_reads += c.cold_reads;
    acc.cold_bytes += c.cold_bytes;
    acc.evictions += c.evictions;
}

fn tier_of(router: &Router, p: u32) -> TierCounters {
    router
        .maintainer(p)
        .and_then(|m| m.store().tier_counters())
        .unwrap_or_default()
}

/// Builds the service on fresh media under `dir` and runs the first
/// epoch + poll. Returns the service, the initial client ids and the
/// construction time.
fn construct(
    cfg: &Config,
    initial: &Batch,
    dir: &Path,
) -> Result<(Service, Vec<PointId>, Elapsed), String> {
    let mut media = (0..cfg.partitions)
        .map(|p| {
            let pdir = partition_dir(dir, p);
            std::fs::create_dir_all(&pdir)?;
            Ok(Some((
                FileSink::create(wal_path(dir, p))?,
                FsCheckpoints::open(pdir.join("ckpt"))?,
            )))
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io_err("open partition media"))?;
    let t0 = Mark::now();
    let (mut router, ids) = ShardRouter::create(
        cfg.dim,
        initial,
        &cfg.maintainer(),
        cfg.shard(),
        cfg.durability(),
        cfg.router_seed(),
        &Obs::disabled(),
        |p| {
            media[p as usize]
                .take()
                .expect("the router asks for each partition's media once")
        },
    )
    .map_err(|e| format!("router create: {e}"))?;
    let mut engine = DeltaEngine::new(cfg.delta());
    let sub = engine.subscribe(Interest::Tree);
    router_epoch(&mut engine, &mut router).map_err(|e| format!("first epoch: {e}"))?;
    let deltas = engine.poll(sub);
    let setup = t0.to(Mark::now());
    let mut replica = TreeReplica::new();
    for d in &deltas {
        replica.apply(&d.delta);
    }
    Ok((
        Service {
            router,
            engine,
            sub,
            replica,
        },
        ids,
        setup,
    ))
}

/// Runs the repetitions: each builds a fresh generator from the run's
/// seed, constructs the service on fresh media (timed: `setup_s`) and
/// runs the loop. An untraced run makes [`REPETITIONS`]; a traced run,
/// whose per-layer metrics need one loop, makes one.
fn episode(cfg: &Config, dir: &Path, trace: Option<&mut Tracer>) -> Result<Episode, String> {
    let repetitions = if trace.is_some() { 1 } else { REPETITIONS };
    let epochs = cfg.batches / cfg.refresh_every;
    let mut ts = trace.map(|tracer| TraceState {
        tracer,
        stride: (epochs / SCRATCH_SAMPLES).max(1),
        logs: vec![PartitionLog::default(); cfg.partitions as usize],
    });
    let probe = SpeedProbe::new();
    let mut setup_s = Vec::new();
    let mut reps = Vec::new();
    let mut rep_digests = Vec::new();
    let mut last: Option<(Service, ScenarioEngine, Batch, PathBuf)> = None;
    for r in 0..repetitions {
        // Drop the previous repetition's service (and its files) before
        // building the next, so memory and disk hold one.
        if let Some((svc, _, _, old)) = last.take() {
            drop(svc);
            std::fs::remove_dir_all(&old).map_err(io_err("clear repetition dir"))?;
        }
        let spec = ScenarioSpec::named(
            ScenarioKind::Complex,
            cfg.dim,
            cfg.points,
            cfg.update_fraction,
        );
        let mut scenario = ScenarioEngine::new(spec);
        let mut srng = StdRng::seed_from_u64(cfg.seed);
        let initial = scenario.populate_batch(&mut srng);
        let rdir = dir.join(format!("r{r}"));
        host::trim_heap();
        host::reset_peak_rss()?;
        let before = probe.sample();
        let (mut svc, ids, setup) = construct(cfg, &initial, &rdir)?;
        setup_s.push(speed::corrected(setup, before, probe.sample()) / 1e3);
        scenario.confirm(&ids);
        let score = r + 1 == repetitions;
        let m = run_loop(
            cfg,
            &mut svc,
            &mut scenario,
            &mut srng,
            &rdir,
            &probe,
            ts.as_mut(),
            score,
        )?;
        rep_digests.push(output_digest(&svc.engine, &[]));
        reps.push(m);
        last = Some((svc, scenario, initial, rdir));
    }
    let (mut svc, scenario, initial, rdir) = last.ok_or("no repetition")?;
    let mut logs = Vec::new();
    if let Some(ts) = ts {
        // The final WAL epoch of every partition, made durable first.
        if svc.router.sync_all().iter().any(|h| *h != Health::Healthy) {
            return Err("a partition is degraded after the final sync".into());
        }
        logs = ts.logs;
        for (p, log) in logs.iter_mut().enumerate() {
            log.wal_epochs.push(wal_path(&rdir, p as u32));
        }
    }
    Ok(Episode {
        svc,
        scenario,
        initial,
        setup_s,
        reps,
        rep_digests,
        logs,
    })
}

/// Samples the speed probe right after a call and returns the samples on
/// either side of it.
fn bracket(probe: &SpeedProbe, samples: &mut Vec<f64>) -> (f64, f64) {
    let before = *samples
        .last()
        .expect("the probe runs before the first call");
    let after = probe.sample();
    samples.push(after);
    (before, after)
}

#[allow(clippy::too_many_arguments)]
fn run_loop(
    cfg: &Config,
    svc: &mut Service,
    scenario: &mut ScenarioEngine,
    srng: &mut StdRng,
    dir: &Path,
    probe: &SpeedProbe,
    mut ts: Option<&mut TraceState<'_>>,
    score: bool,
) -> Result<LoopMeasures, String> {
    let mut m = LoopMeasures::default();
    let mut restarts = 0usize;
    // One buffer for every WAL read, so the reads' memory footprint does
    // not depend on how the allocator places several differently sized
    // buffers (that placement made peak RSS vary by seed).
    let mut wal = Vec::new();
    let mut fresh = Freshness::default();
    let epochs = cfg.batches / cfg.refresh_every;
    let fscore_stride = epochs.div_ceil(FSCORE_SAMPLES).max(1);
    // The speed probe runs before the first call and after every call;
    // each call is corrected by the samples on either side of it.
    let mut samples = vec![probe.sample()];
    let wchar0 = host::wchar()?;
    let start = Instant::now();
    for i in 0..cfg.batches {
        let id = i as u64;
        let batch = scenario.plan(srng);
        let ops = batch.len() as u64;
        m.inserts += batch.inserts.len() as u64;
        m.attempted += 1;

        let t0 = Mark::now();
        let ticket = svc.router.submit(&batch);
        let t1 = Mark::now();
        if ts.is_some() {
            m.queue_depth.push(svc.router.queue_depth(0));
        }
        let t2 = Mark::now();
        let results = svc.router.drain();
        let t3 = Mark::now();
        let latency = t0.to(t1) + t2.to(t3);
        let (before, after) = bracket(probe, &mut samples);
        let corrected = speed::corrected(latency, before, after);
        m.system += latency;
        m.batch_ms.push(corrected);
        fresh.batch(corrected);
        if let Some(ts) = ts.as_deref_mut() {
            let (t0, t1, t2, t3) = (t0.wall, t1.wall, t2.wall, t3.wall);
            let root = ts.tracer.record("loop.batch", t0, t3, None, id);
            ts.tracer.record("shard.submit", t0, t1, Some(root), id);
            ts.tracer.record("shard.drain", t2, t3, Some(root), id);
        }
        let outcome = ticket.map_err(|e| e.to_string()).and_then(|t| {
            results
                .into_iter()
                .find(|(k, _)| *k == t)
                .ok_or_else(|| "ticket missing from the drain".to_string())
                .and_then(|(_, r)| r.map_err(|e| e.to_string()))
        });
        match outcome {
            Ok(ids) => {
                if let Some(ts) = ts.as_deref_mut() {
                    // Which partitions logged a record for this batch.
                    let mut touched = vec![false; cfg.partitions as usize];
                    for (coords, _) in &batch.inserts {
                        touched[route_point(coords, cfg.partitions) as usize] = true;
                    }
                    for g in batch
                        .deletes
                        .iter()
                        .filter_map(|&d| GlobalId::from_client(d, cfg.partitions))
                    {
                        touched[g.partition as usize] = true;
                    }
                    for (log, _) in ts.logs.iter_mut().zip(touched).filter(|(_, t)| *t) {
                        log.batches.push(i as u32);
                    }
                }
                scenario.confirm(&ids);
                m.acked_ops += ops;
            }
            Err(e) => {
                // The generator cannot be confirmed past a lost batch:
                // stop, and let the checks report the run incorrect.
                eprintln!("stackbench: batch {i} failed: {e}");
                m.failed += 1;
                break;
            }
        }

        if (i + 1) % cfg.refresh_every == 0 {
            let e = ((i + 1) / cfg.refresh_every - 1) as u64;
            let t4 = Mark::now();
            let report = router_epoch(&mut svc.engine, &mut svc.router)
                .map_err(|err| format!("epoch {e}: {err}"))?;
            let t5 = Mark::now();
            let deltas = svc.engine.poll(svc.sub);
            let t6 = Mark::now();
            let (before, after) = bracket(probe, &mut samples);
            let refresh = speed::corrected(t4.to(t6), before, after);
            m.system += t4.to(t6);
            m.refresh_ms.push(refresh);
            m.fresh_ms.push(fresh.epoch(refresh));
            m.epochs.push(EpochStat::of(&report));
            for d in &deltas {
                svc.replica.apply(&d.delta);
            }
            if score && (epochs - 1 - e as usize) % fscore_stride == 0 {
                m.fscore
                    .push(leaf_fscore(&svc.engine, &svc.router, cfg.partitions)?);
            }
            if let Some(ts) = ts.as_deref_mut() {
                let (t4, t5, t6) = (t4.wall, t5.wall, t6.wall);
                let root = ts.tracer.record("loop.epoch", t4, t6, None, e);
                ts.tracer.record("delta.epoch", t4, t5, Some(root), e);
                ts.tracer.record("delta.poll", t5, t6, Some(root), e);
                if e as usize % ts.stride == 0 {
                    let s = scratch_pipeline(&svc.router, cfg)?;
                    let [a, b, c, d] = s.marks;
                    let root = ts.tracer.open("reference.epoch", a, None, e);
                    ts.tracer.record("clustering.optics", a, b, Some(root), e);
                    ts.tracer.record("clustering.expand", b, c, Some(root), e);
                    ts.tracer.record("clustering.extract", c, d, Some(root), e);
                    ts.tracer.close(root, d);
                }
            }
        }

        if (i + 1) % cfg.restart_every == 0 && restarts < RESTARTS {
            let p = (restarts % cfg.partitions as usize) as u32;
            let r = restarts as u64;
            // The restarted incarnation starts fresh tier counters.
            add_tier(&mut m.tier, tier_of(&svc.router, p));
            let t7 = Mark::now();
            let healths = svc.router.sync_all();
            let t8 = Mark::now();
            let (sink, checkpoints) = svc
                .router
                .kill_partition(p)
                .ok_or_else(|| format!("partition {p} already offline"))?;
            let t9 = Mark::now();
            wal.clear();
            std::fs::File::open(wal_path(dir, p))
                .and_then(|mut f| f.read_to_end(&mut wal))
                .map_err(io_err("read WAL"))?;
            let t10 = Mark::now();
            let report = svc
                .router
                .restart_partition(p, &wal, sink, checkpoints)
                .map_err(|e| format!("restart {r}: {e}"))?;
            let t11 = Mark::now();
            if healths.iter().any(|h| *h != Health::Healthy) {
                return Err(format!("restart {r}: a partition is degraded after sync"));
            }
            let (before, after) = bracket(probe, &mut samples);
            m.system += t7.to(t11);
            m.restart_ms
                .push(speed::corrected(t7.to(t11), before, after));
            m.recovery_ms
                .push(speed::corrected(t9.to(t11), before, after));
            m.replayed.push(report.replayed);
            if let Some(ts) = ts.as_deref_mut() {
                let (t7, t8, t9, t10, t11) = (t7.wall, t8.wall, t9.wall, t10.wall, t11.wall);
                let root = ts.tracer.record("loop.restart", t7, t11, None, r);
                ts.tracer.record("shard.sync", t7, t8, Some(root), r);
                ts.tracer.record("shard.kill", t8, t9, Some(root), r);
                ts.tracer
                    .record("recovery.wal_read", t9, t10, Some(root), r);
                ts.tracer
                    .record("recovery.restart", t10, t11, Some(root), r);
                // Keep the crashed epoch's log for the replay; the
                // restart has already truncated the live file.
                let saved = partition_dir(dir, p).join(format!("wal-epoch-{r}.idbw"));
                std::fs::write(&saved, &wal).map_err(io_err("save WAL epoch"))?;
                ts.logs[p as usize].wal_epochs.push(saved);
            }
            restarts += 1;
        }
    }
    m.wall = start.elapsed();
    m.slowdown = stats::median(&samples) / speed::REFERENCE_US;
    m.wchar = host::wchar()?.saturating_sub(wchar0);
    m.peak_rss_kib = host::peak_rss_kib()?;
    for p in 0..cfg.partitions {
        add_tier(&mut m.tier, tier_of(&svc.router, p));
    }
    Ok(m)
}

/// The from-scratch pipeline over the router's current state, with the
/// instants between its three stages.
struct Scratch {
    refs: Vec<MergedRef>,
    ordering: BubbleOrdering,
    plot: ReachabilityPlot,
    tree: ClusterNode,
    marks: [Instant; 4],
}

fn scratch_pipeline(router: &Router, cfg: &Config) -> Result<Scratch, String> {
    let a = Instant::now();
    let (refs, ordering) = router
        .cluster(f64::INFINITY, MIN_PTS, Parallelism::Serial)
        .map_err(|e| format!("scratch cluster: {e}"))?;
    let b = Instant::now();
    let plot = ordering.expand(|i| {
        let r = refs[i];
        router
            .partition_bubbles(r.domain)
            .map(|bubbles| {
                bubbles[r.index]
                    .members()
                    .iter()
                    .map(|&local| {
                        GlobalId {
                            partition: r.domain,
                            local,
                        }
                        .as_u64()
                    })
                    .collect::<Vec<u64>>()
            })
            .unwrap_or_default()
    });
    let c = Instant::now();
    let tree = cluster_tree(&plot, &cfg.delta().extract);
    let d = Instant::now();
    Ok(Scratch {
        refs,
        ordering,
        plot,
        tree,
        marks: [a, b, c, d],
    })
}

/// Preorder tree serialization: range, split-value bits, child count.
fn tree_bits(node: &ClusterNode, out: &mut Vec<(usize, usize, u64, usize)>) {
    out.push((
        node.range.0,
        node.range.1,
        node.split_value.map_or(u64::MAX, f64::to_bits),
        node.children.len(),
    ));
    for c in &node.children {
        tree_bits(c, out);
    }
}

/// Whether the engine's last epoch equals the from-scratch pipeline bit
/// for bit: provenance, reachability and virtual-reachability bits, plot
/// bits and tree bits.
fn delta_matches_scratch(engine: &DeltaEngine, s: &Scratch) -> bool {
    let (Some((refs, ordering)), Some(plot), Some(tree)) =
        (engine.ordering(), engine.plot(), engine.tree())
    else {
        return false;
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let plot_bits = |p: &ReachabilityPlot| {
        p.entries()
            .iter()
            .map(|e| (e.id, e.reachability.to_bits()))
            .collect::<Vec<_>>()
    };
    let provenance: Vec<MergedRef> = s.ordering.order.iter().map(|&i| s.refs[i]).collect();
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    tree_bits(tree, &mut t1);
    tree_bits(&s.tree, &mut t2);
    refs == &provenance[..]
        && bits(&ordering.reachability) == bits(&s.ordering.reachability)
        && bits(&ordering.virtual_reachability) == bits(&s.ordering.virtual_reachability)
        && plot_bits(plot) == plot_bits(&s.plot)
        && t1 == t2
}

/// Store + bubbles snapshot bytes of every partition.
fn live_snapshots(router: &Router, partitions: u32) -> Result<Vec<Vec<u8>>, String> {
    (0..partitions)
        .map(|p| {
            let m = router
                .maintainer(p)
                .ok_or_else(|| format!("partition {p} offline at the end"))?;
            let mut buf = Vec::new();
            m.store()
                .write_snapshot(&mut buf)
                .map_err(io_err("store snapshot"))?;
            m.bubbles()
                .write_snapshot(&mut buf)
                .map_err(io_err("bubbles snapshot"))?;
            Ok(buf)
        })
        .collect()
}

/// FNV-1a (64-bit) over the final hierarchy and every partition's
/// snapshot: one seed must always give one digest.
fn output_digest(engine: &DeltaEngine, snapshots: &[Vec<u8>]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (id, parent, members) in engine.clusters() {
        eat(&id.0.to_le_bytes());
        eat(&parent.map_or(u64::MAX, |p| p.0).to_le_bytes());
        eat(&(members.len() as u64).to_le_bytes());
        for m in members {
            eat(&m.to_le_bytes());
        }
    }
    for s in snapshots {
        eat(&(s.len() as u64).to_le_bytes());
        eat(s);
    }
    format!("{h:016x}")
}

/// F score of the current hierarchy's leaf clusters against the
/// generator's labels, computed by `idb_eval::fscore` over a label-only
/// store holding every partition's points.
fn leaf_fscore(engine: &DeltaEngine, router: &Router, partitions: u32) -> Result<f64, String> {
    let clusters = engine.clusters();
    let parents: BTreeSet<u64> = clusters
        .iter()
        .filter_map(|(_, parent, _)| parent.map(|p| p.0))
        .collect();
    let mut labels = PointStore::new(1);
    let mut renumber: HashMap<u64, u64> = HashMap::new();
    for p in 0..partitions {
        let store = router
            .maintainer(p)
            .ok_or_else(|| format!("partition {p} offline at the end"))?
            .store();
        for local in store.ids() {
            let new = labels.insert(&[0.0], store.label(local));
            renumber.insert(
                GlobalId {
                    partition: p,
                    local,
                }
                .as_u64(),
                u64::from(new.0),
            );
        }
    }
    let leaves: Vec<Vec<u64>> = clusters
        .iter()
        .filter(|(id, _, _)| !parents.contains(&id.0))
        .map(|(_, _, members)| {
            members
                .iter()
                .filter_map(|g| renumber.get(g).copied())
                .collect()
        })
        .collect();
    Ok(idb_eval::fscore(&labels, &leaves).overall)
}

/// The output checks, all made outside the timed region.
#[derive(Debug, Default)]
pub struct Checks {
    pub no_failed_batches: bool,
    pub live_count: bool,
    pub delta_equals_scratch: bool,
    pub replica_equals_engine: bool,
    /// Every repetition ended with the same hierarchy.
    pub repetitions_identical: bool,
    /// `Some` when the workload tiers: a cold file exists and cold bytes
    /// were read.
    pub cold_tier_file_backed: Option<bool>,
    /// `Some` in traced runs: the WAL replay ends byte-identical.
    pub replay_identical: Option<bool>,
}

impl Checks {
    #[must_use]
    pub fn all_pass(&self) -> bool {
        self.no_failed_batches
            && self.live_count
            && self.delta_equals_scratch
            && self.replica_equals_engine
            && self.repetitions_identical
            && self.cold_tier_file_backed.unwrap_or(true)
            && self.replay_identical.unwrap_or(true)
    }

    fn to_json(&self) -> String {
        let opt = |v: Option<bool>| v.map_or("null".to_string(), |b| b.to_string());
        format!(
            "{{\"no_failed_batches\": {}, \"live_count\": {}, \"delta_equals_scratch\": {}, \
             \"replica_equals_engine\": {}, \"repetitions_identical\": {}, \
             \"cold_tier_file_backed\": {}, \"replay_identical\": {}}}",
            self.no_failed_batches,
            self.live_count,
            self.delta_equals_scratch,
            self.replica_equals_engine,
            self.repetitions_identical,
            opt(self.cold_tier_file_backed),
            opt(self.replay_identical)
        )
    }
}

/// A finished run: the report line and the result line.
#[derive(Debug)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub report: String,
}

impl RunOutput {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    #[must_use]
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// What recording `spans` spans costs. A traced loop records its spans
/// between calls into the system, outside the timed system time, so the
/// tracing overhead a traced run adds is this recording time (measured
/// here on a throwaway tracer), not a change in the measured latencies.
fn recording_cost(spans: usize) -> Duration {
    let mut probe = Tracer::new();
    let t0 = Instant::now();
    for i in 0..spans {
        let now = Instant::now();
        std::hint::black_box(probe.record("probe", now, now, None, i as u64));
    }
    t0.elapsed()
}

fn cold_file_present(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.filter_map(Result::ok).any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("cold-") && n.ends_with(".points"))
        })
    })
}

/// Runs one workload and returns its output lines.
///
/// # Errors
/// A message when the system or the filesystem fails in a way the
/// workloads are chosen never to hit (so no result is meaningful).
pub fn run(opts: &RunOpts) -> Result<RunOutput, String> {
    let cfg = &opts.config;
    std::fs::create_dir_all(&opts.out).map_err(io_err("create output dir"))?;
    let scratch = ScratchDir::create(opts.out.join(format!("run-{}", std::process::id())))
        .map_err(io_err("create scratch dir"))?;
    let cold_dir = scratch.path().join("cold");
    if cfg.hot_points.is_some() {
        // `IDB_COLD_DIR` is the only public switch to a file-backed cold
        // tier for router partitions; the library silently falls back to
        // memory when the directory is unusable, so it is created here
        // and checked after the run.
        std::fs::create_dir_all(&cold_dir).map_err(io_err("create cold dir"))?;
        std::env::set_var(COLD_DIR_ENV, &cold_dir);
    }

    let mut tracer = Tracer::new();
    let ep = if opts.trace {
        episode(cfg, scratch.path(), Some(&mut tracer))?
    } else {
        episode(cfg, scratch.path(), None)?
    };
    let reps = &ep.reps;
    // The last repetition: its service is the one still running.
    let m = reps.last().ok_or("no repetition")?;
    let router = &ep.svc.router;
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();

    // --- Output checks (untimed). ---
    let scratch_out = scratch_pipeline(router, cfg)?;
    let snapshots = live_snapshots(router, cfg.partitions)?;
    let mut checks = Checks {
        no_failed_batches: failed == 0,
        live_count: router.total_points() == ep.scenario.live_count() as u64,
        delta_equals_scratch: delta_matches_scratch(&ep.svc.engine, &scratch_out),
        replica_equals_engine: ep.svc.replica.snapshot() == ep.svc.engine.clusters(),
        repetitions_identical: ep.rep_digests.windows(2).all(|d| d[0] == d[1]),
        cold_tier_file_backed: cfg
            .hot_points
            .map(|_| cold_file_present(&cold_dir) && reps.iter().all(|r| r.tier.cold_bytes > 0)),
        replay_identical: None,
    };
    let digest = output_digest(&ep.svc.engine, &snapshots);
    let fscore = m.fscore.iter().sum::<f64>() / m.fscore.len().max(1) as f64;

    let batch_tail = stats::tail_rule(m.batch_ms.len());
    let fresh_tail = stats::tail_rule(m.fresh_ms.len());
    let mut extra = String::new();
    let metrics = if opts.trace {
        let overhead_pct = recording_cost(tracer.spans().len()).as_secs_f64()
            / m.system.wall.as_secs_f64()
            * 100.0;
        let mut totals = ReplayTotals::default();
        let replay_dir = scratch.path().join("replay");
        std::fs::create_dir_all(&replay_dir).map_err(io_err("create replay dir"))?;
        let identical = replay(
            cfg,
            &ep.initial,
            &replay_dir,
            &ep.logs,
            &snapshots,
            &mut tracer,
            &mut totals,
        )?;
        checks.replay_identical = Some(identical);
        let stride = ((cfg.batches / cfg.refresh_every) / SCRATCH_SAMPLES).max(1);
        let metrics = layers::metrics(m, &tracer, &totals, stride, overhead_pct);
        let dominant = layers::dominant(cfg.workload, &metrics);
        let _ = write!(extra, ", \"dominant\": {dominant}");
        let trace_dir = opts.out.join("traces");
        std::fs::create_dir_all(&trace_dir).map_err(io_err("create trace dir"))?;
        let path = trace_dir.join(format!("{}.trace.json", cfg.workload));
        tracer
            .write(&path, cfg.workload, cfg.seed)
            .map_err(io_err("write trace"))?;
        let _ = write!(
            extra,
            ", \"trace_file\": {}, \"spans\": {}",
            quote(&path.display().to_string()),
            tracer.spans().len()
        );
        metrics
    } else {
        let inserts: u64 = reps.iter().map(|r| r.inserts).sum();
        let wchar: u64 = reps.iter().map(|r| r.wchar).sum();
        let batch = per_call_median(reps, |r| &r.batch_ms);
        let fresh = per_call_median(reps, |r| &r.fresh_ms);
        let recovery = per_call_median(reps, |r| &r.recovery_ms);
        let system_ms: f64 = batch
            .iter()
            .chain(&per_call_median(reps, |r| &r.refresh_ms))
            .chain(&per_call_median(reps, |r| &r.restart_ms))
            .sum();
        let values = [
            stats::median(&ep.setup_s),
            m.acked_ops as f64 / (system_ms / 1e3),
            stats::median(&batch),
            tail(&batch),
            stats::median(&fresh),
            tail(&fresh),
            stats::mean(&recovery),
            stats::median(
                &reps
                    .iter()
                    .map(|r| r.peak_rss_kib as f64)
                    .collect::<Vec<_>>(),
            ) / 1024.0,
            wchar as f64 / (inserts * cfg.dim as u64 * 8) as f64,
            fscore,
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(metric, v)| (metric.name, v, metric.unit))
            .collect()
    };

    let list = |f: &dyn Fn(&LoopMeasures) -> f64| {
        reps.iter()
            .map(|r| num(f(r)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let report = format!(
        "{{\"stackbench\": \"report\", \"workload\": {}, \"seed\": {}, \"trace\": {}, \
         \"config\": {}, \"host\": {{\"nproc\": {}, \"scratch_fs\": {}, \"os\": {}, \"arch\": {}}}, \
         \"repetitions\": {}, \"samples_per_repetition\": {{\"batches\": {}, \"epochs\": {}, \"restarts\": {}}}, \
         \"tail\": {{\"batch\": \"p{batch_tail}\", \"fresh\": \"p{fresh_tail}\"}}, \
         \"setup_samples_s\": [{}], \"repetition_batch_p50_ms\": [{}], \"repetition_slowdown\": [{}], \
         \"repetition_system_s\": [{}], \"repetition_system_cpu_s\": [{}], \"repetition_peak_rss_mib\": [{}], \
         \"loop_wall_s\": {}, \"fscore\": {}, \"checks\": {}, \"output_digest\": \"{digest}\"{extra}}}",
        quote(cfg.workload),
        cfg.seed,
        opts.trace,
        cfg.to_json(),
        host::nproc(),
        quote(&host::fs_type(scratch.path())),
        quote(std::env::consts::OS),
        quote(std::env::consts::ARCH),
        reps.len(),
        m.attempted,
        m.epochs.len(),
        m.recovery_ms.len(),
        ep.setup_s.iter().map(|&s| num(s)).collect::<Vec<_>>().join(", "),
        list(&|r| stats::median(&r.batch_ms)),
        list(&|r| r.slowdown),
        list(&|r| r.system.wall.as_secs_f64()),
        list(&|r| r.system.cpu.as_secs_f64()),
        list(&|r| r.peak_rss_kib as f64 / 1024.0),
        num(reps.iter().map(|r| r.wall.as_secs_f64()).sum()),
        num(fscore),
        checks.to_json(),
    );
    Ok(RunOutput {
        correct: checks.all_pass(),
        attempted,
        failed,
        metrics,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freshness_charges_every_batch_since_the_last_epoch() {
        let mut f = Freshness::default();
        f.batch(2.0);
        f.batch(3.0);
        assert_eq!(f.epoch(10.0), 15.0);
        // The next sample starts from zero.
        f.batch(1.0);
        assert_eq!(f.epoch(4.0), 5.0);
        assert_eq!(f.epoch(7.0), 7.0);
    }

    fn rep(batch_ms: &[f64]) -> LoopMeasures {
        LoopMeasures {
            batch_ms: batch_ms.to_vec(),
            ..LoopMeasures::default()
        }
    }

    #[test]
    fn each_call_takes_its_median_over_the_repetitions() {
        let reps = [
            rep(&[3.0, 1.0, 2.0]),
            rep(&[1.5, 9.0, 1.5]),
            rep(&[4.0, 4.0, 0.5, 7.0]),
        ];
        // A call one repetition never made is left out.
        assert_eq!(per_call_median(&reps, |r| &r.batch_ms), [3.0, 4.0, 1.5]);
        assert!(per_call_median(&reps[..0], |r| &r.batch_ms).is_empty());
    }
}
