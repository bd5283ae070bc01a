//! Fault generators for robustness testing.
//!
//! The fault-injection harness (in `idb-core`'s test suite) drives the
//! maintainer with deliberately malformed inputs and damaged snapshot
//! bytes, asserting that every failure surfaces as a typed error — never a
//! panic — and that rejected batches leave no trace. This module houses
//! the generators and [`FaultMedium`], the one storage medium that fails
//! on demand, so other crates (and future harnesses) share one vocabulary
//! of faults.

use idb_obs::{EventKind, Obs, SinkOp};
use idb_store::{Batch, Medium, MemMedium, PointId, PointStore};
use rand::Rng;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// The kinds of invalid update batch the validating entry point must
/// reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFault {
    /// An insert carrying a NaN coordinate.
    NanInsert,
    /// An insert carrying an infinite coordinate.
    InfiniteInsert,
    /// An insert with too few coordinates.
    ShortInsert,
    /// An insert with too many coordinates.
    LongInsert,
    /// A delete naming an id that was never live.
    StaleDelete,
    /// The same live id deleted twice in one batch.
    DuplicateDelete,
}

/// Every batch fault, for exhaustive sweeps.
pub const ALL_BATCH_FAULTS: [BatchFault; 6] = [
    BatchFault::NanInsert,
    BatchFault::InfiniteInsert,
    BatchFault::ShortInsert,
    BatchFault::LongInsert,
    BatchFault::StaleDelete,
    BatchFault::DuplicateDelete,
];

/// Builds an otherwise-plausible batch (a few valid inserts and deletes)
/// carrying exactly one instance of `fault`, targeted at the current store
/// contents.
///
/// # Panics
/// Panics if the store is empty (the delete-based faults need a live id)
/// or zero-dimensional.
pub fn faulty_batch<R: Rng + ?Sized>(store: &PointStore, fault: BatchFault, rng: &mut R) -> Batch {
    assert!(
        !store.is_empty(),
        "faulty batches are built against live data"
    );
    let dim = store.dim();
    let valid_point =
        |rng: &mut R| -> Vec<f64> { (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect() };
    let mut inserts = vec![(valid_point(rng), Some(1u32))];
    let mut deletes: Vec<PointId> = store.sample_distinct(1, rng);
    match fault {
        BatchFault::NanInsert => {
            let mut p = valid_point(rng);
            p[rng.gen_range(0..dim)] = f64::NAN;
            inserts.push((p, None));
        }
        BatchFault::InfiniteInsert => {
            let mut p = valid_point(rng);
            p[rng.gen_range(0..dim)] = if rng.gen_bool(0.5) {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            inserts.push((p, None));
        }
        BatchFault::ShortInsert => {
            let mut p = valid_point(rng);
            p.pop();
            inserts.push((p, None));
        }
        BatchFault::LongInsert => {
            let mut p = valid_point(rng);
            p.push(0.0);
            inserts.push((p, None));
        }
        BatchFault::StaleDelete => {
            // A slot number beyond anything the store ever handed out.
            deletes.push(PointId(store.slots() as u32 + 7));
        }
        BatchFault::DuplicateDelete => {
            deletes.push(deletes[0]);
        }
    }
    Batch { inserts, deletes }
}

/// Shared fault plan of a [`FaultMedium`].
#[derive(Debug, Default)]
struct FaultPlan {
    write_cap: Option<usize>,
    fail_appends: usize,
    fail_syncs: usize,
    enospc_after: Option<u64>,
    read_outage: bool,
    write_outage: bool,
    /// Operations admitted so far (every [`Medium`] call counts once).
    ops: u64,
    /// Operation count at which the medium dies.
    kill_at: Option<u64>,
    /// `Some` while tracing: `"<op> <object>"` per admitted operation.
    trace: Option<Vec<String>>,
    obs: Obs,
}

/// The fault-injecting [`Medium`]: a [`MemMedium`] (clone-shared, so
/// suites snapshot, restore and corrupt exactly as with the plain medium)
/// plus one fault plan shared by every clone and every object. It
/// simulates what a real device exposes to the layers above:
///
/// * **short writes** — with a `write_cap`, the next append persists only
///   its first `cap` bytes and then fails, like a process killed
///   mid-`write(2)`;
/// * **transient append/fsync errors** — the next `fail_appends` /
///   `fail_syncs` calls fail without touching any object;
/// * **device exhaustion** — with `enospc_after`, an append that would
///   push the medium's **total** bytes (across all objects) past the cap
///   writes up to the boundary and fails with
///   [`io::ErrorKind::StorageFull`] until [`FaultMedium::heal`];
/// * **outages** — every read (`read`, `read_at`) or every write
///   (`append`, `write_at`, `truncate`, `rename`) fails while switched on,
///   like a detached volume;
/// * **kills** — after [`FaultMedium::kill_after`]`(n)`, `n` more
///   operations succeed and every later one fails: the process died there,
///   and [`FaultMedium::inner`] holds exactly what it left on the device.
///
/// Failed appends and syncs emit `sink_fault` journal events.
#[derive(Debug, Clone, Default)]
pub struct FaultMedium {
    inner: MemMedium,
    plan: Arc<Mutex<FaultPlan>>,
}

impl FaultMedium {
    /// A healthy, empty medium.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A healthy medium over `inner`'s objects (a crash image to recover
    /// and resume on).
    #[must_use]
    pub fn over(inner: MemMedium) -> Self {
        Self {
            inner,
            plan: Arc::default(),
        }
    }

    /// The wrapped in-memory medium — what a recovery after a crash would
    /// find.
    #[must_use]
    pub fn inner(&self) -> &MemMedium {
        &self.inner
    }

    fn plan(&self) -> MutexGuard<'_, FaultPlan> {
        self.plan.lock().expect("fault plan poisoned")
    }

    /// Arms the next append to persist at most `cap` bytes, then fail.
    pub fn set_write_cap(&self, cap: usize) {
        self.plan().write_cap = Some(cap);
    }

    /// Arms the next `n` appends to fail outright.
    pub fn set_fail_appends(&self, n: usize) {
        self.plan().fail_appends = n;
    }

    /// Arms the next `n` syncs to fail.
    pub fn set_fail_syncs(&self, n: usize) {
        self.plan().fail_syncs = n;
    }

    /// Caps the device at `cap` total bytes across all objects.
    pub fn set_enospc_after(&self, cap: u64) {
        self.plan().enospc_after = Some(cap);
    }

    /// Starts/stops failing every read.
    pub fn set_read_outage(&self, on: bool) {
        self.plan().read_outage = on;
    }

    /// Starts/stops failing every write.
    pub fn set_write_outage(&self, on: bool) {
        self.plan().write_outage = on;
    }

    /// Lets `n` more operations succeed, then fails every later one.
    pub fn kill_after(&self, n: u64) {
        let mut plan = self.plan();
        plan.kill_at = Some(plan.ops + n);
    }

    /// Operations admitted so far.
    #[must_use]
    pub fn op_count(&self) -> u64 {
        self.plan().ops
    }

    /// Starts recording every admitted operation as `"<op> <object>"`.
    pub fn start_trace(&self) {
        self.plan().trace = Some(Vec::new());
    }

    /// The operations recorded since [`FaultMedium::start_trace`].
    #[must_use]
    pub fn trace(&self) -> Vec<String> {
        self.plan().trace.clone().unwrap_or_default()
    }

    /// Clears every pending fault, including a kill and the ENOSPC cap
    /// ("space was freed, the disk came back").
    pub fn heal(&self) {
        let mut plan = self.plan();
        plan.write_cap = None;
        plan.fail_appends = 0;
        plan.fail_syncs = 0;
        plan.enospc_after = None;
        plan.read_outage = false;
        plan.write_outage = false;
        plan.kill_at = None;
    }

    /// Installs the observability handle injected faults are journaled
    /// through.
    pub fn set_obs(&self, obs: Obs) {
        self.plan().obs = obs;
    }

    /// Counts and traces one operation, failing it when the medium is
    /// dead or (for `read`/`write` class operations) out.
    fn admit(&self, op: &str, name: &str, class: OpClass) -> io::Result<MutexGuard<'_, FaultPlan>> {
        let mut plan = self.plan();
        if plan.kill_at.is_some_and(|at| plan.ops >= at) {
            return Err(io::Error::other("injected kill: the medium is gone"));
        }
        plan.ops += 1;
        if let Some(trace) = &mut plan.trace {
            trace.push(format!("{op} {name}"));
        }
        match class {
            OpClass::Read if plan.read_outage => Err(io::Error::other("injected read outage")),
            OpClass::Write if plan.write_outage => Err(io::Error::other("injected write outage")),
            _ => Ok(plan),
        }
    }
}

/// Which outage an operation is subject to.
#[derive(Clone, Copy)]
enum OpClass {
    Read,
    Write,
    Meta,
}

fn sink_fault(plan: &FaultPlan, op: SinkOp) {
    plan.obs.emit(EventKind::SinkFault { op }, 0);
}

impl Medium for FaultMedium {
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut plan = self.admit("append", name, OpClass::Write)?;
        if plan.fail_appends > 0 {
            plan.fail_appends -= 1;
            sink_fault(&plan, SinkOp::Append);
            return Err(io::Error::other("injected append failure"));
        }
        if let Some(cap) = plan.write_cap.take() {
            self.inner.append(name, &bytes[..cap.min(bytes.len())])?;
            sink_fault(&plan, SinkOp::Append);
            return Err(io::Error::other("injected short write"));
        }
        if let Some(cap) = plan.enospc_after {
            let room =
                usize::try_from(cap.saturating_sub(self.inner.total_bytes())).unwrap_or(usize::MAX);
            if bytes.len() > room {
                self.inner.append(name, &bytes[..room])?;
                sink_fault(&plan, SinkOp::Append);
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected ENOSPC",
                ));
            }
        }
        self.inner.append(name, bytes)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let _plan = self.admit("read", name, OpClass::Read)?;
        self.inner.read(name)
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let _plan = self.admit("read_at", name, OpClass::Read)?;
        self.inner.read_at(name, offset, buf)
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> io::Result<()> {
        let _plan = self.admit("write_at", name, OpClass::Write)?;
        self.inner.write_at(name, offset, data)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let _plan = self.admit("truncate", name, OpClass::Write)?;
        self.inner.truncate(name, len)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut plan = self.admit("sync", name, OpClass::Meta)?;
        if plan.fail_syncs > 0 {
            plan.fail_syncs -= 1;
            sink_fault(&plan, SinkOp::Sync);
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let _plan = self.admit("rename", &format!("{from} -> {to}"), OpClass::Write)?;
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<u64> {
        let _plan = self.admit("remove", name, OpClass::Meta)?;
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let _plan = self.admit("list", "*", OpClass::Meta)?;
        self.inner.list()
    }
}

/// Flips one bit of `bytes` in place. `offset` is taken modulo the length,
/// `bit` modulo 8, so exhaustive sweeps can iterate plain counters.
///
/// # Panics
/// Panics if `bytes` is empty.
pub fn flip_bit(bytes: &mut [u8], offset: usize, bit: u32) {
    assert!(!bytes.is_empty(), "cannot flip a bit of an empty buffer");
    let i = offset % bytes.len();
    bytes[i] ^= 1u8 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_store() -> PointStore {
        let mut s = PointStore::new(2);
        for i in 0..20 {
            s.insert(&[i as f64, -(i as f64)], Some(0));
        }
        s
    }

    #[test]
    fn every_fault_kind_builds_a_batch() {
        let store = small_store();
        let mut rng = StdRng::seed_from_u64(1);
        for fault in ALL_BATCH_FAULTS {
            let batch = faulty_batch(&store, fault, &mut rng);
            assert!(
                !batch.inserts.is_empty() || !batch.deletes.is_empty(),
                "{fault:?}"
            );
        }
    }

    #[test]
    fn stale_delete_is_not_live() {
        let store = small_store();
        let mut rng = StdRng::seed_from_u64(2);
        let batch = faulty_batch(&store, BatchFault::StaleDelete, &mut rng);
        assert!(batch.deletes.iter().any(|&id| !store.contains(id)));
    }

    #[test]
    fn fault_medium_injects_and_heals() {
        let m = FaultMedium::new();
        m.append("w", b"hello").unwrap();
        m.set_fail_appends(1);
        assert!(m.append("w", b" world").is_err());
        assert_eq!(
            m.inner().read("w").unwrap(),
            b"hello",
            "failed append leaves no bytes"
        );
        m.set_write_cap(2);
        assert!(m.append("w", b" world").is_err());
        assert_eq!(
            m.inner().read("w").unwrap(),
            b"hello w",
            "short write persists a prefix"
        );
        m.set_fail_syncs(1);
        assert!(m.sync("w").is_err());
        m.set_enospc_after(9);
        let err = m.append("x", b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(
            m.inner().read("x").unwrap(),
            b"ab",
            "ENOSPC counts every object"
        );
        m.heal();
        m.truncate("w", 5).unwrap();
        m.append("w", b" world").unwrap();
        m.sync("w").unwrap();
        assert_eq!(m.inner().read("w").unwrap(), b"hello world");
    }

    #[test]
    fn read_outage_fails_whole_and_positioned_reads() {
        let m = FaultMedium::new();
        m.append("spill", b"abcdef").unwrap();
        m.set_read_outage(true);
        assert!(m.read("spill").is_err(), "a whole-object read");
        assert!(m.read_at("spill", 2, &mut [0u8; 2]).is_err());
        m.append("spill", b"g").unwrap();
        m.heal();
        assert_eq!(m.read("spill").unwrap(), b"abcdefg");
        let mut buf = [0u8; 2];
        m.read_at("spill", 2, &mut buf).unwrap();
        assert_eq!(&buf, b"cd");
    }

    #[test]
    fn kill_after_fails_every_later_op_until_healed() {
        let m = FaultMedium::new();
        m.start_trace();
        m.kill_after(2);
        m.append("a", b"1").unwrap();
        m.sync("a").unwrap();
        assert!(m.append("a", b"2").is_err());
        assert!(m.read("a").is_err());
        assert_eq!(m.inner().read("a").unwrap(), b"1");
        assert_eq!(m.op_count(), 2);
        assert_eq!(m.trace(), ["append a", "sync a"]);
        m.heal();
        m.append("a", b"2").unwrap();
        assert_eq!(m.inner().read("a").unwrap(), b"12");
    }

    #[test]
    fn flip_bit_round_trips() {
        let mut buf = vec![0u8; 8];
        flip_bit(&mut buf, 3, 5);
        assert_eq!(buf[3], 1 << 5);
        flip_bit(&mut buf, 3, 5);
        assert!(buf.iter().all(|&b| b == 0));
        // Offsets wrap instead of panicking.
        flip_bit(&mut buf, 8, 9);
        assert_eq!(buf[0], 1 << 1);
    }
}
