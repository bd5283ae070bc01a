//! One conformance suite for every storage medium.
//!
//! The WAL chain, the single-file WAL, the checkpoint store and the cold
//! spill all sit on the same `Medium` operations, so each medium must
//! give them the same answers: in memory, on files (a directory prefix
//! and a single-file prefix), and through the fault-injecting medium once
//! healed.

use idb_store::wal::scratch_dir;
use idb_store::{FsCold, FsMedium, Medium, MemMedium, PointStore};
use idb_synth::FaultMedium;
use std::collections::BTreeSet;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under `scratch_dir()`.
fn fresh_dir(tag: &str) -> PathBuf {
    static DIRS: AtomicU64 = AtomicU64::new(0);
    let dir = scratch_dir().join(format!(
        "idb-medium-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `check` against a fresh medium of every kind.
fn on_every_medium(check: impl Fn(&str, &dyn Medium)) {
    check("mem", &MemMedium::new());

    let dir = fresh_dir("dir");
    check("fs dir", &FsMedium::open(&dir).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();

    // A single-file prefix: object "" is the file itself; the checks use
    // other names, which become siblings `spill<name>`.
    let dir = fresh_dir("file");
    check("fs file", &FsMedium::create(dir.join("spill")).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();

    let fault = FaultMedium::new();
    fault.set_fail_appends(3);
    fault.set_fail_syncs(3);
    fault.set_write_cap(1);
    fault.set_enospc_after(0);
    fault.set_read_outage(true);
    fault.set_write_outage(true);
    fault.kill_after(0);
    fault.heal();
    check("healed fault", &fault);
}

#[test]
fn append_read_and_sync() {
    on_every_medium(|kind, m| {
        assert_eq!(
            m.read("a").unwrap_err().kind(),
            ErrorKind::NotFound,
            "{kind}"
        );
        assert_eq!(
            m.sync("a").unwrap_err().kind(),
            ErrorKind::NotFound,
            "{kind}"
        );
        m.append("a", b"hello").unwrap();
        m.append("a", b" world").unwrap();
        m.sync("a").unwrap();
        assert_eq!(m.read("a").unwrap(), b"hello world", "{kind}");
        m.append("empty", b"").unwrap();
        assert_eq!(
            m.read("empty").unwrap(),
            b"",
            "{kind}: an empty append creates"
        );
    });
}

#[test]
fn read_at_and_write_at_respect_bounds() {
    on_every_medium(|kind, m| {
        let mut buf = [0u8; 4];
        assert_eq!(
            m.read_at("r", 0, &mut buf).unwrap_err().kind(),
            ErrorKind::NotFound,
            "{kind}"
        );
        m.write_at("r", 16, &[1, 2, 3, 4]).unwrap();
        m.read_at("r", 16, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4], "{kind}");
        // The gap before the record reads as zeros.
        let mut head = [9u8; 16];
        m.read_at("r", 0, &mut head).unwrap();
        assert_eq!(head, [0u8; 16], "{kind}");
        // Overwrite in place, then read across the end: a typed short read.
        m.write_at("r", 18, &[7]).unwrap();
        m.read_at("r", 16, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 7, 4], "{kind}");
        let mut long = [0u8; 8];
        let err = m.read_at("r", 16, &mut long).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{kind}: {err}");
        assert_eq!(
            m.read("r").unwrap().len(),
            20,
            "{kind}: writes extend, never pad past"
        );
    });
}

#[test]
fn truncate_beyond_the_size_is_rejected_not_clamped() {
    on_every_medium(|kind, m| {
        m.append("t", b"0123456789").unwrap();
        let err = m.truncate("t", 11).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{kind}: {err}");
        assert_eq!(
            m.read("t").unwrap(),
            b"0123456789",
            "{kind}: nothing changed"
        );
        m.truncate("t", 4).unwrap();
        assert_eq!(m.read("t").unwrap(), b"0123", "{kind}");
        m.append("t", b"x").unwrap();
        assert_eq!(
            m.read("t").unwrap(),
            b"0123x",
            "{kind}: appends land at the new end"
        );
        // A missing object is empty: cutting it to zero is a no-op.
        m.truncate("missing", 0).unwrap();
        let err = m.truncate("missing", 1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{kind}: {err}");
        assert_eq!(m.read("missing").unwrap_err().kind(), ErrorKind::NotFound);
    });
}

#[test]
fn old_content_stays_visible_until_rename_publishes() {
    on_every_medium(|kind, m| {
        m.append("obj", b"old-content!").unwrap();
        m.append("obj.tmp", b"new!").unwrap();
        let mut buf = [0u8; 12];
        m.read_at("obj", 0, &mut buf).unwrap();
        assert_eq!(&buf, b"old-content!", "{kind}: staged bytes are invisible");
        m.rename("obj.tmp", "obj").unwrap();
        assert_eq!(
            m.read("obj").unwrap(),
            b"new!",
            "{kind}: rename replaces, not appends"
        );
        assert_eq!(m.read("obj.tmp").unwrap_err().kind(), ErrorKind::NotFound);
        // The published object keeps working in place.
        m.write_at("obj", 0, b"N").unwrap();
        assert_eq!(m.read("obj").unwrap(), b"New!", "{kind}");
        m.sync("obj").unwrap();
        let err = m.rename("obj.tmp", "obj").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::NotFound, "{kind}: {err}");
    });
}

#[test]
fn remove_is_idempotent_and_reports_freed_bytes() {
    on_every_medium(|kind, m| {
        m.append("gone", b"0123456789").unwrap();
        assert_eq!(m.remove("gone").unwrap(), 10, "{kind}");
        assert_eq!(m.remove("gone").unwrap(), 0, "{kind}");
        assert_eq!(m.read("gone").unwrap_err().kind(), ErrorKind::NotFound);
        m.append("gone", b"ab").unwrap();
        assert_eq!(
            m.read("gone").unwrap(),
            b"ab",
            "{kind}: a removed name starts empty"
        );
    });
}

#[test]
fn list_names_every_object() {
    on_every_medium(|kind, m| {
        let before: BTreeSet<String> = m.list().unwrap().into_iter().collect();
        m.append("wal-00000000-00000000.idbw", b"w").unwrap();
        m.write_at("checkpoint-3.idbc", 0, b"c").unwrap();
        m.append(".checkpoint-4.tmp", b"t").unwrap();
        m.append("doomed", b"d").unwrap();
        m.remove("doomed").unwrap();
        m.append("moved", b"m").unwrap();
        m.rename("moved", "landed").unwrap();
        let after: BTreeSet<String> = m.list().unwrap().into_iter().collect();
        let added: Vec<&String> = after.difference(&before).collect();
        assert_eq!(
            added,
            [
                ".checkpoint-4.tmp",
                "checkpoint-3.idbc",
                "landed",
                "wal-00000000-00000000.idbw"
            ],
            "{kind}"
        );
        assert!(before.is_subset(&after), "{kind}");
    });
}

#[test]
fn clones_share_their_objects() {
    let dir = fresh_dir("clone");
    let fs = FsMedium::open(&dir).unwrap();
    let fault = FaultMedium::new();
    let mem = MemMedium::new();
    let pairs: [(&dyn Medium, Box<dyn Medium>); 3] = [
        (&mem, Box::new(mem.clone())),
        (&fs, Box::new(fs.clone())),
        (&fault, Box::new(fault.clone())),
    ];
    for (a, b) in pairs {
        a.append("shared", &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        b.read_at("shared", 0, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
        b.remove("shared").unwrap();
        assert_eq!(a.read("shared").unwrap_err().kind(), ErrorKind::NotFound);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_file_prefix_puts_objects_beside_the_file() {
    let dir = fresh_dir("prefix");
    let path = dir.join("cold.points");
    std::fs::write(&path, b"stale bytes").unwrap();
    let m = FsCold::create(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"", "create truncates");
    m.append("", b"payload").unwrap();
    m.append(".tmp", b"staged").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"payload");
    assert_eq!(
        std::fs::read(dir.join("cold.points.tmp")).unwrap(),
        b"staged"
    );
    let names: BTreeSet<String> = m.list().unwrap().into_iter().collect();
    assert_eq!(names, BTreeSet::from([String::new(), ".tmp".to_owned()]));
    std::fs::remove_dir_all(&dir).unwrap();
}

fn tiered_store(cold: Box<dyn Medium>) -> PointStore {
    let mut store = PointStore::new(2);
    for i in 0..16 {
        store.insert(&[f64::from(i), -f64::from(i)], Some(0));
    }
    store.enable_tier(cold, 4).unwrap();
    store
}

#[test]
fn fs_cold_spill_is_removed_when_the_last_handle_drops() {
    let dir = fresh_dir("tier-leak");
    let path = dir.join("cold.points");
    std::fs::write(dir.join("cold.points.tmp"), b"abandoned rewrite").unwrap();
    let store = tiered_store(Box::new(FsCold::create(&path).unwrap()));
    assert!(
        !dir.join("cold.points.tmp").exists(),
        "the spill's rewrite replaced the abandoned staging file"
    );
    let twin = store.clone();
    drop(store);
    assert!(path.exists(), "a live clone keeps the spill");
    let mut buf = Vec::new();
    let id = twin.ids().next().unwrap();
    twin.read_point_into(id, &mut buf).unwrap();
    assert_eq!(buf.len(), 2);
    drop(twin);
    assert!(!path.exists(), "the last handle removes the spill");
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "nothing left behind"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // The same guard frees an in-memory spill.
    let mem = MemMedium::new();
    let store = tiered_store(Box::new(mem.clone()));
    assert_eq!(mem.list().unwrap(), [""]);
    drop(store);
    assert!(mem.list().unwrap().is_empty());
}

#[test]
fn a_failed_spill_leaves_nothing_behind() {
    // Like `FsCold::create`, the spill object exists before staging starts;
    // a failure partway (out of space mid-chunk) or at the end (the sync)
    // must remove it along with the partial `.tmp`.
    let arm_enospc = |m: &FaultMedium| m.set_enospc_after(100);
    let arm_sync = |m: &FaultMedium| m.set_fail_syncs(1);
    for arm in [&arm_enospc as &dyn Fn(&FaultMedium), &arm_sync] {
        let fault = FaultMedium::new();
        fault.append("", b"").unwrap();
        arm(&fault);
        let mut store = PointStore::new(2);
        for i in 0..16 {
            store.insert(&[f64::from(i), -f64::from(i)], Some(0));
        }
        assert!(store.enable_tier(Box::new(fault.clone()), 4).is_err());
        assert!(!store.tiered());
        assert!(
            fault.inner().list().unwrap().is_empty(),
            "left behind: {:?}",
            fault.inner().list().unwrap()
        );
    }
}

#[test]
fn published_objects_hold_no_file_descriptor() {
    // A long stream publishes a checkpoint every few batches; keeping each
    // one open would exhaust the descriptor table.
    let open_fds = || std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count);
    let dir = fresh_dir("fds");
    let m = FsMedium::open(&dir).unwrap();
    let before = open_fds();
    for seq in 0..256 {
        let staging = format!(".checkpoint-{seq}.tmp");
        m.append(&staging, b"blob").unwrap();
        m.sync(&staging).unwrap();
        m.rename(&staging, &format!("checkpoint-{seq}.idbc"))
            .unwrap();
        m.sync(&format!("checkpoint-{seq}.idbc")).unwrap();
    }
    assert!(open_fds() < before + 64, "{} -> {}", before, open_fds());
    assert_eq!(m.list().unwrap().len(), 256);
    std::fs::remove_dir_all(&dir).unwrap();
}
