//! Host facts and process counters, read from the environment and
//! `/proc`, plus the hermetic-configuration gate.

use std::path::Path;

/// Prefix of every environment variable the repository's library
/// defaults read.
pub const ENV_PREFIX: &str = "IDB_";

/// Refuses to run under an ambient `IDB_*` configuration: library
/// defaults (seed-search engine, parallelism, shard count, segment size,
/// disk budget, hot-point budget, journaling) read those variables, and a
/// benchmark whose outcome depends on the calling shell measures nothing
/// reproducible.
///
/// # Errors
/// The names of the offending variables.
pub fn check_hermetic() -> Result<(), String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with(ENV_PREFIX))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to run with {} set: the library defaults read {ENV_PREFIX}* variables, \
         so results would depend on the calling shell; unset them",
        set.join(", ")
    ))
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The numeric value of `key:` in a `/proc` key-value file (the first
/// whitespace-separated token after the colon).
///
/// # Errors
/// When the file cannot be read or holds no such key: a metric built on
/// it would read 0, which a comparison takes for a large improvement.
fn proc_value(path: &str, key: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .ok_or_else(|| format!("{path} has no {key}"))
}

/// Peak resident set size of this process in KiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` cannot be read.
pub fn peak_rss_kib() -> Result<u64, String> {
    proc_value("/proc/self/status", "VmHWM")
}

/// Hands the allocator's free memory back to the kernel (glibc's
/// `malloc_trim`), so what the previous repetition freed but the heap
/// kept does not count towards the next one's peak. Does nothing on other
/// C libraries.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and only releases memory
        // the allocator holds free; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets `VmHWM` to the current resident set size, so the next
/// [`peak_rss_kib`] reading covers only what runs from here on.
///
/// # Errors
/// When `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS (write /proc/self/clear_refs): {e}"))
}

/// Bytes this process has passed to write-like system calls (`wchar`),
/// page cache or not.
///
/// # Errors
/// When `/proc/self/io` cannot be read.
pub fn wchar() -> Result<u64, String> {
    proc_value("/proc/self/io", "wchar")
}

/// The type of the filesystem holding `path` (longest matching mount
/// point in `/proc/mounts`), or `"unknown"`.
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_kib().is_ok_and(|kib| kib > 0));
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let high = peak_rss_kib().unwrap();
        reset_peak_rss().unwrap();
        assert!(peak_rss_kib().unwrap() + 32 * 1024 < high);
        assert!(wchar().is_ok());
        assert!(proc_value("/proc/self/status", "NoSuchKey").is_err());
        assert!(proc_value("/proc/self/no-such-file", "VmHWM").is_err());
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
