//! Determinism contract of `igo-sim sweep`: the emitted grid — row order,
//! every cell, and the best-technique frontier — must be byte-identical
//! for every worker count (whether capped by the global `--jobs` flag or
//! the `IGO_SIM_THREADS` environment variable), and both outputs are
//! pinned by content hash so any change to a reported number shows here.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// FNV-1a hash of `sweep.csv` for `sweep bert-tiny --spm 2,4,8`.
const SWEEP_CSV_FNV: u64 = 0xb20d_0918_ea7e_99bf;

/// FNV-1a hash of that sweep's `"best"` frontier (see [`best_of`]).
const BEST_FRONTIER_FNV: u64 = 0x93a0_5d03_754a_3b76;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Spawn `igo-sim sweep bert-tiny --spm 2,4,8 --out <tmp>/<tag>` plus
/// `extra` flags.
fn spawn_sweep(
    tmp: &Path,
    tag: &str,
    jobs: Option<&str>,
    env_threads: Option<&str>,
    extra: &[&str],
) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_igo-sim"));
    if let Some(n) = jobs {
        cmd.args(["--jobs", n]);
    }
    if let Some(n) = env_threads {
        cmd.env("IGO_SIM_THREADS", n);
    }
    cmd.args(["sweep", "bert-tiny", "--spm", "2,4,8", "--out"])
        .arg(tmp.join(tag))
        .args(extra);
    cmd.output().expect("spawn igo-sim")
}

/// Run one sweep invocation into its own output directory and return the
/// `(sweep.csv, summary.json)` contents.
fn run_sweep(
    tmp: &Path,
    tag: &str,
    jobs: Option<&str>,
    env_threads: Option<&str>,
) -> (String, String) {
    let output = spawn_sweep(tmp, tag, jobs, env_threads, &[]);
    assert!(
        output.status.success(),
        "sweep {tag} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let out = tmp.join(tag);
    (
        std::fs::read_to_string(out.join("sweep.csv")).expect("sweep.csv"),
        std::fs::read_to_string(out.join("summary.json")).expect("summary.json"),
    )
}

/// The `"best"` frontier portion of a summary (wall time and cache
/// counters legitimately vary run to run; the frontier must not).
fn best_of(summary: &str) -> &str {
    let start = summary
        .find("\"best\":")
        .expect("summary records a best frontier");
    &summary[start..]
}

#[test]
fn sweep_grid_is_independent_of_worker_count_and_profiling_path() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sweep-determinism");
    let _ = std::fs::remove_dir_all(&tmp);

    let (csv_serial, sum_serial) = run_sweep(&tmp, "jobs1", Some("1"), None);
    let (csv_pool, sum_pool) = run_sweep(&tmp, "env3", None, Some("3"));
    assert_eq!(
        csv_serial, csv_pool,
        "sweep rows changed between --jobs 1 and IGO_SIM_THREADS=3"
    );
    assert_eq!(best_of(&sum_serial), best_of(&sum_pool));

    assert_eq!(
        fnv1a(&csv_serial),
        SWEEP_CSV_FNV,
        "sweep.csv changed:\n{csv_serial}"
    );
    assert_eq!(
        fnv1a(best_of(&sum_serial)),
        BEST_FRONTIER_FNV,
        "best frontier changed: {}",
        best_of(&sum_serial)
    );

    // A removed flag is rejected like any other unknown flag.
    let removed = spawn_sweep(&tmp, "removed-flag", Some("1"), None, &["--no-profile"]);
    assert_eq!(removed.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&removed.stderr).contains("unknown sweep flag"));

    let _ = std::fs::remove_dir_all(&tmp);
}
