//! Hostile command lines end in a clean usage error (exit code 2) or a
//! normal run (exit code 0) — never in a panic (101), an abort (134) or a
//! run on a silently wrapped value.

use std::process::{Command, Output};

fn igo_sim(argv: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_igo-sim"))
        .args(argv)
        .output()
        .expect("igo-sim runs")
}

/// One row per hostile (or barely legal) command line of every
/// subcommand, with the exit code it must end in.
#[test]
fn every_subcommand_exits_0_or_2() {
    let out_dir = format!("{}/hostile-trace", env!("CARGO_TARGET_TMPDIR"));
    // `--out` naming a regular file fails before anything is simulated.
    let out_file = format!("{}/hostile-out-file", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&out_file, "").expect("create the regular file");
    let table: &[(&[&str], i32)] = &[
        (&[], 2),
        (&["bogus"], 2),
        (&["models"], 0),
        (&["models", "extra"], 2),
        (&["ladder"], 2),
        (&["ladder", "nope", "edge"], 2),
        (&["ladder", "ncf", "nope"], 2),
        (&["ladder", "ncf", "serverx0"], 2),
        (&["ladder", "ncf", "edge", "extra"], 2),
        (&["layer", "1", "1", "1", "edge"], 0),
        (&["layer", "1", "1", "1"], 2),
        (&["layer", "0", "1", "1", "edge"], 2),
        (&["layer", "-1", "1", "1", "edge"], 2),
        (&["layer", "18446744073709551616", "1", "1", "edge"], 2),
        (&["layer", "1", "1", "1", "serverx0"], 2),
        (&["layer", "100000000", "100000", "100000", "edge"], 2),
        (&["sweep"], 2),
        (&["sweep", "nope"], 2),
        (&["sweep", "ncf", "--spm"], 2),
        (&["sweep", "ncf", "--spm", "0"], 2),
        (&["sweep", "ncf", "--spm", "x"], 2),
        (&["sweep", "ncf", "--spm", "3", "--techniques", "nope"], 2),
        (&["sweep", "ncf", "--spm", "3", "--config", "serverx0"], 2),
        (&["sweep", "ncf", "--spm", "3", "--bogus"], 2),
        (&["sweep", "ncf", "--spm", "3", "--out", &out_file], 2),
        (&["audit", "--seeds", "x"], 2),
        (&["audit", "--seeds"], 2),
        (&["audit", "--seeds", "0"], 2),
        (&["audit", "--seed", "-1"], 2),
        (&["audit", "--bogus"], 2),
        (&["audit", "extra"], 2),
        (&["trace"], 2),
        (&["trace", "0x1x1", "edge"], 2),
        (&["trace", "1x2", "edge"], 2),
        (&["trace", "ncf", "nope"], 2),
        (&["trace", "ncf", "edge", "--technique", "nope"], 2),
        (&["trace", "ncf", "edge", "--out"], 2),
        (&["trace", "ncf", "edge", "--bogus"], 2),
        (&["trace", "100000000x100000x100000", "edge"], 2),
        (&["trace", "1x1x1", "edge", "--out", &out_dir], 0),
        (&["trace", "1x1x1", "edge", "--out", &out_file], 2),
        (&["--jobs"], 2),
        (&["--jobs", "0", "models"], 2),
        (&["--jobs", "x", "models"], 2),
        (&["--timing", "--timing", "models"], 0),
        (&["--jobs", "2", "layer", "1", "1", "1", "edge"], 0),
        // Above the worker ceiling: rejected while parsing, so no thread
        // starts.
        (&["--jobs", "100000", "sweep", "zoo"], 2),
        (&["--jobs", "257", "models"], 2),
        (&["--jobs", "256", "models"], 0),
    ];
    for &(argv, want) in table {
        let out = igo_sim(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(want), "{argv:?}: {stderr}");
        if want == 2 {
            assert!(out.stdout.is_empty(), "{argv:?} must not simulate");
        }
    }
}

/// An `IGO_SIM_THREADS` above the worker ceiling is rejected before any
/// pool starts, unless `--jobs` overrides it.
#[test]
fn oversized_thread_override_exits_2() {
    let argv = ["sweep", "zoo", "--spm", "3"];
    let out = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
        .args(argv)
        .env("IGO_SIM_THREADS", "100000")
        .output()
        .expect("igo-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
    assert!(stderr.contains("IGO_SIM_THREADS"), "{stderr}");
    assert!(out.stdout.is_empty(), "{argv:?} must not simulate");

    let out = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
        .args(["--jobs", "1", "models"])
        .env("IGO_SIM_THREADS", "100000")
        .output()
        .expect("igo-sim runs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn overflowing_spm_rungs_exit_2() {
    // 2^44 MiB is 2^64 bytes, which wraps to 0; 99999999999999 MiB wraps
    // to an unrelated size.
    for spm in ["17592186044416", "99999999999999", "3,17592186044416"] {
        let argv = ["sweep", "ncf", "--spm", spm];
        let out = igo_sim(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("--spm"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} must not simulate");
    }
}
