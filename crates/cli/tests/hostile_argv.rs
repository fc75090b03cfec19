//! Hostile command lines end in a clean usage error (exit code 2), never
//! in a panic or in a run on a silently wrapped value.

use std::process::Command;

#[test]
fn overflowing_spm_rungs_exit_2() {
    // 2^44 MiB is 2^64 bytes, which wraps to 0; 99999999999999 MiB wraps
    // to an unrelated size.
    for spm in ["17592186044416", "99999999999999", "3,17592186044416"] {
        let argv = ["sweep", "ncf", "--spm", spm];
        let out = Command::new(env!("CARGO_BIN_EXE_igo-sim"))
            .args(argv)
            .output()
            .expect("igo-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("--spm"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} must not simulate");
    }
}
