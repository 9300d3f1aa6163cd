//! The fallback (O_EXCL, flock-less) store lock under two contending
//! *processes*, the deployment that path serves.
//!
//! A test binary of its own, on purpose: the race test forks children
//! of this process, and a forked child holds a copy of every descriptor
//! the process has open until its `exec`. Next to tests that hold
//! `flock`ed store locks (`fault_injection.rs`) that copy keeps a
//! dropped lock alive for a moment, and the next open of that store
//! comes up read-only — which failed `store_truncated_at_every_byte_…`
//! and `single_writer_second_cache_is_read_only` about one run in four.
//! Nothing here takes an `flock`.

use pdesched_machine::traffic;
use pdesched_testkit::TempDir;

/// Helper for the two-process steal test below: a child process re-runs
/// this test binary filtered to this "test", which races one fallback
/// (O_EXCL, flock-less) lock acquisition and reports the verdict on
/// stdout. A plain run (no env var) is a no-op pass.
#[test]
fn fallback_lock_contender_helper() {
    let Some(lock) = std::env::var_os("PDESCHED_FALLBACK_LOCK") else {
        return;
    };
    let lock = std::path::PathBuf::from(lock);
    match traffic::try_acquire_lock_fallback(&lock) {
        Some(_held) => {
            println!("VERDICT=ACQUIRED");
            // Hold the lock long enough that the loser's attempt fully
            // overlaps; the file outlives us (conceders never unlink).
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
        None => println!("VERDICT=CONCEDED"),
    }
}

/// Regression for the fallback-lock steal race (two *processes*, the
/// deployment the fallback path actually serves): both contenders see
/// the same dead holder's lock file, both enter the steal path, and the
/// re-verify-after-write step must let exactly one keep the lock —
/// never zero, never both.
#[test]
fn fallback_lock_steal_race_grants_exactly_one_process() {
    let exe = std::env::current_exe().unwrap();
    for round in 0..5 {
        let dir = TempDir::new("fallback2p");
        let lock = dir.file("t.txt.lock");
        std::fs::write(&lock, "4294967295").unwrap(); // dead holder
        let children: Vec<std::process::Child> = (0..2)
            .map(|_| {
                std::process::Command::new(&exe)
                    .args(["--exact", "fallback_lock_contender_helper", "--nocapture"])
                    .env("PDESCHED_FALLBACK_LOCK", &lock)
                    .stdout(std::process::Stdio::piped())
                    .spawn()
                    .unwrap()
            })
            .collect();
        let verdicts: Vec<String> = children
            .into_iter()
            .map(|c| String::from_utf8(c.wait_with_output().unwrap().stdout).unwrap())
            .collect();
        let acquired = verdicts.iter().filter(|v| v.contains("VERDICT=ACQUIRED")).count();
        let conceded = verdicts.iter().filter(|v| v.contains("VERDICT=CONCEDED")).count();
        assert_eq!(acquired + conceded, 2, "round {round}: {verdicts:?}");
        assert_eq!(acquired, 1, "round {round}: exactly one steal may win: {verdicts:?}");
        // The winner's pid is what the lock file records.
        let content = std::fs::read_to_string(&lock).unwrap();
        assert!(content.trim().parse::<u32>().is_ok(), "round {round}: {content:?}");
    }
}
