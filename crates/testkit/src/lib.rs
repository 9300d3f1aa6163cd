//! Deterministic randomized-testing support.
//!
//! The property suites originally used `proptest`; this workspace builds
//! in offline environments, so the same generator-driven style is kept
//! with a zero-dependency SplitMix64 PRNG and a fixed per-test seed:
//! every run explores the identical case matrix, and a failing case
//! prints the `(test seed, case index)` pair needed to replay it.
//!
//! Two more robustness-testing primitives live here: [`FaultPlan`], a
//! deterministic fault-injection plan (panic on simulation k, fail
//! every nth append, truncate after byte b) threaded through pool jobs
//! and store I/O by the fault-tolerance tests, and [`TempDir`], an RAII
//! scratch-directory guard that cannot leak files on assertion failure
//! or collide across concurrent test binaries.

pub mod fault;
pub mod tempdir;

pub use fault::{FaultPlan, SocketFault};
pub use tempdir::TempDir;

/// The lines of a `#`-commented text file, comments dropped, sorted:
/// what an order-independent comparison of two line-oriented stores
/// (append order varies with scheduling) compares.
pub fn sorted_lines(path: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines: Vec<String> =
        text.lines().filter(|l| !l.starts_with('#')).map(String::from).collect();
    lines.sort();
    lines
}

/// SplitMix64: tiny, statistically solid, and stable across platforms —
/// exactly what reproducible test-case generation needs.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded for one test (pick any constant per test).
    pub fn new(seed: u64) -> Self {
        Rng { state: seed.wrapping_add(0x9e3779b97f4a7c15) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`. Panics when the range is empty.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi as i64 - lo as i64) as u64;
        lo + (self.next_u64() % span) as i32
    }

    /// Uniform in `[lo, hi)`. Panics when the range is empty.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// A uniformly random bool.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// A vector of `len` draws from `f` where `len` is uniform in
    /// `[min_len, max_len)`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let len = self.range_usize(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }
}

/// Run `cases` generated cases. Each case gets an independent generator
/// derived from `(seed, case index)`, so cases are reorder-stable and a
/// failure names the case that produced it.
pub fn check(seed: u64, cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let mut rng = Rng::new(seed ^ case.wrapping_mul(0xa076_1d64_78bd_642f));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = r {
            eprintln!("[testkit] failing case: seed={seed} case={case}/{cases}");
            std::panic::resume_unwind(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let v = r.range_i32(-5, 17);
            assert!((-5..17).contains(&v));
            let u = r.range_usize(3, 9);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn range_hits_every_value() {
        let mut r = Rng::new(2);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn check_runs_all_cases() {
        let mut n = 0;
        check(3, 25, |_| n += 1);
        assert_eq!(n, 25);
    }
}
