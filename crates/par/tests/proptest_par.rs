//! Property tests for the SPMD substrate's scheduling primitives
//! (seeded generator-driven cases; see `pdesched-testkit`).

use pdesched_par::static_block;
use pdesched_testkit::check;

/// Static blocks partition any range exactly, contiguously, and
/// balanced within one item.
#[test]
fn static_block_partition() {
    check(0x21, 48, |rng| {
        let n = rng.range_usize(1, 16);
        let total = rng.range_usize(0, 2000);
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        let mut sizes = Vec::new();
        for tid in 0..n {
            let r = static_block(tid, n, total);
            assert_eq!(r.start, prev_end);
            prev_end = r.end;
            sizes.push(r.len());
            covered += r.len();
        }
        assert_eq!(covered, total);
        assert_eq!(prev_end, total);
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "imbalance {max} vs {min}");
    });
}
