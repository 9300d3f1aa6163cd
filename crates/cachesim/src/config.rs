//! Cache-level configuration.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (must match across levels of one hierarchy).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl CacheConfig {
    /// A level with the given size (bytes), 64-byte lines, and
    /// associativity.
    pub const fn new(size: usize, assoc: usize) -> Self {
        CacheConfig { size, line: 64, assoc }
    }

    /// Effective capacity in lines (`sets × assoc`): the most distinct
    /// lines the level can hold at once.
    pub fn lines(&self) -> usize {
        self.size / self.line
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        let s = self.size / (self.line * self.assoc);
        assert!(s >= 1, "cache smaller than one set");
        s
    }

    /// Validate the geometry: everything a power of two, at least one
    /// set.
    pub fn validate(&self) {
        assert!(self.line.is_power_of_two(), "line size must be a power of two");
        assert!(self.size.is_multiple_of(self.line * self.assoc), "size must be sets*ways*line");
        assert!(self.sets().is_power_of_two(), "set count must be a power of two");
    }

    /// Scale the capacity by `num/den` (e.g. the per-thread share of a
    /// shared LLC), keeping line and associativity, rounding the set
    /// count down to a power of two (at least one set).
    pub fn scaled(&self, num: usize, den: usize) -> CacheConfig {
        let target_sets = (self.sets() * num / den).max(1);
        let sets = if target_sets.is_power_of_two() {
            target_sets
        } else {
            target_sets.next_power_of_two() / 2
        };
        CacheConfig { size: sets * self.line * self.assoc, line: self.line, assoc: self.assoc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_computed() {
        let c = CacheConfig::new(32 * 1024, 8);
        assert_eq!(c.sets(), 64);
        c.validate();
    }

    #[test]
    fn scaled_rounds_to_power_of_two() {
        let c = CacheConfig::new(1 << 20, 16); // 1024 sets
        assert_eq!(c.scaled(1, 2).sets(), 512);
        assert_eq!(c.scaled(1, 3).sets(), 256); // 341 -> 256
        assert_eq!(c.scaled(1, 1024).sets(), 1);
        assert_eq!(c.scaled(1, 100_000).sets(), 1);
        c.scaled(1, 3).validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        CacheConfig { size: 3 * 64 * 4, line: 64, assoc: 4 }.validate();
    }
}
