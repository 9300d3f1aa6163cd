//! The schedule-variant taxonomy and its enumeration.

use std::fmt;

/// The four inter-loop schedule categories of paper Section IV.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Category {
    /// The original modular series of loops (Fig. 7): per direction, a
    /// full-box face pass, a flux pass, then an accumulation pass.
    Series,
    /// Face loops shifted and fused with the cell loops in all three
    /// dimensions (Fig. 8a).
    ShiftFuse,
    /// Shift-fuse plus tiling, executed in wavefronts of tiles
    /// (Fig. 8b). "Blocked WF" in the paper's legends.
    BlockedWavefront,
    /// Overlapped (communication-avoiding) tiles: tiles recompute their
    /// surface fluxes and become fully independent (Fig. 8c). "OT" in the
    /// paper's legends.
    OverlappedTile,
}

impl Category {
    /// All categories.
    pub const ALL: [Category; 4] = [
        Category::Series,
        Category::ShiftFuse,
        Category::BlockedWavefront,
        Category::OverlappedTile,
    ];

    /// Does this category take a tile size?
    pub fn tiled(self) -> bool {
        matches!(self, Category::BlockedWavefront | Category::OverlappedTile)
    }
}

/// Parallelization granularity.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Granularity {
    /// `P >= Box`: whole boxes are distributed over threads; the
    /// schedule inside each box runs serially.
    OverBoxes,
    /// `P < Box`: parallelism inside each box (z-slices for the series
    /// schedules, wavefront members for the fused/tiled schedules,
    /// independent tiles for overlapped tiling); boxes run one after
    /// another.
    WithinBox,
}

/// Placement of the component loop relative to the spatial loops.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CompLoop {
    /// CLO: component loop outside — each component sweeps the box
    /// separately; the face velocity is kept in an explicit temporary.
    Outside,
    /// CLI: component loop inside — all five components are processed
    /// per face/cell; temporaries gain a component dimension.
    Inside,
}

impl CompLoop {
    /// Component depth of the co-dimension flux caches: CLI caches carry
    /// all `NCOMP` components per face, CLO caches one at a time. This is
    /// the single chunking rule every lowering uses to size cache planes.
    pub fn cache_components(self) -> usize {
        match self {
            CompLoop::Outside => 1,
            CompLoop::Inside => pdesched_kernels::NCOMP,
        }
    }
}

/// Why a [`Variant`] cannot execute on a box of a given minimum edge
/// length. Produced by [`Variant::validate_for_box`]; `Display` renders
/// as `variant <name> invalid for box size <n>: <reason>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvalidVariant {
    /// The rejected variant's legend name.
    pub variant: String,
    /// The minimum box edge length it was checked against.
    pub box_size: i32,
    /// Human-readable rule that failed.
    pub reason: String,
}

impl fmt::Display for InvalidVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "variant {} invalid for box size {}: {}",
            self.variant, self.box_size, self.reason
        )
    }
}

impl std::error::Error for InvalidVariant {}

/// Intra-tile schedule for overlapped tiles.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum IntraTile {
    /// "Basic-Sched": the series-of-loops schedule restricted to the
    /// tile, with tile-local face temporaries.
    Basic,
    /// "Shift-Fuse": the fused schedule inside each tile.
    ShiftFuse,
    /// Hierarchical overlapped tiling (an extension in the spirit of
    /// Zhou et al. [50], cited in the paper's related work): the outer
    /// tiles recompute their surface as usual, while each outer tile is
    /// internally swept as serial *inner* tiles of this size through the
    /// co-dimension flux caches — recomputation only at the outer
    /// surface, inner-tile temporal locality inside.
    Hierarchical(i32),
}

/// One fully-specified schedule variant.
///
/// ```
/// use pdesched_core::{Variant, IntraTile, Granularity};
/// let v = Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::WithinBox);
/// assert_eq!(v.name(), "Shift-Fuse OT-8: P<Box");
/// assert!(v.valid_for_box(128));
/// assert!(!v.valid_for_box(8)); // tile must be smaller than the box
/// // The paper's sampled space for 128^3 boxes:
/// assert_eq!(Variant::enumerate(128).len(), 40);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Variant {
    /// Schedule category.
    pub category: Category,
    /// Parallelization granularity.
    pub gran: Granularity,
    /// Component-loop placement. For overlapped tiles this selects the
    /// intra-tile component placement (the paper only evaluates CLO
    /// there; CLI is provided as an extension).
    pub comp: CompLoop,
    /// Intra-tile schedule; only meaningful for
    /// [`Category::OverlappedTile`].
    pub intra: IntraTile,
    /// Tile edge length; required for the tiled categories, `None`
    /// otherwise.
    pub tile: Option<i32>,
}

impl Variant {
    /// The paper's baseline: series of loops, parallel over boxes,
    /// component loop outside.
    pub fn baseline() -> Variant {
        Variant {
            category: Category::Series,
            gran: Granularity::OverBoxes,
            comp: CompLoop::Outside,
            intra: IntraTile::Basic,
            tile: None,
        }
    }

    /// "Shift-Fuse: P>=Box" — fused loops, parallel over boxes, CLO.
    pub fn shift_fuse() -> Variant {
        Variant { category: Category::ShiftFuse, ..Variant::baseline() }
    }

    /// A blocked-wavefront variant with the given component placement and
    /// tile size, parallel over tiles within each box.
    pub fn blocked_wavefront(comp: CompLoop, tile: i32) -> Variant {
        Variant {
            category: Category::BlockedWavefront,
            gran: Granularity::WithinBox,
            comp,
            intra: IntraTile::Basic,
            tile: Some(tile),
        }
    }

    /// An overlapped-tile variant.
    pub fn overlapped(intra: IntraTile, tile: i32, gran: Granularity) -> Variant {
        Variant {
            category: Category::OverlappedTile,
            gran,
            comp: CompLoop::Outside,
            intra,
            tile: Some(tile),
        }
    }

    /// A hierarchical overlapped-tile variant (extension): outer
    /// overlapped tiles of size `outer`, swept internally as serial
    /// wavefront-ordered inner tiles of size `inner`.
    pub fn hierarchical(outer: i32, inner: i32, gran: Granularity) -> Variant {
        assert!(inner >= 1 && inner < outer);
        Variant {
            category: Category::OverlappedTile,
            gran,
            comp: CompLoop::Outside,
            intra: IntraTile::Hierarchical(inner),
            tile: Some(outer),
        }
    }

    /// The serial schedule one tile of this overlapped-tile variant runs,
    /// with the same component placement: Basic-Sched tiles run the
    /// series of loops, Shift-Fuse tiles the serial fused sweep, and
    /// hierarchical tiles a blocked wavefront of their inner tile (which
    /// may be 1, so the result is not necessarily
    /// [`valid_for_box`](Variant::valid_for_box)). Panics for the other
    /// categories.
    pub fn tile_schedule(&self) -> Variant {
        assert_eq!(self.category, Category::OverlappedTile, "{self} has no intra-tile schedule");
        let (category, tile) = match self.intra {
            IntraTile::Basic => (Category::Series, None),
            IntraTile::ShiftFuse => (Category::ShiftFuse, None),
            IntraTile::Hierarchical(inner) => (Category::BlockedWavefront, Some(inner)),
        };
        Variant {
            category,
            gran: Granularity::OverBoxes,
            comp: self.comp,
            intra: IntraTile::Basic,
            tile,
        }
    }

    /// The tile size, panicking for untiled categories.
    pub fn tile_size(&self) -> i32 {
        self.tile.expect("untiled variant has no tile size")
    }

    /// Is this variant executable for boxes of size `n`? Every variant
    /// requires `n >= 1`; tiled variants require `tile < n` (a tile
    /// covering the whole box degenerates to the untiled schedule), and
    /// tile sizes must divide nothing in particular — edge tiles are
    /// handled.
    pub fn valid_for_box(&self, n: i32) -> bool {
        self.validate_for_box(n).is_ok()
    }

    /// Like [`Variant::valid_for_box`] but explains *why* a variant is
    /// rejected, so sweeps can record skipped points instead of relying
    /// on callers pre-filtering.
    pub fn validate_for_box(&self, n: i32) -> Result<(), InvalidVariant> {
        let reject = |reason: String| {
            // `name()` needs a tile for tiled categories; fall back for
            // the malformed-variant rejections below.
            let variant = if self.category.tiled() && self.tile.is_none() {
                format!("{:?} (untiled)", self.category)
            } else {
                self.name()
            };
            Err(InvalidVariant { variant, box_size: n, reason })
        };
        if n < 1 {
            return reject("box size must be at least 1".into());
        }
        if let IntraTile::Hierarchical(inner) = self.intra {
            if self.category != Category::OverlappedTile {
                return reject("hierarchical intra-tile schedules require overlapped tiles".into());
            }
            return match self.tile {
                Some(_) if inner < 1 => reject(format!("inner tile {inner} must be at least 1")),
                Some(outer) if inner >= outer => {
                    reject(format!("inner tile {inner} must be smaller than outer tile {outer}"))
                }
                Some(outer) if outer >= n => {
                    reject(format!("outer tile {outer} must be smaller than the box"))
                }
                Some(_) => Ok(()),
                None => reject("tiled category needs a tile size".into()),
            };
        }
        match (self.category.tiled(), self.tile) {
            (true, Some(t)) if t < 2 => reject(format!("tile {t} must be at least 2")),
            (true, Some(t)) if t >= n => reject(format!("tile {t} must be smaller than the box")),
            (true, Some(_)) => Ok(()),
            (true, None) => reject("tiled category needs a tile size".into()),
            (false, Some(t)) => reject(format!("untiled category must not carry a tile ({t})")),
            (false, None) => Ok(()),
        }
    }

    /// Enumerate the practical variant space for box size `n`, the
    /// cross-product the paper samples its ~30 experiments from:
    /// tile sizes {4, 8, 16, 32} strictly smaller than the box, CLO/CLI
    /// everywhere except overlapped tiles (CLO only, matching the paper's
    /// pruning: "overlapped tiles did not use the component loops on the
    /// inside because the untiled component-loop-inside variants were
    /// slower").
    pub fn enumerate(n: i32) -> Vec<Variant> {
        let mut out = Vec::new();
        let grans = [Granularity::OverBoxes, Granularity::WithinBox];
        let comps = [CompLoop::Outside, CompLoop::Inside];
        let tiles: Vec<i32> = [4, 8, 16, 32].into_iter().filter(|&t| t < n).collect();
        for gran in grans {
            for comp in comps {
                out.push(Variant {
                    category: Category::Series,
                    gran,
                    comp,
                    intra: IntraTile::Basic,
                    tile: None,
                });
                out.push(Variant {
                    category: Category::ShiftFuse,
                    gran,
                    comp,
                    intra: IntraTile::Basic,
                    tile: None,
                });
                for &t in &tiles {
                    out.push(Variant {
                        category: Category::BlockedWavefront,
                        gran,
                        comp,
                        intra: IntraTile::Basic,
                        tile: Some(t),
                    });
                }
            }
            for intra in [IntraTile::Basic, IntraTile::ShiftFuse] {
                for &t in &tiles {
                    out.push(Variant {
                        category: Category::OverlappedTile,
                        gran,
                        comp: CompLoop::Outside,
                        intra,
                        tile: Some(t),
                    });
                }
            }
        }
        out
    }

    /// The variant space extended beyond the paper's sampled set:
    /// everything in [`Variant::enumerate`] plus CLI overlapped tiles
    /// (which the paper pruned) and hierarchical overlapped tiles (an
    /// extension after Zhou et al.).
    pub fn enumerate_extended(n: i32) -> Vec<Variant> {
        let mut out = Variant::enumerate(n);
        let tiles: Vec<i32> = [4, 8, 16, 32].into_iter().filter(|&t| t < n).collect();
        for gran in [Granularity::OverBoxes, Granularity::WithinBox] {
            for &t in &tiles {
                for intra in [IntraTile::Basic, IntraTile::ShiftFuse] {
                    out.push(Variant {
                        category: Category::OverlappedTile,
                        gran,
                        comp: CompLoop::Inside,
                        intra,
                        tile: Some(t),
                    });
                }
                for &inner in &tiles {
                    if inner < t {
                        out.push(Variant::hierarchical(t, inner, gran));
                    }
                }
            }
        }
        out
    }

    /// A short name in the style of the paper's figure legends, e.g.
    /// `"Baseline: P>=Box"`, `"Shift-Fuse OT-8: P<Box"`,
    /// `"Blocked WF-CLO-16: P<Box"`.
    pub fn name(&self) -> String {
        let gran = match self.gran {
            Granularity::OverBoxes => "P>=Box",
            Granularity::WithinBox => "P<Box",
        };
        let cl = match self.comp {
            CompLoop::Outside => "CLO",
            CompLoop::Inside => "CLI",
        };
        match self.category {
            Category::Series => {
                if self.comp == CompLoop::Outside {
                    format!("Baseline: {gran}")
                } else {
                    format!("Baseline-CLI: {gran}")
                }
            }
            Category::ShiftFuse => {
                if self.comp == CompLoop::Outside {
                    format!("Shift-Fuse: {gran}")
                } else {
                    format!("Shift-Fuse-CLI: {gran}")
                }
            }
            Category::BlockedWavefront => {
                format!("Blocked WF-{cl}-{}: {gran}", self.tile_size())
            }
            Category::OverlappedTile => match self.intra {
                IntraTile::Basic => format!("Basic-Sched OT-{}: {gran}", self.tile_size()),
                IntraTile::ShiftFuse => format!("Shift-Fuse OT-{}: {gran}", self.tile_size()),
                IntraTile::Hierarchical(inner) => {
                    format!("Hier OT-{}/{}: {gran}", self.tile_size(), inner)
                }
            },
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_size_matches_taxonomy() {
        // For n=128 all four tile sizes apply:
        // series: 2 gran x 2 comp = 4
        // shift-fuse: 4
        // blocked WF: 2 x 2 x 4 = 16
        // OT: 2 gran x 2 intra x 4 tiles = 16
        let v = Variant::enumerate(128);
        assert_eq!(v.len(), 40);
        // n=16: tiles {4, 8} only.
        let v16 = Variant::enumerate(16);
        assert_eq!(v16.len(), 8 + 8 + 8);
        // All valid for their box size; all distinct.
        for x in &v {
            assert!(x.valid_for_box(128), "{x}");
        }
        let mut set = std::collections::HashSet::new();
        for x in v {
            assert!(set.insert(x));
        }
    }

    #[test]
    fn tile_schedule_is_the_serial_intra_tile_variant() {
        let gran = Granularity::WithinBox;
        let cli = |v: Variant| Variant { comp: CompLoop::Inside, ..v };
        assert_eq!(
            cli(Variant::overlapped(IntraTile::Basic, 8, gran)).tile_schedule(),
            cli(Variant::baseline())
        );
        assert_eq!(
            Variant::overlapped(IntraTile::ShiftFuse, 8, gran).tile_schedule(),
            Variant::shift_fuse()
        );
        // An inner tile of 1 is a valid hierarchical tiling but no valid
        // blocked wavefront on its own.
        let inner = Variant::hierarchical(4, 1, gran).tile_schedule();
        assert_eq!(
            inner,
            Variant {
                gran: Granularity::OverBoxes,
                ..Variant::blocked_wavefront(CompLoop::Outside, 1)
            }
        );
        assert!(!inner.valid_for_box(4));
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Variant::baseline().name(), "Baseline: P>=Box");
        assert_eq!(Variant::shift_fuse().name(), "Shift-Fuse: P>=Box");
        assert_eq!(
            Variant::blocked_wavefront(CompLoop::Outside, 16).name(),
            "Blocked WF-CLO-16: P<Box"
        );
        assert_eq!(
            Variant::blocked_wavefront(CompLoop::Inside, 4).name(),
            "Blocked WF-CLI-4: P<Box"
        );
        assert_eq!(
            Variant::overlapped(IntraTile::ShiftFuse, 8, Granularity::WithinBox).name(),
            "Shift-Fuse OT-8: P<Box"
        );
        assert_eq!(
            Variant::overlapped(IntraTile::Basic, 16, Granularity::OverBoxes).name(),
            "Basic-Sched OT-16: P>=Box"
        );
    }

    #[test]
    fn hierarchical_extension() {
        let h = Variant::hierarchical(16, 4, Granularity::WithinBox);
        assert_eq!(h.name(), "Hier OT-16/4: P<Box");
        assert!(h.valid_for_box(128));
        assert!(!h.valid_for_box(16)); // outer must be < box
        let bad = Variant { intra: IntraTile::Hierarchical(16), ..h };
        assert!(!bad.valid_for_box(128)); // inner must be < outer
                                          // Extended enumeration adds CLI OT and hierarchical variants.
        let base = Variant::enumerate(128).len();
        let ext = Variant::enumerate_extended(128);
        assert!(ext.len() > base + 10);
        for v in &ext {
            assert!(v.valid_for_box(128), "{v}");
        }
        let mut set = std::collections::HashSet::new();
        for v in ext {
            assert!(set.insert(v), "duplicate variant");
        }
    }

    #[test]
    fn validity_rules() {
        let mut wf = Variant::blocked_wavefront(CompLoop::Outside, 16);
        assert!(wf.valid_for_box(128));
        assert!(!wf.valid_for_box(16)); // tile must be < box
        wf.tile = None;
        assert!(!wf.valid_for_box(128)); // tiled category needs a tile
        assert!(Variant::baseline().valid_for_box(16));
        let mut b = Variant::baseline();
        b.tile = Some(8);
        assert!(!b.valid_for_box(128)); // untiled category must not carry one
    }

    #[test]
    #[should_panic(expected = "untiled")]
    fn tile_size_panics_for_untiled() {
        let _ = Variant::baseline().tile_size();
    }

    #[test]
    fn validate_explains_rejections() {
        let wf = Variant::blocked_wavefront(CompLoop::Outside, 16);
        let err = wf.validate_for_box(16).unwrap_err();
        assert_eq!(err.box_size, 16);
        assert!(err.to_string().contains("invalid for box size 16"), "{err}");
        assert!(err.reason.contains("smaller than the box"), "{err}");
        assert!(wf.validate_for_box(128).is_ok());
        let h = Variant {
            intra: IntraTile::Hierarchical(16),
            ..Variant::hierarchical(16, 4, Granularity::WithinBox)
        };
        assert!(h.validate_for_box(128).unwrap_err().reason.contains("inner tile"));
        let mut b = Variant::baseline();
        b.tile = Some(8);
        assert!(b.validate_for_box(128).unwrap_err().reason.contains("untiled"));
    }

    #[test]
    fn non_positive_box_sizes_are_rejected() {
        for v in [Variant::baseline(), Variant::blocked_wavefront(CompLoop::Outside, 4)] {
            for n in [0, -4] {
                let err = v.validate_for_box(n).unwrap_err();
                assert_eq!(err.box_size, n);
                assert!(err.reason.contains("at least 1"), "{err}");
            }
            assert!(v.valid_for_box(8));
        }
        assert!(Variant::baseline().valid_for_box(1));
    }

    #[test]
    fn cache_component_depth() {
        assert_eq!(CompLoop::Outside.cache_components(), 1);
        assert_eq!(CompLoop::Inside.cache_components(), pdesched_kernels::NCOMP);
    }
}
