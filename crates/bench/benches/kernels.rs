//! Microbenchmarks of the exemplar's building blocks: the three point
//! kernels applied over whole boxes, per direction (the unit-stride x
//! direction vs the strided y/z directions is the spatial-locality story
//! of Section IV-A).

use pdesched_bench::box_pair;
use pdesched_bench::harness::Group;
use pdesched_kernels::boxops::{accumulate_dir, eval_flux1};
use pdesched_kernels::NCOMP;
use pdesched_mesh::FArrayBox;

fn bench_flux1() {
    let n = 64;
    let (phi0, _, cells) = box_pair(n, 17);
    let group = Group::new("eval_flux1_64cubed", 20);
    for d in 0..3 {
        let faces = cells.surrounding_faces(d);
        let mut out = FArrayBox::new(faces, NCOMP);
        group.bench(&format!("dir/{d}"), || eval_flux1(&phi0, d, faces, &mut out, 0..NCOMP));
    }
}

fn bench_accumulate() {
    let n = 64;
    let (_, mut phi1, cells) = box_pair(n, 19);
    let group = Group::new("accumulate_64cubed", 20);
    for d in 0..3 {
        let faces = cells.surrounding_faces(d);
        let mut flux = FArrayBox::new(faces, NCOMP);
        flux.fill_synthetic(23);
        group.bench(&format!("dir/{d}"), || accumulate_dir(&mut phi1, &flux, d, cells, 0..NCOMP));
    }
}

fn main() {
    bench_flux1();
    bench_accumulate();
}
