//! Three-dimensional domains, used by cutcp's potential grid.

use triolet_serial::wire_struct;

use crate::part::Part;
use crate::split::chunk_ranges;
use crate::Domain;

/// A dense three-dimensional iteration space of `nx x ny x nz` points.
/// Indices are `(x, y, z)` triples enumerated with `z` innermost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Default)]
pub struct Dim3 {
    /// Outermost extent.
    pub nx: usize,
    /// Middle extent.
    pub ny: usize,
    /// Innermost extent.
    pub nz: usize,
}

impl Dim3 {
    /// Domain over `nx x ny x nz` points.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Dim3 { nx, ny, nz }
    }
}

/// A box-shaped part of a [`Dim3`] domain: slabs along the outermost axis
/// crossed with full extent in `y`/`z` (sufficient for grid distribution —
/// slab decomposition is what cutcp-style grid codes use).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Dim3Part {
    /// First x-plane of the slab.
    pub x0: usize,
    /// Number of x-planes.
    pub nx: usize,
    /// Full y extent of the parent domain.
    pub ny: usize,
    /// Full z extent of the parent domain.
    pub nz: usize,
}

impl Dim3Part {
    /// Slab covering x-planes `x0 .. x0+nx` at full `ny x nz` extent.
    pub fn new(x0: usize, nx: usize, ny: usize, nz: usize) -> Self {
        Dim3Part { x0, nx, ny, nz }
    }
}

impl Part for Dim3Part {
    type Index = (usize, usize, usize);

    fn count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn index_at(&self, k: usize) -> (usize, usize, usize) {
        debug_assert!(k < self.count());
        let plane = self.ny * self.nz;
        let x = self.x0 + k / plane;
        let rem = k % plane;
        (x, rem / self.nz, rem % self.nz)
    }

    fn split(&self, n: usize) -> Vec<Self> {
        chunk_ranges(self.nx, n)
            .into_iter()
            .map(|(off, l)| Dim3Part::new(self.x0 + off, l, self.ny, self.nz))
            .collect()
    }

    fn split_half(&self) -> Option<(Self, Self)> {
        if self.nx < 2 {
            return None;
        }
        let mid = self.nx / 2;
        Some((
            Dim3Part::new(self.x0, mid, self.ny, self.nz),
            Dim3Part::new(self.x0 + mid, self.nx - mid, self.ny, self.nz),
        ))
    }
}

impl Domain for Dim3 {
    type Index = (usize, usize, usize);
    type Part = Dim3Part;

    fn count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    fn index_at(&self, k: usize) -> (usize, usize, usize) {
        debug_assert!(k < self.count());
        let plane = self.ny * self.nz;
        (k / plane, (k % plane) / self.nz, k % self.nz)
    }

    fn linear_of(&self, (x, y, z): (usize, usize, usize)) -> usize {
        (x * self.ny + y) * self.nz + z
    }

    fn contains(&self, (x, y, z): (usize, usize, usize)) -> bool {
        x < self.nx && y < self.ny && z < self.nz
    }

    fn intersect(&self, other: &Self) -> Self {
        Dim3::new(self.nx.min(other.nx), self.ny.min(other.ny), self.nz.min(other.nz))
    }

    fn whole_part(&self) -> Dim3Part {
        Dim3Part::new(0, self.nx, self.ny, self.nz)
    }

    fn split_parts(&self, n: usize) -> Vec<Dim3Part> {
        self.whole_part().split(n)
    }
}

wire_struct!(Dim3 { nx, ny, nz });

wire_struct!(Dim3Part { x0, nx, ny, nz });

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use triolet_serial::{packed, unpack_all};

    #[test]
    fn linearization_bijection() {
        let d = Dim3::new(3, 4, 5);
        for k in 0..d.count() {
            let idx = d.index_at(k);
            assert!(d.contains(idx));
            assert_eq!(d.linear_of(idx), k);
        }
    }

    #[test]
    fn z_is_innermost() {
        let d = Dim3::new(2, 2, 2);
        assert_eq!(d.index_at(0), (0, 0, 0));
        assert_eq!(d.index_at(1), (0, 0, 1));
        assert_eq!(d.index_at(2), (0, 1, 0));
        assert_eq!(d.index_at(4), (1, 0, 0));
    }

    #[test]
    fn slabs_partition_domain() {
        let d = Dim3::new(7, 3, 2);
        let parts = d.split_parts(3);
        let mut seen = HashSet::new();
        for p in &parts {
            for idx in p.indices() {
                assert!(seen.insert(idx));
            }
        }
        assert_eq!(seen.len(), d.count());
    }

    #[test]
    fn slab_enumeration_matches_domain_subset() {
        let d = Dim3::new(4, 2, 3);
        let p = Dim3Part::new(1, 2, 2, 3);
        let expect: Vec<_> =
            (0..d.count()).map(|k| d.index_at(k)).filter(|&(x, _, _)| x == 1 || x == 2).collect();
        assert_eq!(p.indices(), expect);
    }

    #[test]
    fn intersect_pointwise_min() {
        assert_eq!(Dim3::new(3, 9, 5).intersect(&Dim3::new(7, 2, 5)), Dim3::new(3, 2, 5));
    }

    #[test]
    fn split_half() {
        let p = Dim3Part::new(0, 5, 2, 2);
        let (a, b) = p.split_half().unwrap();
        assert_eq!(a.count() + b.count(), 20);
        assert!(Dim3Part::new(0, 1, 4, 4).split_half().is_none());
    }

    #[test]
    fn wire_roundtrip() {
        let d = Dim3::new(2, 3, 4);
        assert_eq!(unpack_all::<Dim3>(packed(&d)).unwrap(), d);
        let p = Dim3Part::new(1, 1, 3, 4);
        assert_eq!(unpack_all::<Dim3Part>(packed(&p)).unwrap(), p);
    }
}
