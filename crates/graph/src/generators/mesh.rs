//! d-dimensional meshes and tori, with coordinate arithmetic.
//!
//! The d-dimensional mesh is the paper's flagship application: Theorem
//! 3.6 proves its span is 2, and §4 connects it to CAN-style
//! peer-to-peer overlays. [`MeshShape`] exposes the id ↔ coordinate
//! maps that the span machinery (virtual edges of Lemma 3.7) needs.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::node::NodeId;

/// Shape of a d-dimensional mesh/torus: side lengths per dimension.
///
/// Node ids are row-major: coordinate `c` maps to
/// `sum_i c[i] * stride[i]` with the *last* dimension contiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshShape {
    dims: Vec<usize>,
    strides: Vec<usize>,
    n: usize,
}

impl MeshShape {
    /// Creates a shape; every side must be ≥ 1.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "mesh needs at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "mesh sides must be >= 1");
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len() - 1).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        let n = dims.iter().product();
        MeshShape {
            dims: dims.to_vec(),
            strides,
            n,
        }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Side lengths.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Node id of `coords`.
    ///
    /// # Panics
    /// Panics if a coordinate is out of range.
    pub fn index(&self, coords: &[usize]) -> NodeId {
        assert_eq!(coords.len(), self.dims.len());
        let mut id = 0usize;
        for (i, &c) in coords.iter().enumerate() {
            assert!(c < self.dims[i], "coordinate {c} out of range in dim {i}");
            id += c * self.strides[i];
        }
        id as NodeId
    }

    /// Coordinates of node `id`.
    pub fn coords(&self, id: NodeId) -> Vec<usize> {
        let mut rem = id as usize;
        assert!(rem < self.n, "node {rem} outside mesh of {} nodes", self.n);
        self.dims
            .iter()
            .zip(&self.strides)
            .map(|(_, &s)| {
                let c = rem / s;
                rem %= s;
                c
            })
            .collect()
    }
}

fn build_lattice(dims: &[usize], wrap: bool) -> CsrGraph {
    let shape = MeshShape::new(dims);
    let n = shape.num_nodes();
    let mut b = GraphBuilder::with_capacity(n, n * dims.len());
    let mut coords = vec![0usize; dims.len()];
    for id in 0..n {
        for axis in 0..dims.len() {
            let side = dims[axis];
            let c = coords[axis];
            if c + 1 < side {
                let mut nb = coords.clone();
                nb[axis] = c + 1;
                b.add_edge(id as NodeId, shape.index(&nb));
            } else if wrap && side > 2 && c + 1 == side {
                // wraparound edge (skip for side <= 2: it would
                // duplicate the mesh edge or self-loop)
                let mut nb = coords.clone();
                nb[axis] = 0;
                b.add_edge(id as NodeId, shape.index(&nb));
            }
        }
        // increment row-major coordinates
        for axis in (0..dims.len()).rev() {
            coords[axis] += 1;
            if coords[axis] < dims[axis] {
                break;
            }
            coords[axis] = 0;
        }
    }
    b.build()
}

/// d-dimensional mesh (grid) with the given side lengths.
pub fn mesh(dims: &[usize]) -> CsrGraph {
    build_lattice(dims, false)
}

/// d-dimensional torus: mesh plus wraparound edges (sides ≤ 2 get no
/// wrap edge to keep the graph simple).
pub fn torus(dims: &[usize]) -> CsrGraph {
    build_lattice(dims, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::NodeSet;
    use crate::components::is_connected;

    #[test]
    fn shape_roundtrip() {
        let s = MeshShape::new(&[3, 4, 5]);
        assert_eq!(s.num_nodes(), 60);
        for id in 0..60u32 {
            assert_eq!(s.index(&s.coords(id)), id);
        }
        assert_eq!(s.coords(0), vec![0, 0, 0]);
        assert_eq!(s.coords(59), vec![2, 3, 4]);
    }

    #[test]
    fn mesh_2d_counts() {
        let g = mesh(&[4, 5]);
        assert_eq!(g.num_nodes(), 20);
        // edges: 3*5 vertical + 4*4 horizontal = 31
        assert_eq!(g.num_edges(), 31);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 2);
        assert!(is_connected(&g, &NodeSet::full(20)));
    }

    #[test]
    fn torus_2d_counts() {
        let g = torus(&[4, 5]);
        assert_eq!(g.num_edges(), 40); // 2n for 2-D torus
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn mesh_3d_degree_range() {
        let g = mesh(&[3, 3, 3]);
        assert_eq!(g.num_nodes(), 27);
        assert_eq!(g.max_degree(), 6); // center
        assert_eq!(g.min_degree(), 3); // corners
                                       // edge count: 3 * (2*3*3) = 54
        assert_eq!(g.num_edges(), 54);
    }

    #[test]
    fn degenerate_sides() {
        // side-1 dims are no-ops
        let g = mesh(&[1, 5]);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        // side-2 torus must not double edges
        let t = torus(&[2, 2]);
        assert_eq!(t.num_edges(), 4);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn mesh_neighbors_are_lattice_neighbors() {
        let s = MeshShape::new(&[4, 4]);
        let g = mesh(&[4, 4]);
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                let steps: Vec<usize> = s
                    .coords(v)
                    .iter()
                    .zip(s.coords(w).iter())
                    .map(|(&x, &y)| x.abs_diff(y))
                    .filter(|&d| d != 0)
                    .collect();
                assert_eq!(steps, vec![1]);
            }
        }
    }
}
