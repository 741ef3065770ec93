//! Breadth-first traversal, connectivity, and distance utilities.

use std::collections::VecDeque;

use crate::csr::{Graph, NodeId};

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `source`; unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    if g.node_count() == 0 {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in g.neighbor_nodes(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Labels each node with a component id in `0..k`; returns the labels.
pub fn component_labels(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let mut label = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n as NodeId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbor_nodes(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components (0 for the empty graph).
pub fn connected_components(g: &Graph) -> usize {
    component_labels(g)
        .iter()
        .max()
        .map(|&m| m as usize + 1)
        .unwrap_or(0)
}

/// Eccentricity of `source`: the maximum BFS distance to any reachable node.
pub fn eccentricity(g: &Graph, source: NodeId) -> u32 {
    bfs_distances(g, source)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Exact diameter via all-sources BFS.
///
/// Quadratic in the graph size; intended for the small instances used in
/// tests and spectral sanity checks. Returns 0 for graphs with fewer than
/// two nodes and `None` for disconnected graphs.
pub fn diameter(g: &Graph) -> Option<u32> {
    if !g.is_connected() {
        return None;
    }
    Some(
        (0..g.node_count() as NodeId)
            .map(|v| eccentricity(g, v))
            .max()
            .unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_nodes_flagged() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn component_counts() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 3).unwrap();
        let g = b.build();
        assert_eq!(connected_components(&g), 4); // {0,1},{2,3},{4},{5}
        let labels = component_labels(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::path(5)), Some(4));
        assert_eq!(diameter(&generators::complete(7)), Some(1));
        assert_eq!(diameter(&generators::torus2d(4, 4)), Some(4));
        assert_eq!(diameter(&generators::hypercube(5)), Some(5));
    }

    #[test]
    fn diameter_none_for_disconnected() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        assert_eq!(diameter(&b.build()), None);
    }

    #[test]
    fn eccentricity_center_vs_leaf() {
        let g = generators::path(9);
        assert_eq!(eccentricity(&g, 4), 4);
        assert_eq!(eccentricity(&g, 0), 8);
    }
}
