//! Byte-for-byte pins of every generator's output.
//!
//! Each case hashes five arc-indexed or edge-indexed streams of one
//! generated graph (arc offsets, arc targets, arc edge ids, arc
//! orientation signs and the canonical edge list) with 64-bit FNV-1a.
//! None is stored as such: each is the logical content of the CSR,
//! rebuilt from its accessors in the layout an earlier CSR stored it in
//! (degree-prefix offsets as `u64`, then per arc, in arc order, its
//! target, its edge id and its `i8` sign, then the `(u, v)` pairs of
//! [`Graph::edges`] in id order), so the pins outlive a change of
//! layout. A change to how graphs are assembled
//! must leave every hash as it is: the simulator's trajectories, plans,
//! goldens and checkpoints all depend on the exact edge ids and arc
//! order.

use sodiff_graph::{generators, Graph};

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes one array: its length, then its elements.
    fn array<T, const N: usize>(&mut self, items: &[T], to_bytes: impl Fn(&T) -> [u8; N]) {
        self.bytes(&(items.len() as u64).to_le_bytes());
        for item in items {
            self.bytes(&to_bytes(item));
        }
    }
}

fn fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    let offsets: Vec<u64> = (0..=g.node_count())
        .map(|v| g.arc_offset(v) as u64)
        .collect();
    h.array(&offsets, |o| o.to_le_bytes());
    let targets: Vec<_> = g.nodes().flat_map(|v| g.neighbor_nodes(v)).collect();
    h.array(&targets, |v| v.to_le_bytes());
    let arc_edges: Vec<_> = g.nodes().flat_map(|v| g.neighbor_edges(v)).collect();
    h.array(&arc_edges, |e| e.to_le_bytes());
    // A node's in-arcs (sign −1) precede its out-arcs (sign +1).
    let signs: Vec<i8> = g
        .nodes()
        .flat_map(|v| {
            let (ins, outs) = (g.in_degree(v), g.out_degree(v));
            std::iter::repeat_n(-1, ins).chain(std::iter::repeat_n(1, outs))
        })
        .collect();
    h.array(&signs, |s| s.to_le_bytes());
    let edges: Vec<_> = g.edges().collect();
    h.array(&edges, |&(u, v)| {
        let mut b = [0u8; 8];
        b[..4].copy_from_slice(&u.to_le_bytes());
        b[4..].copy_from_slice(&v.to_le_bytes());
        b
    });
    h.0
}

/// `(name, graph)` for every pinned case.
fn cases() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = Vec::new();
    let mut add = |name: String, g: Graph| out.push((name, g));
    // Tori: sides 1 and 2 (where the wrap-around edge coincides with the
    // direct one), 3, the paper's 256², and 3-d shapes.
    for dims in [
        vec![1],
        vec![2],
        vec![3],
        vec![7],
        vec![1, 5],
        vec![2, 2],
        vec![2, 5],
        vec![3, 3],
        vec![5, 7],
        vec![256, 256],
        vec![3, 4, 5],
        vec![2, 3, 2],
        vec![1, 4, 3],
    ] {
        add(format!("torus{dims:?}"), generators::torus(&dims));
    }
    add("torus2d(16,16)".into(), generators::torus2d(16, 16));
    for dim in [0, 1, 2, 5, 10] {
        add(format!("hypercube({dim})"), generators::hypercube(dim));
    }
    for n in [3, 4, 17] {
        add(format!("cycle({n})"), generators::cycle(n));
    }
    for n in [0, 1, 2, 9] {
        add(format!("path({n})"), generators::path(n));
        add(format!("complete({n})"), generators::complete(n));
        add(format!("star({n})"), generators::star(n));
    }
    add("complete(40)".into(), generators::complete(40));
    add("star(100)".into(), generators::star(100));
    for (rows, cols) in [(1, 1), (1, 6), (4, 5), (9, 3)] {
        add(
            format!("grid2d({rows},{cols})"),
            generators::grid2d(rows, cols),
        );
    }
    for seed in [1, 7, 42] {
        for (n, p) in [(60, 0.1), (200, 0.02), (30, 0.9), (25, 1.0)] {
            add(
                format!("erdos_renyi({n},{p},{seed})"),
                generators::erdos_renyi(n, p, seed),
            );
        }
        for (n, d) in [(100, 4), (640, 6), (21, 8), (512, 9)] {
            add(
                format!("random_regular({n},{d},{seed})"),
                generators::random_regular(n, d, seed).expect("valid parameters"),
            );
        }
        for (n, radius) in [(300, 1.2), (20, 0.0), (200, 0.6), (512, 1.8)] {
            add(
                format!("random_geometric({n},{radius},{seed})"),
                generators::random_geometric(n, radius, seed),
            );
        }
        add(
            format!("rgg_paper(500,{seed})"),
            generators::rgg_paper(500, seed),
        );
        for n in [100, 640, 4096] {
            add(
                format!("random_graph_cm({n},{seed})"),
                generators::random_graph_cm(n, seed).expect("valid parameters"),
            );
        }
    }
    out
}

/// The pinned hashes, in the order of [`cases`].
const EXPECTED: &[(&str, u64)] = &[
    ("torus[1]", 0xbfd1af3e08379b47),
    ("torus[2]", 0x72d603453074dade),
    ("torus[3]", 0x1174e235e5c85fa4),
    ("torus[7]", 0x3692c776c8792b2c),
    ("torus[1, 5]", 0x1e66c2a7b6494696),
    ("torus[2, 2]", 0x083cef47fe6bc858),
    ("torus[2, 5]", 0x6e35c7e34ad8723e),
    ("torus[3, 3]", 0x75f6ef1f102ac6bd),
    ("torus[5, 7]", 0x5a9da9e8406f6b4b),
    ("torus[256, 256]", 0xfa473c08970e3a0b),
    ("torus[3, 4, 5]", 0xec34b1dbfc96ac7f),
    ("torus[2, 3, 2]", 0x3d295af0e4e86ce4),
    ("torus[1, 4, 3]", 0xc7c18de43fc59b54),
    ("torus2d(16,16)", 0x6133dc9606a081c1),
    ("hypercube(0)", 0xbfd1af3e08379b47),
    ("hypercube(1)", 0x72d603453074dade),
    ("hypercube(2)", 0x083cef47fe6bc858),
    ("hypercube(5)", 0xd7e0716627d5cda4),
    ("hypercube(10)", 0x55b4a601555190f8),
    ("cycle(3)", 0x1174e235e5c85fa4),
    ("cycle(4)", 0x5c2f007c39ce5538),
    ("cycle(17)", 0x319cff59b8ca9836),
    ("path(0)", 0x57a3e9bec8b15e24),
    ("complete(0)", 0x57a3e9bec8b15e24),
    ("star(0)", 0x57a3e9bec8b15e24),
    ("path(1)", 0xbfd1af3e08379b47),
    ("complete(1)", 0xbfd1af3e08379b47),
    ("star(1)", 0xbfd1af3e08379b47),
    ("path(2)", 0x72d603453074dade),
    ("complete(2)", 0x72d603453074dade),
    ("star(2)", 0x72d603453074dade),
    ("path(9)", 0x54617b45dfeb9787),
    ("complete(9)", 0x5a6d2f330044c62b),
    ("star(9)", 0x5b2209edaeab7307),
    ("complete(40)", 0x51633867bcd0a948),
    ("star(100)", 0x043911e55fa16721),
    ("grid2d(1,1)", 0xbfd1af3e08379b47),
    ("grid2d(1,6)", 0x1f8d9d8c425df2f6),
    ("grid2d(4,5)", 0x459c9847f15099ac),
    ("grid2d(9,3)", 0xa89d7765ee3a656d),
    ("erdos_renyi(60,0.1,1)", 0x244b054c07127dcb),
    ("erdos_renyi(200,0.02,1)", 0xa3c8dd736bbccd1e),
    ("erdos_renyi(30,0.9,1)", 0x335f2126ca849e27),
    ("erdos_renyi(25,1,1)", 0x18c2d435b860b439),
    ("random_regular(100,4,1)", 0xb3dfa02d04898170),
    ("random_regular(640,6,1)", 0xb0c373dda9c1b04c),
    ("random_regular(21,8,1)", 0xad530eaa02656689),
    ("random_regular(512,9,1)", 0x7248566b55ffdb93),
    ("random_geometric(300,1.2,1)", 0x5e238ce7e089821b),
    ("random_geometric(20,0,1)", 0x1dd19e028147c3b7),
    ("random_geometric(200,0.6,1)", 0x384d9d085aa294b4),
    ("random_geometric(512,1.8,1)", 0x28c2c5eba6425956),
    ("rgg_paper(500,1)", 0x5f867afd4cfbad1a),
    ("random_graph_cm(100,1)", 0x8fbbc022fff4c865),
    ("random_graph_cm(640,1)", 0x6541968111c65e87),
    ("random_graph_cm(4096,1)", 0x4f3dd40d69723aae),
    ("erdos_renyi(60,0.1,7)", 0x9ed611cf73eb19fa),
    ("erdos_renyi(200,0.02,7)", 0xbc525da1cb7aab4c),
    ("erdos_renyi(30,0.9,7)", 0x297fda7e68f0216c),
    ("erdos_renyi(25,1,7)", 0x18c2d435b860b439),
    ("random_regular(100,4,7)", 0xb883063ab6712744),
    ("random_regular(640,6,7)", 0x21468b6e2462648c),
    ("random_regular(21,8,7)", 0xd527c3a356645cdf),
    ("random_regular(512,9,7)", 0x1b879c38c312f556),
    ("random_geometric(300,1.2,7)", 0x3b553e67af4c4b30),
    ("random_geometric(20,0,7)", 0x1dd19e028147c3b7),
    ("random_geometric(200,0.6,7)", 0x236ed1c516fb0ba3),
    ("random_geometric(512,1.8,7)", 0xa8c3c111ef9b5cf8),
    ("rgg_paper(500,7)", 0x37bb16dde2207cb8),
    ("random_graph_cm(100,7)", 0x7156d524c525f7fc),
    ("random_graph_cm(640,7)", 0xfc49790493c73398),
    ("random_graph_cm(4096,7)", 0x6f5863fd54061571),
    ("erdos_renyi(60,0.1,42)", 0x53eaf3c11336068b),
    ("erdos_renyi(200,0.02,42)", 0xd52220398572a41b),
    ("erdos_renyi(30,0.9,42)", 0x2af4c03a724a994a),
    ("erdos_renyi(25,1,42)", 0x18c2d435b860b439),
    ("random_regular(100,4,42)", 0xa40df353682651cf),
    ("random_regular(640,6,42)", 0xa1d368fcedb610aa),
    ("random_regular(21,8,42)", 0xd57f9714879c2692),
    ("random_regular(512,9,42)", 0x57a1c3cd5328c261),
    ("random_geometric(300,1.2,42)", 0x65ad65767061a3e6),
    ("random_geometric(20,0,42)", 0x1dd19e028147c3b7),
    ("random_geometric(200,0.6,42)", 0x7e9cea5cf8109761),
    ("random_geometric(512,1.8,42)", 0xa56d196c0d76bd15),
    ("rgg_paper(500,42)", 0xb2750438806b73ff),
    ("random_graph_cm(100,42)", 0xcdc47399cbf6f300),
    ("random_graph_cm(640,42)", 0x1d526c8caf353246),
    ("random_graph_cm(4096,42)", 0xe33f1f52bc8aad71),
];

#[test]
fn every_generator_is_pinned_byte_for_byte() {
    let got: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(name, g)| (name, fingerprint(&g)))
        .collect();
    let listing: String = got
        .iter()
        .map(|(name, h)| format!("    ({name:?}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        EXPECTED.len(),
        "case list changed; current hashes:\n{listing}"
    );
    for ((name, hash), &(want_name, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "case order changed");
        assert_eq!(*hash, want, "{name}: CSR bytes changed");
    }
}

/// The pinned cases reach the generators' dedup paths: a configuration
/// model whose best attempt still drops pairs, and geometric graphs that
/// need the component patch step.
#[test]
fn pinned_cases_reach_the_dedup_paths() {
    for seed in [1, 7, 42] {
        let g = generators::random_regular(21, 8, seed).expect("valid parameters");
        assert!(g.edge_count() < 21 * 8 / 2, "seed {seed}: perfect pairing");
    }
    // Radius 0 has no geometric edge at all: every edge is a patch edge.
    let g = generators::random_geometric(20, 0.0, 1);
    assert_eq!(g.edge_count(), 19);
    assert!(g.is_connected());
}
