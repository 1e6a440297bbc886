//! Topologies: node coordinates, ports and links.
//!
//! The paper's SoC is a k×k 2D mesh of 1 mm tiles (Table II: 4×4), with
//! five router ports: the four compass neighbours and the local core
//! (NIC). Nodes are numbered row-major from the bottom-left, matching the
//! paper's figures:
//!
//! ```text
//! 12 13 14 15
//!  8  9 10 11
//!  4  5  6  7
//!  0  1  2  3
//! ```
//!
//! The engine itself only needs a node set, a `(node, direction) →
//! neighbour` map and a distance metric, and there is one physical
//! fabric to ask: [`Topology`] is that grid, and a torus is the same
//! grid with `wrap` set — per-dimension wraparound links under the same
//! numbering. Every flat per-port array in the engine stays indexed
//! `node * PORTS + direction` — wraparound changes which *neighbour* a
//! port reaches, not the port set, so `PORTS = 5` and the paper's 2-bit
//! turn encoding both carry over unchanged (crossing a wrap link
//! preserves the travelling direction: East across the seam is still
//! East).

use std::fmt;

/// Identifies a node (router + core tile) in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// (x, y) position of a node; x grows east, y grows north.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Coord {
    /// Column, 0 at the west edge.
    pub x: u16,
    /// Row, 0 at the south edge.
    pub y: u16,
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Router ports per node (4 compass + core). Every flat per-port array
/// in the engine — router-bank state, link guards, credit tables — is
/// indexed `node * PORTS + direction`, so the constant lives here next
/// to [`Direction`] as the single source of truth.
pub const PORTS: usize = 5;

/// Tile pitch, and so the length of every link, in mm (Table II: 1 mm
/// cores). Each design's link energy is counted in millimetres at this
/// one pitch.
pub const HOP_MM: f64 = 1.0;

/// A router port direction. `Core` is the local NIC port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Toward larger x.
    East,
    /// Toward smaller y.
    South,
    /// Toward smaller x.
    West,
    /// Toward larger y.
    North,
    /// The local core / NIC.
    Core,
}

impl Direction {
    /// All five port directions, in the paper's E/S/W/N/C order.
    pub const ALL: [Direction; 5] = [
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::North,
        Direction::Core,
    ];

    /// The four mesh directions (no `Core`).
    pub const MESH: [Direction; 4] = [
        Direction::East,
        Direction::South,
        Direction::West,
        Direction::North,
    ];

    /// Port index in the E/S/W/N/C ordering used for crossbar wiring and
    /// preset registers.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::South => 1,
            Direction::West => 2,
            Direction::North => 3,
            Direction::Core => 4,
        }
    }

    /// Inverse of [`Direction::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx > 4`.
    #[must_use]
    pub fn from_index(idx: usize) -> Direction {
        Direction::ALL[idx]
    }

    /// The opposite compass direction; `Core` is its own opposite.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::Core => Direction::Core,
        }
    }

    /// Turn relative to travelling direction `self`: the direction that
    /// is `turn` of a flit that entered a router moving along `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is `Core` (a flit at its source has no travelling
    /// direction; use absolute encoding there) or if `turn` is
    /// [`Turn::Core`] (which maps to `Direction::Core` trivially).
    #[must_use]
    pub fn apply_turn(self, turn: Turn) -> Direction {
        if turn == Turn::Core {
            return Direction::Core;
        }
        assert!(
            self != Direction::Core,
            "relative turns are undefined when travelling on the Core port"
        );
        // Compass order for rotation: E -> S -> W -> N -> E is a
        // clockwise... East turning right is South; South turning right
        // is West; West->North; North->East. That matches index+1 mod 4.
        let i = self.index();
        match turn {
            Turn::Straight => self,
            Turn::Right => Direction::from_index((i + 1) % 4),
            Turn::Left => Direction::from_index((i + 3) % 4),
            Turn::Core => unreachable!("handled above"),
        }
    }

    /// The turn a flit travelling along `self` must take to leave along
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is `Core`, or if `out` is the reverse of `self`
    /// (U-turns are not representable in the paper's 2-bit encoding).
    #[must_use]
    pub fn turn_to(self, out: Direction) -> Turn {
        if out == Direction::Core {
            return Turn::Core;
        }
        assert!(self != Direction::Core, "no travelling direction at source");
        let d = (out.index() + 4 - self.index()) % 4;
        match d {
            0 => Turn::Straight,
            1 => Turn::Right,
            3 => Turn::Left,
            _ => panic!("u-turn from {self:?} to {out:?} is not encodable"),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
            Direction::North => "N",
            Direction::Core => "C",
        };
        f.write_str(s)
    }
}

/// Relative output selection at a non-source router (the paper's 2-bit
/// route field: Left / Right / Straight / Core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Turn {
    /// Continue in the travelling direction.
    Straight,
    /// Turn left relative to travel.
    Left,
    /// Turn right relative to travel.
    Right,
    /// Eject to the local core.
    Core,
}

impl Turn {
    /// 2-bit encoding (L=0, R=1, S=2, C=3 — the paper's field order
    /// "Left, Right, Straight and Core").
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Turn::Left => 0,
            Turn::Right => 1,
            Turn::Straight => 2,
            Turn::Core => 3,
        }
    }

    /// Inverse of [`Turn::bits`].
    ///
    /// # Panics
    ///
    /// Panics if `bits > 3`.
    #[must_use]
    pub fn from_bits(bits: u32) -> Turn {
        match bits {
            0 => Turn::Left,
            1 => Turn::Right,
            2 => Turn::Straight,
            3 => Turn::Core,
            _ => panic!("turn encoding is 2 bits, got {bits}"),
        }
    }
}

/// A directed router-to-router (or router-to-NIC) link: the `dir` output
/// of router `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Router whose output port this is.
    pub from: NodeId,
    /// Output direction.
    pub dir: Direction,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.from, self.dir)
    }
}

/// Most nodes a grid may hold: a [`NodeId`] is 16 bits.
const MAX_NODES: usize = 1 << 16;

/// The router fabric: a `width × height` grid of tiles, numbered
/// row-major from the bottom-left. `wrap` is the only thing a 2D torus
/// adds to a 2D mesh — one link per row and per column closing it into
/// a ring, so every router has all four compass neighbours — and it is
/// consulted only where a grid edge matters (`neighbor`, `distance`,
/// `max_route_hops`, `is_wrap_link`). The wrap links are what make the
/// torus interesting for SMART: a preset bypass path can cross the die
/// seam in the same single cycle as any other `HPC_max`-bounded leg,
/// and dimension-order routes shrink to at most `⌊w/2⌋+⌊h/2⌋` hops.
///
/// Caveat: the wraparound rings reintroduce cyclic channel
/// dependencies, so XY dimension-order on a torus is not deadlock-free
/// under wormhole flow control in general. The goldened torus cells
/// stay live (every conformance cell asserts full delivery), but other
/// loads wedge: the Mesh design on a 4×4 torus under
/// `uniform(240, 0.005, 7)` for 20 000 cycles delivered 658 of 724
/// packets and never drained, where the 4×4 mesh drained all 23 896.
/// Nothing flags such a wedge beyond the run's `drained: false` (see
/// ROADMAP item 1). A production torus would add a dateline VC or a
/// bubble scheme on the rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    width: u16,
    height: u16,
    wrap: bool,
}

impl Topology {
    fn grid(width: u16, height: u16, wrap: bool) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be nonzero");
        assert!(
            !wrap || (width >= 2 && height >= 2),
            "torus dimensions must be at least 2 (got {width}x{height})"
        );
        assert!(
            usize::from(width) * usize::from(height) <= MAX_NODES,
            "{width}x{height} grid exceeds the {MAX_NODES} nodes a 16-bit NodeId can name"
        );
        Topology {
            width,
            height,
            wrap,
        }
    }

    /// A `width × height` 2D mesh (the paper's fabric).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the grid has more than
    /// 65,536 nodes.
    #[must_use]
    pub fn mesh(width: u16, height: u16) -> Self {
        Topology::grid(width, height, false)
    }

    /// A `width × height` 2D torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2 (the engine's link tables
    /// cannot represent a node linked to itself) or the grid has more
    /// than 65,536 nodes.
    #[must_use]
    pub fn torus(width: u16, height: u16) -> Self {
        Topology::grid(width, height, true)
    }

    /// The paper's 4×4 evaluation mesh.
    #[must_use]
    pub fn paper_4x4() -> Self {
        Topology::mesh(4, 4)
    }

    /// Short lowercase label (`mesh` / `torus`), the grammar the server
    /// protocol and experiment names use.
    #[must_use]
    pub fn label(self) -> &'static str {
        if self.wrap {
            "torus"
        } else {
            "mesh"
        }
    }

    /// `true` when the fabric has wraparound links.
    #[must_use]
    pub fn is_torus(self) -> bool {
        self.wrap
    }

    /// Grid width (columns).
    #[must_use]
    pub fn width(self) -> u16 {
        self.width
    }

    /// Grid height (rows).
    #[must_use]
    pub fn height(self) -> u16 {
        self.height
    }

    /// Total number of nodes.
    #[must_use]
    pub fn len(self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Never `true` (the constructors refuse a 0-node grid); present
    /// because `len` is.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Iterate over all node ids, row-major from the bottom-left.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        // `len() <= MAX_NODES`, so every index fits the id.
        (0..self.len()).map(|i| NodeId(i as u16))
    }

    /// Coordinate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn coord(self, node: NodeId) -> Coord {
        assert!(
            usize::from(node.0) < self.len(),
            "{node} outside {}x{} grid",
            self.width,
            self.height
        );
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// Node at coordinate `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn node_at(self, c: Coord) -> NodeId {
        assert!(
            c.x < self.width && c.y < self.height,
            "{c} outside {}x{} grid",
            self.width,
            self.height
        );
        NodeId(c.y * self.width + c.x)
    }

    /// `true` if leaving `c` along `dir` steps off the grid edge.
    fn leaves_grid(self, c: Coord, dir: Direction) -> bool {
        match dir {
            Direction::East => c.x + 1 == self.width,
            Direction::West => c.x == 0,
            Direction::North => c.y + 1 == self.height,
            Direction::South => c.y == 0,
            Direction::Core => false,
        }
    }

    /// Neighbour of `node` in compass direction `dir`, if the fabric
    /// has a link there: `None` for `Core` always and at the grid edges
    /// of a mesh; on a torus an edge wraps to the far side.
    #[must_use]
    pub fn neighbor(self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord(node);
        if !self.wrap && self.leaves_grid(c, dir) {
            return None;
        }
        let (w, h) = (self.width, self.height);
        let (x, y) = match dir {
            Direction::East => ((c.x + 1) % w, c.y),
            Direction::West => (c.x.checked_sub(1).unwrap_or(w - 1), c.y),
            Direction::North => (c.x, (c.y + 1) % h),
            Direction::South => (c.x, c.y.checked_sub(1).unwrap_or(h - 1)),
            Direction::Core => return None,
        };
        Some(self.node_at(Coord { x, y }))
    }

    /// Number of compass neighbours of `node` (2 at mesh corners, 3 at
    /// mesh edges, 4 inside and everywhere on a torus) — NMAP seeds the
    /// highest-traffic task at the node with the most neighbours.
    #[must_use]
    pub fn degree(self, node: NodeId) -> usize {
        Direction::MESH
            .iter()
            .filter(|d| self.neighbor(node, **d).is_some())
            .count()
    }

    /// Minimal hop distance between two nodes: Manhattan on a mesh; on
    /// a torus each axis takes the shorter way around.
    #[must_use]
    pub fn distance(self, a: NodeId, b: NodeId) -> u16 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        let along = |d: u16, size: u16| if self.wrap { d.min(size - d) } else { d };
        along(ca.x.abs_diff(cb.x), self.width) + along(ca.y.abs_diff(cb.y), self.height)
    }

    /// Hop count of the longest minimal route — sizes the head-flit
    /// route field (`(w-1)+(h-1)` on a mesh, `⌊w/2⌋+⌊h/2⌋` on a torus).
    #[must_use]
    pub fn max_route_hops(self) -> usize {
        usize::from(if self.wrap {
            self.width / 2 + self.height / 2
        } else {
            self.width - 1 + self.height - 1
        })
    }

    /// `true` if `link` crosses a wraparound seam (never on a mesh).
    #[must_use]
    pub fn is_wrap_link(self, link: LinkId) -> bool {
        self.wrap && self.leaves_grid(self.coord(link.from), link.dir)
    }

    /// All directed router-to-router links, in node then E/S/W/N order.
    #[must_use]
    pub fn links(self) -> Vec<LinkId> {
        self.nodes()
            .flat_map(|from| Direction::MESH.map(|dir| LinkId { from, dir }))
            .filter(|l| self.neighbor(l.from, l.dir).is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mesh_numbering() {
        let m = Topology::paper_4x4();
        assert_eq!(m.len(), 16);
        assert_eq!(m.coord(NodeId(0)), Coord { x: 0, y: 0 });
        assert_eq!(m.coord(NodeId(3)), Coord { x: 3, y: 0 });
        assert_eq!(m.coord(NodeId(12)), Coord { x: 0, y: 3 });
        assert_eq!(m.node_at(Coord { x: 2, y: 2 }), NodeId(10));
    }

    #[test]
    fn neighbors_and_edges() {
        let m = Topology::paper_4x4();
        assert_eq!(m.neighbor(NodeId(5), Direction::East), Some(NodeId(6)));
        assert_eq!(m.neighbor(NodeId(5), Direction::North), Some(NodeId(9)));
        assert_eq!(m.neighbor(NodeId(5), Direction::South), Some(NodeId(1)));
        assert_eq!(m.neighbor(NodeId(5), Direction::West), Some(NodeId(4)));
        assert_eq!(m.neighbor(NodeId(0), Direction::West), None);
        assert_eq!(m.neighbor(NodeId(0), Direction::South), None);
        assert_eq!(m.neighbor(NodeId(15), Direction::East), None);
        assert_eq!(m.neighbor(NodeId(3), Direction::Core), None);
    }

    #[test]
    fn degree_identifies_mesh_center() {
        let m = Topology::paper_4x4();
        assert_eq!(m.degree(NodeId(0)), 2);
        assert_eq!(m.degree(NodeId(1)), 3);
        assert_eq!(m.degree(NodeId(5)), 4);
    }

    #[test]
    fn manhattan_distance() {
        let m = Topology::paper_4x4();
        assert_eq!(m.distance(NodeId(0), NodeId(15)), 6);
        assert_eq!(m.distance(NodeId(9), NodeId(10)), 1);
        assert_eq!(m.distance(NodeId(7), NodeId(7)), 0);
    }

    #[test]
    fn link_count_is_2_times_internal_edges() {
        // 4x4 mesh: 2 · (3·4 + 3·4) = 48 directed links.
        let m = Topology::paper_4x4();
        assert_eq!(m.links().len(), 48);
    }

    #[test]
    fn direction_indexing_round_trips() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    fn opposites() {
        assert_eq!(Direction::East.opposite(), Direction::West);
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::Core.opposite(), Direction::Core);
    }

    #[test]
    fn turns_compose_correctly() {
        use Direction::*;
        // Travelling East: straight keeps East, right goes South, left
        // goes North.
        assert_eq!(East.apply_turn(Turn::Straight), East);
        assert_eq!(East.apply_turn(Turn::Right), South);
        assert_eq!(East.apply_turn(Turn::Left), North);
        assert_eq!(North.apply_turn(Turn::Right), East);
        assert_eq!(South.apply_turn(Turn::Left), East);
        // And turn_to inverts apply_turn.
        for travel in [East, South, West, North] {
            for turn in [Turn::Straight, Turn::Left, Turn::Right] {
                let out = travel.apply_turn(turn);
                assert_eq!(travel.turn_to(out), turn);
            }
            assert_eq!(travel.turn_to(Core), Turn::Core);
        }
    }

    #[test]
    #[should_panic(expected = "u-turn")]
    fn u_turn_is_not_encodable() {
        let _ = Direction::East.turn_to(Direction::West);
    }

    #[test]
    fn turn_bit_encoding_round_trips() {
        for t in [Turn::Left, Turn::Right, Turn::Straight, Turn::Core] {
            assert_eq!(Turn::from_bits(t.bits()), t);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn coord_bounds_checked() {
        let m = Topology::mesh(2, 2);
        let _ = m.coord(NodeId(4));
    }

    #[test]
    fn rectangular_meshes_work() {
        let m = Topology::mesh(8, 2);
        assert_eq!(m.len(), 16);
        assert_eq!(m.coord(NodeId(9)), Coord { x: 1, y: 1 });
        assert_eq!(m.neighbor(NodeId(9), Direction::North), None);
    }

    #[test]
    fn torus_wraps_every_edge() {
        let t = Topology::torus(4, 4);
        // Interior neighbours match the mesh.
        assert_eq!(t.neighbor(NodeId(5), Direction::East), Some(NodeId(6)));
        // Edges wrap instead of dropping off.
        assert_eq!(t.neighbor(NodeId(3), Direction::East), Some(NodeId(0)));
        assert_eq!(t.neighbor(NodeId(0), Direction::West), Some(NodeId(3)));
        assert_eq!(t.neighbor(NodeId(12), Direction::North), Some(NodeId(0)));
        assert_eq!(t.neighbor(NodeId(2), Direction::South), Some(NodeId(14)));
        assert_eq!(t.neighbor(NodeId(2), Direction::Core), None);
        // Every node has all four compass neighbours.
        for n in t.nodes() {
            assert_eq!(t.degree(n), 4, "{n}");
        }
    }

    #[test]
    fn torus_distance_takes_the_short_way_around() {
        let t = Topology::torus(4, 4);
        // Corner to corner: 1 wrap hop per axis instead of 3.
        assert_eq!(t.distance(NodeId(0), NodeId(15)), 2);
        // Half-way around is the same either way.
        assert_eq!(t.distance(NodeId(0), NodeId(2)), 2);
        assert_eq!(t.distance(NodeId(7), NodeId(7)), 0);
        // Never longer than the mesh distance.
        let m = Topology::mesh(4, 4);
        for a in t.nodes() {
            for b in t.nodes() {
                assert!(t.distance(a, b) <= m.distance(a, b));
            }
        }
    }

    #[test]
    fn torus_link_count_and_wrap_detection() {
        let t = Topology::torus(4, 4);
        // 4 out-links per node.
        assert_eq!(t.links().len(), 64);
        // 4 wrap links per row-pair crossing + per column: 2 per row
        // (E at x=3, W at x=0) x 4 rows + 2 per column x 4 columns.
        let wraps = t.links().iter().filter(|l| t.is_wrap_link(**l)).count();
        assert_eq!(wraps, 16);
        assert!(t.is_wrap_link(LinkId {
            from: NodeId(3),
            dir: Direction::East
        }));
        assert!(!t.is_wrap_link(LinkId {
            from: NodeId(1),
            dir: Direction::East
        }));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn one_wide_torus_rejected() {
        let _ = Topology::torus(1, 4);
    }

    #[test]
    fn wrap_is_the_only_difference_between_the_fabrics() {
        let mesh = Topology::paper_4x4();
        let torus = Topology::torus(4, 4);
        assert_eq!(mesh.label(), "mesh");
        assert_eq!(torus.label(), "torus");
        assert!(!mesh.is_torus());
        assert!(torus.is_torus());
        assert_ne!(mesh, torus);
        assert_eq!(mesh.len(), torus.len());
        assert_eq!(mesh.neighbor(NodeId(3), Direction::East), None);
        assert_eq!(torus.neighbor(NodeId(3), Direction::East), Some(NodeId(0)));
        assert_eq!(mesh.distance(NodeId(0), NodeId(15)), 6);
        assert_eq!(torus.distance(NodeId(0), NodeId(15)), 2);
        assert_eq!(mesh.max_route_hops(), 6);
        assert_eq!(torus.max_route_hops(), 4);
        assert_eq!(mesh.links().len(), 48);
        assert_eq!(torus.links().len(), 64);
    }

    #[test]
    fn the_largest_grid_names_every_node_id() {
        let m = Topology::mesh(256, 256);
        assert_eq!(m.len(), 65_536);
        let nodes: Vec<NodeId> = m.nodes().collect();
        assert_eq!(nodes.len(), 65_536);
        assert!(nodes.windows(2).all(|w| w[0] < w[1]), "distinct, ascending");
        assert_eq!(nodes.last(), Some(&NodeId(65_535)));
        assert_eq!(m.node_at(Coord { x: 255, y: 255 }), NodeId(65_535));
        assert_eq!(m.coord(NodeId(65_535)), Coord { x: 255, y: 255 });
        // The longest legal row: stepping West never overflows.
        let row = Topology::mesh(65_535, 1);
        assert_eq!(
            row.neighbor(NodeId(65_534), Direction::West),
            Some(NodeId(65_533))
        );
        assert_eq!(row.neighbor(NodeId(65_534), Direction::East), None);
    }

    #[test]
    #[should_panic(expected = "exceeds the 65536 nodes")]
    fn a_grid_with_more_nodes_than_ids_is_refused() {
        let _ = Topology::mesh(257, 256);
    }

    #[test]
    #[should_panic(expected = "exceeds the 65536 nodes")]
    fn an_oversized_torus_is_refused_too() {
        let _ = Topology::torus(300, 300);
    }
}
