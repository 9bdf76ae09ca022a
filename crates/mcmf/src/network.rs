//! Flow-network representation (adjacency lists with paired residual arcs).

/// Identifier of a node in a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Identifier of a *forward* edge in a [`FlowNetwork`], as returned by
/// [`FlowNetwork::add_edge`]. Use it with [`FlowNetwork::flow_on`] after
/// solving to read how much flow the edge carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// The dense index of this node (nodes are numbered `0..node_count`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Arc {
    pub to: u32,
    /// Remaining capacity of this residual arc.
    pub cap: i64,
    pub cost: f64,
}

/// A directed flow network with integer capacities and real-valued costs.
///
/// Arcs are stored with their residual twins at paired indices (`e ^ 1`),
/// the classic representation that lets augmentation update both directions
/// in O(1).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    pub(crate) arcs: Vec<Arc>,
    /// `adj[v]` lists arc indices leaving `v`.
    pub(crate) adj: Vec<Vec<u32>>,
    /// Original capacity of every *forward* arc, for flow extraction.
    pub(crate) forward_cap: Vec<i64>,
    has_negative_cost: bool,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network pre-allocating room for `nodes` nodes and
    /// `edges` forward edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            arcs: Vec::with_capacity(edges * 2),
            adj: Vec::with_capacity(nodes),
            forward_cap: Vec::with_capacity(edges),
            has_negative_cost: false,
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push(Vec::new());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed edge `from → to` with the given capacity and
    /// per-unit cost. Returns an id that can be queried with
    /// [`Self::flow_on`] after solving.
    ///
    /// # Panics
    ///
    /// Panics on unknown endpoints, negative capacity, or non-finite cost.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, capacity: i64, cost: f64) -> EdgeId {
        assert!(
            (from.index()) < self.adj.len() && (to.index()) < self.adj.len(),
            "edge endpoints must be existing nodes"
        );
        assert!(
            capacity >= 0,
            "capacity must be non-negative, got {capacity}"
        );
        assert!(cost.is_finite(), "cost must be finite, got {cost}");
        if cost < 0.0 {
            self.has_negative_cost = true;
        }
        let fwd = self.arcs.len() as u32;
        self.arcs.push(Arc {
            to: to.0,
            cap: capacity,
            cost,
        });
        self.arcs.push(Arc {
            to: from.0,
            cap: 0,
            cost: -cost,
        });
        self.adj[from.index()].push(fwd);
        self.adj[to.index()].push(fwd + 1);
        self.forward_cap.push(capacity);
        EdgeId(self.forward_cap.len() as u32 - 1)
    }

    /// Flow currently carried by a forward edge (0 before solving).
    pub fn flow_on(&self, edge: EdgeId) -> i64 {
        let arc_idx = edge.0 as usize * 2;
        self.forward_cap[edge.0 as usize] - self.arcs[arc_idx].cap
    }

    /// Whether any forward edge was added with a negative cost.
    pub(crate) fn has_negative_cost(&self) -> bool {
        self.has_negative_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_dense() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(net.node_count(), 2);
    }

    #[test]
    fn edges_store_residual_twins() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        let e = net.add_edge(a, b, 5, 2.5);
        assert_eq!(net.forward_cap.len(), 1);
        assert_eq!(net.flow_on(e), 0);
        assert_eq!(net.arcs.len(), 2);
        assert_eq!(net.arcs[1].cap, 0);
        assert_eq!(net.arcs[1].cost, -2.5);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn negative_capacity_panics() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_edge(a, b, -1, 0.0);
    }

    #[test]
    #[should_panic(expected = "cost must be finite")]
    fn nan_cost_panics() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        let b = net.add_node();
        net.add_edge(a, b, 1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "edge endpoints must be existing nodes")]
    fn unknown_endpoint_panics() {
        let mut net = FlowNetwork::new();
        let a = net.add_node();
        net.add_edge(a, NodeId(9), 1, 0.0);
    }
}
