//! Dependency graphs: extraction, metrics and DOT export.
//!
//! Figures 1–3 of the paper contrast the Linux kernel's densely
//! inter-dependent components with Unikraft's sparse micro-library
//! graphs. `LINUX_COMPONENT_EDGES` embeds the Figure 1 dataset (the
//! cscope cross-component call counts); [`DepGraph::from_config`]
//! generates the Unikraft graphs from the *real* dependency resolution
//! of our build system.

use std::collections::HashMap;

use crate::config::BuildConfig;
use crate::registry::LibRegistry;

/// The Linux kernel component dependency edges of Figure 1:
/// `(from, to, number_of_cross_component_calls)`.
pub(crate) static LINUX_COMPONENT_EDGES: &[(&str, &str, u32)] = &[
    ("fs", "time", 90),
    ("fs", "mm", 277),
    ("fs", "sched", 111),
    ("fs", "net", 311),
    ("fs", "block", 95),
    ("fs", "locking", 13),
    ("fs", "security", 14),
    ("fs", "irq", 23),
    ("fs", "ipc", 3),
    ("mm", "fs", 151),
    ("mm", "sched", 110),
    ("mm", "block", 37),
    ("mm", "time", 77),
    ("mm", "locking", 2),
    ("mm", "security", 4),
    ("mm", "irq", 1),
    ("sched", "mm", 213),
    ("sched", "time", 15),
    ("sched", "locking", 53),
    ("sched", "fs", 2),
    ("sched", "irq", 28),
    ("sched", "net", 6),
    ("sched", "security", 22),
    ("net", "fs", 207),
    ("net", "mm", 101),
    ("net", "sched", 36),
    ("net", "time", 16),
    ("net", "security", 8),
    ("net", "locking", 2),
    ("net", "block", 91),
    ("net", "irq", 2),
    ("block", "fs", 551),
    ("block", "mm", 107),
    ("block", "sched", 465),
    ("block", "time", 60),
    ("block", "locking", 11),
    ("block", "irq", 5),
    ("block", "security", 7),
    ("block", "net", 27),
    ("ipc", "fs", 720),
    ("ipc", "mm", 68),
    ("ipc", "sched", 46),
    ("ipc", "time", 36),
    ("ipc", "security", 25),
    ("ipc", "locking", 2),
    ("ipc", "net", 10),
    ("security", "fs", 164),
    ("security", "mm", 24),
    ("security", "sched", 30),
    ("security", "net", 117),
    ("security", "time", 8),
    ("security", "irq", 7),
    ("security", "block", 119),
    ("irq", "sched", 226),
    ("irq", "mm", 3),
    ("irq", "time", 122),
    ("irq", "locking", 19),
    ("locking", "sched", 124),
    ("locking", "time", 6),
    ("locking", "mm", 4),
    ("time", "sched", 110),
    ("time", "mm", 17),
    ("time", "irq", 67),
    ("time", "locking", 11),
    ("time", "fs", 6),
    ("time", "security", 39),
];

/// A directed dependency graph.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Node names.
    pub nodes: Vec<String>,
    /// Edges as (from, to, weight) indices into `nodes`.
    pub edges: Vec<(usize, usize, u32)>,
}

impl DepGraph {
    /// Builds the Linux component graph from the embedded dataset.
    pub fn linux() -> Self {
        let mut nodes: Vec<String> = Vec::new();
        let mut index = HashMap::new();
        let node = |nodes: &mut Vec<String>, index: &mut HashMap<String, usize>, n: &str| {
            *index.entry(n.to_string()).or_insert_with(|| {
                nodes.push(n.to_string());
                nodes.len() - 1
            })
        };
        let mut edges = Vec::new();
        for (f, t, w) in LINUX_COMPONENT_EDGES {
            let fi = node(&mut nodes, &mut index, f);
            let ti = node(&mut nodes, &mut index, t);
            edges.push((fi, ti, *w));
        }
        DepGraph { nodes, edges }
    }

    /// Builds a Unikraft dependency graph from a resolved configuration
    /// (Figures 2 and 3 are exactly this for nginx and helloworld).
    pub fn from_config(registry: &LibRegistry, config: &BuildConfig) -> Result<Self, String> {
        let libs = config.resolve(registry)?;
        let index: HashMap<&str, usize> =
            libs.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let mut edges = Vec::new();
        for (i, name) in libs.iter().enumerate() {
            let lib = registry.get(name).expect("resolved");
            for dep in lib.deps {
                if let Some(&j) = index.get(dep) {
                    edges.push((i, j, 1));
                }
            }
        }
        Ok(DepGraph {
            nodes: libs.iter().map(|s| s.to_string()).collect(),
            edges,
        })
    }

    /// Average out-degree — the "density" that makes Linux components
    /// hard to remove or replace.
    pub fn avg_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.edges.len() as f64 / self.nodes.len() as f64
    }

    /// Total cross-component call weight.
    pub fn total_weight(&self) -> u64 {
        self.edges.iter().map(|(_, _, w)| u64::from(*w)).sum()
    }

    /// Graphviz DOT rendering.
    pub fn to_dot(&self, name: &str) -> String {
        let mut s = format!("digraph \"{name}\" {{\n  rankdir=LR;\n");
        for n in &self.nodes {
            s.push_str(&format!("  \"{n}\";\n"));
        }
        for (f, t, w) in &self.edges {
            s.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
                self.nodes[*f], self.nodes[*t], w
            ));
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_graph_is_dense() {
        let g = DepGraph::linux();
        assert_eq!(g.nodes.len(), 10);
        // Fig 1's point: nearly every component depends on every other.
        assert!(g.avg_degree() > 5.0, "degree = {}", g.avg_degree());
        assert!(g.total_weight() > 5_000);
    }

    #[test]
    fn unikraft_hello_graph_is_tiny_and_sparse() {
        let r = LibRegistry::standard();
        let g = DepGraph::from_config(&r, &BuildConfig::new("app-helloworld")).unwrap();
        // Fig 3 shows ~8 nodes for helloworld.
        assert!(g.nodes.len() <= 12, "{:?}", g.nodes);
        assert!(g.avg_degree() < 2.5, "degree = {}", g.avg_degree());
    }

    #[test]
    fn unikraft_nginx_graph_smaller_than_linux() {
        let r = LibRegistry::standard();
        let g = DepGraph::from_config(&r, &BuildConfig::new("app-nginx")).unwrap();
        let linux = DepGraph::linux();
        assert!(g.avg_degree() < linux.avg_degree());
    }

    #[test]
    fn dot_output_is_well_formed() {
        let r = LibRegistry::standard();
        let g = DepGraph::from_config(&r, &BuildConfig::new("app-helloworld")).unwrap();
        let dot = g.to_dot("hello");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn linux_dataset_has_famous_edges() {
        // Spot checks against the figure: ipc→fs 720, block→fs 551.
        assert!(LINUX_COMPONENT_EDGES.contains(&("ipc", "fs", 720)));
        assert!(LINUX_COMPONENT_EDGES.contains(&("block", "fs", 551)));
    }
}
